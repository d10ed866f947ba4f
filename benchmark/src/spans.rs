//! Spans of sampled messages: kept in memory during the run, linked into
//! one tree per message when it ends, and written as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use gocast::MsgId;
use gocast_sim::{FxHashMap, NodeId};

/// One timed interval at a layer boundary. Spans of one message share
/// `msg`; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub msg: MsgId,
    pub node: NodeId,
    /// The node whose send caused this span (resolved into `parent` by
    /// [`link_causes`]); `None` for the publish itself and for children.
    pub from: Option<NodeId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Gives every parentless span with a known sender its causal parent:
/// the first parentless span of the same message at the sending node
/// (the reception or publish during which that node forwarded it).
pub fn link_causes(spans: &mut [Span]) {
    let mut first: FxHashMap<(MsgId, NodeId), u32> = FxHashMap::default();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        first.entry((s.msg, s.node)).or_insert(s.id);
    }
    for s in spans.iter_mut().filter(|s| s.parent.is_none()) {
        if let Some(from) = s.from {
            s.parent = first.get(&(s.msg, from)).copied().filter(|p| *p != s.id);
        }
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that spans naming it as parent *on the same node* cover
/// (causal children on other nodes run later and cover nothing).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id: FxHashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: FxHashMap<u32, Vec<(u64, u64)>> = FxHashMap::default();
    for s in spans {
        let Some(p) = s.parent.and_then(|p| by_id.get(&p)) else {
            continue;
        };
        if p.node != s.node {
            continue;
        }
        let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
        if lo < hi {
            covered.entry(p.id).or_default().push((lo, hi));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut cover = 0;
        if let Some(parts) = covered.get_mut(&s.id) {
            // Union of the children's intervals.
            parts.sort_unstable();
            let mut end = 0;
            for &(lo, hi) in parts.iter() {
                let lo = lo.max(end);
                if hi > lo {
                    cover += hi - lo;
                    end = hi;
                }
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(cover);
    }
    out
}

/// Writes one JSON object per span to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"msg\":\"{}:{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.name,
            s.msg.origin.as_u32(),
            s.msg.seq,
            s.node.as_u32(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, node: u32, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name,
            msg: MsgId::new(NodeId::new(0), 7),
            node: NodeId::new(node),
            from: None,
            start_ns: t.0,
            end_ns: t.1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "adapter", 1, (100, 200)),
            span(1, Some(0), "handler", 1, (110, 150)),
            span(2, Some(0), "sink", 1, (150, 190)),
            // Overlapping children are counted once.
            span(3, None, "adapter", 2, (300, 400)),
            span(4, Some(3), "handler", 2, (310, 360)),
            span(5, Some(3), "sink", 2, (350, 390)),
            // A causal child on another node covers nothing.
            span(6, Some(0), "adapter", 3, (120, 130)),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["adapter"], 20 + 20 + 10);
        assert_eq!(t["handler"], 40 + 50);
        assert_eq!(t["sink"], 40 + 40);
    }

    #[test]
    fn causes_link_receptions_to_the_forwarding_span() {
        let mut spans = vec![
            span(0, None, "adapter", 0, (0, 10)), // publish at node 0
            span(1, Some(0), "handler", 0, (1, 9)),
            span(2, None, "adapter", 1, (50, 60)), // node 1 got it from 0
            span(3, None, "adapter", 2, (90, 95)), // node 2 got it from 1
            span(4, None, "adapter", 3, (70, 75)), // sender never traced
        ];
        spans[2].from = Some(NodeId::new(0));
        spans[3].from = Some(NodeId::new(1));
        spans[4].from = Some(NodeId::new(9));
        link_causes(&mut spans);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
    }
}
