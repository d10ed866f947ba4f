//! Whole-system snapshots for offline analysis.
//!
//! The paper's adaptation figures (5a, 5b, 6 and the §3 summaries) measure
//! global properties of the overlay and tree at instants in time. These
//! helpers extract the graphs from a running [`Engine`] so the analysis crate
//! can compute degrees, latencies, components and diameters.

use std::time::Duration;

use gocast_sim::{Engine, LatencyModel, Mode, NodeId, Recorder};

use crate::node::GoCastNode;
use crate::types::{GoCastEvent, LinkKind};

/// A point-in-time view of the overlay and tree.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Number of nodes.
    pub n: usize,
    /// Liveness per node.
    pub alive: Vec<bool>,
    /// Undirected overlay edges `(a, b, kind)` with `a < b`. An edge is
    /// included if either endpoint has it; the kind is the first
    /// endpoint's classification.
    pub overlay_edges: Vec<(u32, u32, LinkKind)>,
    /// Undirected tree edges `(child, parent)` from parent pointers.
    pub tree_edges: Vec<(u32, u32)>,
}

/// Captures a [`Snapshot`] from a simulation of GoCast nodes.
pub fn snapshot<R: Recorder<GoCastEvent>, M: Mode>(sim: &Engine<GoCastNode, R, M>) -> Snapshot {
    let n = sim.len();
    let alive: Vec<bool> = (0..n)
        .map(|i| sim.is_alive(NodeId::new(i as u32)))
        .collect();

    let mut overlay = std::collections::BTreeMap::new();
    let mut tree_edges = Vec::new();
    for (id, node) in sim.iter_nodes() {
        for (peer, kind, _) in node.overlay_links() {
            let key = if id < peer {
                (id.as_u32(), peer.as_u32())
            } else {
                (peer.as_u32(), id.as_u32())
            };
            overlay.entry(key).or_insert(kind);
        }
        if let Some(p) = node.tree_parent() {
            tree_edges.push((id.as_u32(), p.as_u32()));
        }
    }
    Snapshot {
        n,
        alive,
        overlay_edges: overlay.into_iter().map(|((a, b), k)| (a, b, k)).collect(),
        tree_edges,
    }
}

impl Snapshot {
    /// Overlay adjacency lists over all nodes (dead nodes keep their last
    /// links; filter by [`Snapshot::alive`] for post-failure analysis).
    pub fn overlay_adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b, _) in &self.overlay_edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        adj
    }

    /// Overlay adjacency restricted to alive nodes (dead endpoints and
    /// their edges removed).
    pub fn live_overlay_adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b, _) in &self.overlay_edges {
            if self.alive[a as usize] && self.alive[b as usize] {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        adj
    }

    /// Total node degrees (random + nearby) per node.
    pub fn degrees(&self) -> Vec<usize> {
        self.overlay_adjacency().iter().map(Vec::len).collect()
    }

    /// Mean true one-way latency across overlay links.
    pub fn mean_overlay_latency(&self, net: &dyn LatencyModel) -> Duration {
        Self::mean_latency(self.overlay_edges.iter().map(|&(a, b, _)| (a, b)), net)
    }

    /// Mean true one-way latency across overlay links of one kind.
    pub fn mean_overlay_latency_of(&self, kind: LinkKind, net: &dyn LatencyModel) -> Duration {
        Self::mean_latency(
            self.overlay_edges
                .iter()
                .filter(|&&(_, _, k)| k == kind)
                .map(|&(a, b, _)| (a, b)),
            net,
        )
    }

    /// Mean true one-way latency across tree links.
    pub fn mean_tree_latency(&self, net: &dyn LatencyModel) -> Duration {
        Self::mean_latency(self.tree_edges.iter().copied(), net)
    }

    fn mean_latency<I: Iterator<Item = (u32, u32)>>(edges: I, net: &dyn LatencyModel) -> Duration {
        let mut sum = Duration::ZERO;
        let mut count = 0u32;
        for (a, b) in edges {
            sum += net.one_way(NodeId::new(a), NodeId::new(b));
            count += 1;
        }
        if count == 0 {
            Duration::ZERO
        } else {
            sum / count
        }
    }

    /// Number of overlay edges.
    pub fn overlay_edge_count(&self) -> usize {
        self.overlay_edges.len()
    }

    /// Number of tree edges (n-1 when the tree spans all nodes).
    pub fn tree_edge_count(&self) -> usize {
        self.tree_edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::FixedLatency;

    #[test]
    fn snapshot_statics_on_synthetic_graph() {
        // Construct a Snapshot by hand to exercise the graph helpers.
        let s = Snapshot {
            n: 4,
            alive: vec![true, true, false, true],
            overlay_edges: vec![
                (0, 1, LinkKind::Nearby),
                (1, 2, LinkKind::Random),
                (2, 3, LinkKind::Nearby),
            ],
            tree_edges: vec![(1, 0), (2, 1)],
        };
        assert_eq!(s.degrees(), vec![1, 2, 2, 1]);
        let live = s.live_overlay_adjacency();
        assert_eq!(live[0], vec![1]);
        assert!(live[2].is_empty(), "dead node keeps no live edges");
        assert_eq!(s.overlay_edge_count(), 3);
        assert_eq!(s.tree_edge_count(), 2);

        let net = FixedLatency::new(4, Duration::from_millis(10));
        assert_eq!(s.mean_overlay_latency(&net), Duration::from_millis(10));
        assert_eq!(
            s.mean_overlay_latency_of(LinkKind::Random, &net),
            Duration::from_millis(10)
        );
        assert_eq!(s.mean_tree_latency(&net), Duration::from_millis(10));
    }

    #[test]
    fn empty_edges_mean_zero() {
        let s = Snapshot {
            n: 2,
            alive: vec![true, true],
            overlay_edges: vec![],
            tree_edges: vec![],
        };
        let net = FixedLatency::new(2, Duration::from_millis(10));
        assert_eq!(s.mean_overlay_latency(&net), Duration::ZERO);
        assert_eq!(s.mean_tree_latency(&net), Duration::ZERO);
    }
}
