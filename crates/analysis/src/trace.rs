//! Causal trace analysis: per-message dissemination-tree reconstruction.
//!
//! [`TraceAnalysis`] is a [`Recorder`] over `GoCastEvent`, fed by a live
//! run or by [`gocast_sim::replay`] over a JSONL trace. It rebuilds every
//! message's dissemination tree from the `from`/`hop` causal metadata on
//! deliveries, validates each causal edge and measures the per-hop
//! latency — what no counting ledger can, since it needs each delivery's
//! causal parent. Delivery counts, hop counts and the tree-vs-pull
//! recovery fraction are the [`DeliveryTracker`](crate::DeliveryTracker)'s.

use std::collections::BTreeMap;

use gocast::{GoCastEvent, MsgId};
use gocast_sim::{NodeId, Recorder, SimTime};

use crate::delivery::HOP_BUCKETS;

/// One delivery inside a message's dissemination tree.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    /// When the node delivered, µs.
    t_us: u64,
    /// Causal parent (who sent the payload).
    from: u32,
    /// Causal hop count from the origin.
    hop: u32,
}

#[derive(Debug, Clone, Default)]
struct MsgTrace {
    injected_at: Option<u64>,
    /// node -> first delivery (later duplicates are the oracle's problem).
    deliveries: BTreeMap<u32, Delivery>,
}

/// Streaming reconstruction of per-message dissemination trees.
///
/// Record a run (or replay its trace) into it, then call
/// [`TraceAnalysis::report`]. Memory is O(messages × receivers) — the
/// trees themselves — and independent of gossip/push/pull event volume.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    msgs: BTreeMap<MsgId, MsgTrace>,
}

impl TraceAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the report over everything recorded so far.
    pub fn report(&self) -> TraceReport {
        let mut r = TraceReport::default();
        let mut hop_lat_sum_us: Vec<u64> = Vec::new();
        let mut hop_lat_n: Vec<u64> = Vec::new();
        for (id, m) in &self.msgs {
            let origin = id.origin.as_u32();
            let mut ok = m.injected_at.is_some();
            for d in m.deliveries.values() {
                let hop = hop_bucket(d.hop);
                // Validate the causal edge and collect the per-hop latency
                // (delivery time minus the parent's delivery time; hop 1
                // measures against the injection).
                let parent_t = if d.hop <= 1 {
                    if d.from == origin {
                        m.injected_at
                    } else {
                        None
                    }
                } else {
                    // `d.hop >= 2` here; `p.hop + 1` could overflow on a
                    // hostile trace.
                    m.deliveries
                        .get(&d.from)
                        .filter(|p| p.hop == d.hop - 1)
                        .map(|p| p.t_us)
                };
                match parent_t {
                    Some(t0) if t0 <= d.t_us && d.hop >= 1 => {
                        if hop_lat_sum_us.len() <= hop {
                            hop_lat_sum_us.resize(hop + 1, 0);
                            hop_lat_n.resize(hop + 1, 0);
                        }
                        hop_lat_sum_us[hop] += d.t_us - t0;
                        hop_lat_n[hop] += 1;
                    }
                    _ => ok = false,
                }
            }
            if ok {
                r.trees_reconstructed += 1;
            }
        }
        r.per_hop_latency = hop_lat_sum_us
            .iter()
            .zip(hop_lat_n.iter())
            .enumerate()
            .filter(|&(_, (_, &n))| n > 0)
            .map(|(hop, (&sum, &n))| PerHopLatency {
                hop: hop as u32,
                mean_ms: sum as f64 / n as f64 / 1_000.0,
                samples: n,
            })
            .collect();
        r
    }
}

impl Recorder<GoCastEvent> for TraceAnalysis {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        let t_us = now.as_nanos() / 1_000;
        match event {
            GoCastEvent::Injected { id } => {
                let m = self.msgs.entry(id).or_default();
                m.injected_at = Some(m.injected_at.map_or(t_us, |t| t.min(t_us)));
            }
            GoCastEvent::Delivered { id, from, hop, .. } => {
                let m = self.msgs.entry(id).or_default();
                m.deliveries.entry(node.as_u32()).or_insert(Delivery {
                    t_us,
                    from: from.as_u32(),
                    hop,
                });
            }
            _ => {}
        }
    }
}

/// The report's index for causal hop `hop`: a trace is outside input, so
/// hops past the delivery ledger's [`HOP_BUCKETS`] share its last bucket
/// rather than sizing a vector.
fn hop_bucket(hop: u32) -> usize {
    (hop as usize).min(HOP_BUCKETS - 1)
}

/// Mean link latency at one causal depth of the dissemination trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerHopLatency {
    /// Causal hop (1 = the origin's own sends).
    pub hop: u32,
    /// Mean time spent crossing into this hop, milliseconds.
    pub mean_ms: f64,
    /// Number of deliveries at this hop that had a valid causal parent.
    pub samples: u64,
}

/// What [`TraceAnalysis::report`] computed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Messages whose every delivery chains back to the injection through
    /// valid `(from, hop)` causal edges.
    pub trees_reconstructed: usize,
    /// Per-hop latency breakdown.
    pub per_hop_latency: Vec<PerHopLatency>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast::DeliveryPath;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Feeds one event at `t_us` microseconds.
    fn at(a: &mut TraceAnalysis, t_us: u64, node: u32, ev: GoCastEvent) {
        a.record(SimTime::from_nanos(t_us * 1_000), n(node), ev);
    }

    fn injected(origin: u32, seq: u32) -> GoCastEvent {
        GoCastEvent::Injected {
            id: MsgId::new(n(origin), seq),
        }
    }

    fn delivered(origin: u32, seq: u32, from: u32, hop: u32, via: DeliveryPath) -> GoCastEvent {
        GoCastEvent::Delivered {
            id: MsgId::new(n(origin), seq),
            via,
            from: n(from),
            hop,
        }
    }

    #[test]
    fn a_hostile_hop_cannot_size_the_report() {
        let mut a = TraceAnalysis::new();
        at(&mut a, 0, 0, injected(0, 0));
        at(
            &mut a,
            1,
            1,
            delivered(0, 0, 0, u32::MAX, DeliveryPath::Tree),
        );
        at(
            &mut a,
            2,
            2,
            delivered(0, 0, 1, u32::MAX, DeliveryPath::Pull),
        );
        let r = a.report();
        assert!(r
            .per_hop_latency
            .iter()
            .all(|p| (p.hop as usize) < HOP_BUCKETS));
    }

    #[test]
    fn reconstructs_a_simple_tree() {
        let mut a = TraceAnalysis::new();
        at(&mut a, 1_000, 0, injected(0, 0));
        at(&mut a, 11_000, 1, delivered(0, 0, 0, 1, DeliveryPath::Tree));
        at(&mut a, 26_000, 2, delivered(0, 0, 1, 2, DeliveryPath::Tree));
        at(
            &mut a,
            500_000,
            3,
            delivered(0, 0, 1, 2, DeliveryPath::Pull),
        );
        let r = a.report();
        assert_eq!(r.trees_reconstructed, 1);
        // hop 1: 11 − 1 = 10 ms; hop 2: 26 − 11 = 15 ms and 500 − 11 = 489 ms.
        let h1 = r.per_hop_latency.iter().find(|p| p.hop == 1).unwrap();
        assert!((h1.mean_ms - 10.0).abs() < 1e-9);
        let h2 = r.per_hop_latency.iter().find(|p| p.hop == 2).unwrap();
        assert_eq!(h2.samples, 2);
        assert!((h2.mean_ms - (15.0 + 489.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn broken_causal_chain_is_not_reconstructed() {
        let mut a = TraceAnalysis::new();
        at(&mut a, 0, 0, injected(0, 0));
        // Parent 7 never delivered.
        at(&mut a, 10, 1, delivered(0, 0, 7, 2, DeliveryPath::Tree));
        assert_eq!(a.report().trees_reconstructed, 0);
    }
}
