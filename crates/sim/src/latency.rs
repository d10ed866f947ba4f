//! Pluggable network latency models.
//!
//! The kernel asks the model for a one-way latency every time a message is
//! sent. Realistic models (clustered "King-like" matrices, AS topologies)
//! live in the `gocast-net` crate; this module defines the trait plus two
//! trivial models that are handy in tests.

use std::time::Duration;

use crate::id::NodeId;

/// Provides one-way network latency between pairs of nodes.
///
/// Implementations must be symmetric (`one_way(a, b) == one_way(b, a)`) and
/// return zero for `a == b`. The GoCast protocol measures RTTs by pinging, so
/// `rtt` has a default implementation as twice the one-way latency.
pub trait LatencyModel {
    /// One-way latency from `a` to `b`.
    fn one_way(&self, a: NodeId, b: NodeId) -> Duration;

    /// Round-trip latency between `a` and `b` (default: `2 * one_way`).
    fn rtt(&self, a: NodeId, b: NodeId) -> Duration {
        self.one_way(a, b) * 2
    }

    /// Number of nodes this model covers.
    fn len(&self) -> usize;

    /// Whether the model covers zero nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A lower bound on the one-way latency between any two *distinct*
    /// nodes, or `None` when the model cannot promise a positive bound.
    ///
    /// This is the conservative-parallel-simulation lookahead: with more
    /// than one lane the engine ([`crate::ShardedSim`]) processes each lane
    /// independently for a window of this length, because a message sent
    /// inside the window cannot arrive at another lane before the window
    /// ends. Injected jitter only *adds* latency, so the bound survives
    /// chaos. Models that cannot promise a positive bound return `None`
    /// (the default) and can only run on one lane.
    fn lookahead(&self) -> Option<Duration> {
        None
    }
}

/// Every pair of distinct nodes is separated by the same latency.
///
/// ```
/// use gocast_sim::{FixedLatency, LatencyModel, NodeId};
/// use std::time::Duration;
///
/// let m = FixedLatency::new(16, Duration::from_millis(50));
/// assert_eq!(m.one_way(NodeId::new(0), NodeId::new(1)), Duration::from_millis(50));
/// assert_eq!(m.one_way(NodeId::new(3), NodeId::new(3)), Duration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatency {
    nodes: usize,
    latency: Duration,
}

impl FixedLatency {
    /// A model over `nodes` nodes with constant pairwise `latency`.
    pub fn new(nodes: usize, latency: Duration) -> Self {
        FixedLatency { nodes, latency }
    }
}

impl LatencyModel for FixedLatency {
    fn one_way(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            Duration::ZERO
        } else {
            self.latency
        }
    }

    fn len(&self) -> usize {
        self.nodes
    }

    fn lookahead(&self) -> Option<Duration> {
        (self.latency > Duration::ZERO).then_some(self.latency)
    }
}

/// Deterministic pseudo-random pairwise latencies in `[min, max)`.
///
/// The latency of a pair is a hash of the unordered pair, so it is symmetric
/// and stable across calls without storing an `n x n` matrix.
#[derive(Debug, Clone)]
pub struct HashedLatency {
    nodes: usize,
    min_nanos: u64,
    span_nanos: u64,
    seed: u64,
}

impl HashedLatency {
    /// A model over `nodes` nodes with latencies uniform-ish in `[min, max)`.
    ///
    /// # Panics
    ///
    /// Panics if `max <= min`.
    pub fn new(nodes: usize, min: Duration, max: Duration, seed: u64) -> Self {
        assert!(max > min, "HashedLatency requires max > min");
        HashedLatency {
            nodes,
            min_nanos: min.as_nanos() as u64,
            span_nanos: (max - min).as_nanos() as u64,
            seed,
        }
    }
}

/// A small fast mixing function (splitmix64 finalizer).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl LatencyModel for HashedLatency {
    fn one_way(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let h = mix(self.seed ^ ((lo.as_u32() as u64) << 32 | hi.as_u32() as u64));
        Duration::from_nanos(self.min_nanos + h % self.span_nanos)
    }

    fn len(&self) -> usize {
        self.nodes
    }

    fn lookahead(&self) -> Option<Duration> {
        (self.min_nanos > 0).then(|| Duration::from_nanos(self.min_nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_symmetric_and_zero_on_diagonal() {
        let m = FixedLatency::new(4, Duration::from_millis(10));
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        assert_eq!(m.one_way(a, b), m.one_way(b, a));
        assert_eq!(m.one_way(a, a), Duration::ZERO);
        assert_eq!(m.rtt(a, b), Duration::from_millis(20));
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn hashed_is_symmetric_in_range_and_stable() {
        let m = HashedLatency::new(64, Duration::from_millis(5), Duration::from_millis(200), 9);
        for i in 0..64u32 {
            for j in (i + 1)..64 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                let l = m.one_way(a, b);
                assert_eq!(l, m.one_way(b, a));
                assert!(l >= Duration::from_millis(5) && l < Duration::from_millis(200));
                assert_eq!(l, m.one_way(a, b), "stable across calls");
            }
        }
    }

    #[test]
    fn hashed_varies_with_seed() {
        let a = HashedLatency::new(8, Duration::ZERO, Duration::from_secs(1), 1);
        let b = HashedLatency::new(8, Duration::ZERO, Duration::from_secs(1), 2);
        let differs = (0..8u32)
            .flat_map(|i| (0..8u32).map(move |j| (i, j)))
            .any(|(i, j)| {
                i != j
                    && a.one_way(NodeId::new(i), NodeId::new(j))
                        != b.one_way(NodeId::new(i), NodeId::new(j))
            });
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "max > min")]
    fn hashed_rejects_empty_range() {
        let _ = HashedLatency::new(2, Duration::from_millis(5), Duration::from_millis(5), 0);
    }
}
