//! Traffic accounting.
//!
//! The kernel classifies every unicast send and tallies message and byte
//! counts per [`TrafficClass`]. Optionally it also tracks per-endpoint-pair
//! message counts, which the link-stress experiment maps onto physical
//! network paths.

use std::collections::HashMap;

use crate::id::NodeId;

/// Coarse classification of protocol traffic, used for accounting only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Full multicast payloads (tree pushes and gossip-pull responses).
    Data,
    /// Periodic message-ID summaries.
    Gossip,
    /// Pull requests for missing messages.
    Request,
    /// Overlay maintenance control traffic (link add/drop, rebalance).
    Control,
    /// RTT measurement probes.
    Probe,
    /// Tree heartbeats and route updates.
    Tree,
    /// Membership exchange.
    Membership,
}

impl TrafficClass {
    /// All classes, in a stable order (useful for table output).
    pub const ALL: [TrafficClass; 7] = [
        TrafficClass::Data,
        TrafficClass::Gossip,
        TrafficClass::Request,
        TrafficClass::Control,
        TrafficClass::Probe,
        TrafficClass::Tree,
        TrafficClass::Membership,
    ];

    /// Stable dense index of this class in [`TrafficClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Gossip => 1,
            TrafficClass::Request => 2,
            TrafficClass::Control => 3,
            TrafficClass::Probe => 4,
            TrafficClass::Tree => 5,
            TrafficClass::Membership => 6,
        }
    }
}

/// Message/byte counters for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Number of unicast messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
}

/// Aggregate traffic statistics for a simulation run.
///
/// ```
/// use gocast_sim::{NodeId, TrafficClass, TrafficStats};
///
/// let mut s = TrafficStats::new();
/// s.record(NodeId::new(0), NodeId::new(1), 100, TrafficClass::Data);
/// assert_eq!(s.class(TrafficClass::Data).messages, 1);
/// assert_eq!(s.total().bytes, 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    per_class: [ClassCounters; 7],
    pair_counts: Option<HashMap<(NodeId, NodeId), u64>>,
}

impl TrafficStats {
    /// Creates empty statistics with pair tracking disabled.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Enables per-(source, destination) byte counting.
    ///
    /// Pairs are stored unordered (the smaller id first) because physical
    /// link stress does not care about direction.
    pub fn enable_pair_counts(&mut self) {
        if self.pair_counts.is_none() {
            self.pair_counts = Some(HashMap::new());
        }
    }

    /// Records one unicast message.
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: u32, class: TrafficClass) {
        let c = &mut self.per_class[class.index()];
        c.messages += 1;
        c.bytes += bytes as u64;
        if let Some(pairs) = &mut self.pair_counts {
            let key = if from <= to { (from, to) } else { (to, from) };
            *pairs.entry(key).or_insert(0) += bytes as u64;
        }
    }

    /// Counters for one traffic class.
    pub fn class(&self, class: TrafficClass) -> ClassCounters {
        self.per_class[class.index()]
    }

    /// Counters summed over all classes.
    pub fn total(&self) -> ClassCounters {
        let mut t = ClassCounters::default();
        for c in &self.per_class {
            t.messages += c.messages;
            t.bytes += c.bytes;
        }
        t
    }

    /// Per-unordered-pair byte counts, if enabled.
    pub fn pair_counts(&self) -> Option<&HashMap<(NodeId, NodeId), u64>> {
        self.pair_counts.as_ref()
    }

    /// Folds another run's counters into this one — the sharded kernel's
    /// per-worker aggregation. Pair counts merge when both sides track them.
    pub fn absorb(&mut self, other: &TrafficStats) {
        for (mine, theirs) in self.per_class.iter_mut().zip(&other.per_class) {
            mine.messages += theirs.messages;
            mine.bytes += theirs.bytes;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.pair_counts, &other.pair_counts) {
            for (k, v) in theirs {
                *mine.entry(*k).or_insert(0) += v;
            }
        }
    }

    /// Resets all counters (pair tracking stays enabled if it was).
    pub fn reset(&mut self) {
        self.per_class = Default::default();
        if let Some(p) = &mut self.pair_counts {
            p.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_match_all() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn records_per_class_and_total() {
        let mut s = TrafficStats::new();
        s.record(NodeId::new(0), NodeId::new(1), 10, TrafficClass::Data);
        s.record(NodeId::new(1), NodeId::new(0), 20, TrafficClass::Data);
        s.record(NodeId::new(2), NodeId::new(3), 5, TrafficClass::Gossip);
        assert_eq!(s.class(TrafficClass::Data).messages, 2);
        assert_eq!(s.class(TrafficClass::Data).bytes, 30);
        assert_eq!(s.class(TrafficClass::Gossip).messages, 1);
        assert_eq!(s.total().messages, 3);
        assert_eq!(s.total().bytes, 35);
    }

    #[test]
    fn pair_counts_are_unordered() {
        let mut s = TrafficStats::new();
        s.enable_pair_counts();
        s.record(NodeId::new(5), NodeId::new(2), 10, TrafficClass::Data);
        s.record(NodeId::new(2), NodeId::new(5), 7, TrafficClass::Gossip);
        let pairs = s.pair_counts().unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(
            pairs[&(NodeId::new(2), NodeId::new(5))],
            17,
            "bytes, both directions"
        );
    }

    #[test]
    fn pair_counts_disabled_by_default() {
        let mut s = TrafficStats::new();
        s.record(NodeId::new(0), NodeId::new(1), 1, TrafficClass::Data);
        assert!(s.pair_counts().is_none());
    }

    #[test]
    fn reset_clears_counts() {
        let mut s = TrafficStats::new();
        s.enable_pair_counts();
        s.record(NodeId::new(0), NodeId::new(1), 1, TrafficClass::Data);
        s.reset();
        assert_eq!(s.total().messages, 0);
        assert_eq!(s.pair_counts().unwrap().len(), 0);
    }
}
