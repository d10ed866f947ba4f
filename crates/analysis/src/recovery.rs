//! Recovery metrics for fault-scenario (chaos) runs.
//!
//! The paper's dependability results (§4–§5) are about how dissemination
//! *degrades and recovers* around faults. Two pieces serve them:
//!
//! - [`WindowRatio`] — one injection-time window of delivery-ratio
//!   accounting, produced by [`crate::DeliveryTracker::windowed_ratios`]
//!   from the ledger's per-message delivery counts;
//! - [`OrphanTracker`] — how long nodes spend *orphaned* (detached from
//!   the dissemination tree) after faults: spell count, total, mean and
//!   max duration. O(nodes) memory, composable with every other recorder
//!   via tuples / `tee`.

use std::time::Duration;

use gocast::GoCastEvent;
use gocast_sim::{NodeId, Recorder, SimTime};

/// One injection-time window of delivery-ratio accounting (see
/// [`crate::DeliveryTracker::windowed_ratios`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRatio {
    /// Window start (absolute simulation time).
    pub start: SimTime,
    /// Messages injected in this window.
    pub injected: u64,
    /// Deliveries expected for those messages (caller-supplied).
    pub expected: u64,
    /// Deliveries observed for those messages.
    pub delivered: u64,
}

impl WindowRatio {
    /// Observed / expected deliveries (1.0 when nothing was expected).
    pub fn ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// Streaming orphaned-node accounting: how long nodes spend detached from
/// the dissemination tree.
///
/// A spell opens when a node reports `ParentChanged { parent: None }`
/// (detached) and closes when it adopts a parent or becomes root. Spells
/// still open at the end of a run are closed by [`OrphanTracker::finish`].
/// Memory is O(nodes).
#[derive(Debug, Default)]
pub struct OrphanTracker {
    /// Per node: when the current orphan spell began, if any.
    since: Vec<Option<SimTime>>,
    spells: u64,
    total: Duration,
    max_spell: Duration,
}

impl OrphanTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn close(&mut self, node: usize, now: SimTime) {
        if let Some(start) = self.since[node].take() {
            let d = now.saturating_since(start);
            self.spells += 1;
            self.total += d;
            self.max_spell = self.max_spell.max(d);
        }
    }

    /// Closes every still-open orphan spell at `now`. Call once when the
    /// run ends, before reading the aggregates.
    pub fn finish(&mut self, now: SimTime) {
        for i in 0..self.since.len() {
            self.close(i, now);
        }
    }

    /// Number of orphan spells observed (closed spells only; call
    /// [`OrphanTracker::finish`] first for end-of-run totals).
    pub fn spells(&self) -> u64 {
        self.spells
    }

    /// Sum of all closed spell durations.
    pub fn total_orphan_time(&self) -> Duration {
        self.total
    }

    /// Longest closed spell.
    pub fn max_spell(&self) -> Duration {
        self.max_spell
    }

    /// Mean closed spell duration (zero when no spells closed).
    pub fn mean_spell(&self) -> Duration {
        if self.spells == 0 {
            Duration::ZERO
        } else {
            self.total / self.spells as u32
        }
    }

    /// Nodes currently inside an orphan spell.
    pub fn open_orphans(&self) -> usize {
        self.since.iter().filter(|s| s.is_some()).count()
    }
}

impl Recorder<GoCastEvent> for OrphanTracker {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        let i = node.index();
        match event {
            GoCastEvent::ParentChanged { parent: None } => {
                if self.since.len() <= i {
                    self.since.resize(i + 1, None);
                }
                if self.since[i].is_none() {
                    self.since[i] = Some(now);
                }
            }
            GoCastEvent::ParentChanged { parent: Some(_) } | GoCastEvent::BecameRoot { .. }
                if i < self.since.len() =>
            {
                self.close(i, now);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orphan_spells_open_and_close() {
        let mut t = OrphanTracker::new();
        let n = NodeId::new(4);
        let detach = |t: &mut OrphanTracker, s| {
            t.record(
                SimTime::from_secs(s),
                n,
                GoCastEvent::ParentChanged { parent: None },
            )
        };
        let attach = |t: &mut OrphanTracker, s| {
            t.record(
                SimTime::from_secs(s),
                n,
                GoCastEvent::ParentChanged {
                    parent: Some(NodeId::new(0)),
                },
            )
        };
        detach(&mut t, 10);
        detach(&mut t, 12); // redundant detach does not restart the spell
        assert_eq!(t.open_orphans(), 1);
        attach(&mut t, 15);
        assert_eq!(t.spells(), 1);
        assert_eq!(t.total_orphan_time(), Duration::from_secs(5));
        detach(&mut t, 20);
        t.record(
            SimTime::from_secs(21),
            n,
            GoCastEvent::BecameRoot { epoch: 1 },
        );
        assert_eq!(t.spells(), 2);
        assert_eq!(t.max_spell(), Duration::from_secs(5));
        assert_eq!(t.mean_spell(), Duration::from_secs(3));
        // finish() closes open spells.
        detach(&mut t, 30);
        t.finish(SimTime::from_secs(40));
        assert_eq!(t.spells(), 3);
        assert_eq!(t.max_spell(), Duration::from_secs(10));
        assert_eq!(t.open_orphans(), 0);
    }
}
