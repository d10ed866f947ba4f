//! Convergence and staleness tracking for the application tier.
//!
//! The pub/sub and CRDT workloads (`gocast-app`) measure success by
//! *application* quantities, not delivery ratio: how many payload bytes
//! subscribers actually received (goodput), how stale a replica is when a
//! mutation reaches it (staleness = publish → apply delay), and how long
//! until *every* replica reflects a mutation (convergence = publish →
//! last-apply delay). [`ConvergenceTracker`] folds the topic-tier events
//! (`TopicDelivered`, `DeltaPublished`, `DeltaApplied`) into those three
//! numbers in O(topics + mutations) memory. It is a [`Recorder`]: attach
//! it to a run, or replay a parsed trace's events into `record`.

use std::collections::BTreeMap;
use std::time::Duration;

use gocast::GoCastEvent;
use gocast_sim::{NodeId, Recorder, SimTime};

/// Per-mutation apply aggregate. Times are stored raw and compared with
/// the publish time at report time, so feeding order never matters.
#[derive(Debug, Clone, Copy, Default)]
struct ApplyAgg {
    count: u64,
    sum_t_us: u64,
    last_t_us: u64,
}

/// Streaming tracker for application-tier goodput, staleness, and
/// convergence. Keys mutations by `(topic, origin, counter)`.
#[derive(Debug, Default)]
pub struct ConvergenceTracker {
    /// (topic, origin, counter) -> publish time (µs).
    published: BTreeMap<(u32, u32, u32), u64>,
    /// (topic, origin, counter) -> remote-apply aggregate.
    applies: BTreeMap<(u32, u32, u32), ApplyAgg>,
    /// topic -> (deliveries, payload bytes).
    topics: BTreeMap<u32, (u64, u64)>,
    subscribes: u64,
    unsubscribes: u64,
}

/// What [`ConvergenceTracker::report`] distills.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConvergenceReport {
    /// Distinct mutations published.
    pub mutations: u64,
    /// Remote applies observed across all mutations.
    pub applies: u64,
    /// Mutations no remote replica ever applied (lost or never owed —
    /// single-subscriber topics legitimately land here).
    pub unapplied: u64,
    /// Mean publish → apply delay over every remote apply (staleness).
    pub mean_staleness: Duration,
    /// Median of per-mutation publish → last-apply delay.
    pub convergence_p50: Duration,
    /// 99th percentile of per-mutation publish → last-apply delay.
    pub convergence_p99: Duration,
    /// Worst per-mutation publish → last-apply delay.
    pub convergence_max: Duration,
    /// Topic payload deliveries (count of `TopicDelivered` events).
    pub topic_deliveries: u64,
    /// Delivered topic payload bytes across all subscribers.
    pub delivered_bytes: u64,
    /// Runtime subscribe events observed.
    pub subscribes: u64,
    /// Runtime unsubscribe events observed.
    pub unsubscribes: u64,
}

impl ConvergenceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_publish(&mut self, t_us: u64, topic: u32, origin: u32, counter: u32) {
        self.published
            .entry((topic, origin, counter))
            .or_insert(t_us);
    }

    fn on_apply(&mut self, t_us: u64, topic: u32, origin: u32, counter: u32) {
        let agg = self.applies.entry((topic, origin, counter)).or_default();
        agg.count += 1;
        agg.sum_t_us += t_us;
        agg.last_t_us = agg.last_t_us.max(t_us);
    }

    fn on_topic_delivery(&mut self, topic: u32, bytes: u32) {
        let e = self.topics.entry(topic).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Per-topic `(deliveries, payload bytes)` in topic order.
    pub fn per_topic(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.topics.iter().map(|(&t, &(n, b))| (t, n, b))
    }

    /// Distills everything fed so far.
    pub fn report(&self) -> ConvergenceReport {
        let mut r = ConvergenceReport {
            mutations: self.published.len() as u64,
            subscribes: self.subscribes,
            unsubscribes: self.unsubscribes,
            ..Default::default()
        };
        for &(n, b) in self.topics.values() {
            r.topic_deliveries += n;
            r.delivered_bytes += b;
        }
        let mut stale_sum_us = 0u64;
        let mut stale_n = 0u64;
        let mut conv_us: Vec<u64> = Vec::with_capacity(self.published.len());
        for (key, &pub_t) in &self.published {
            match self.applies.get(key) {
                Some(agg) if agg.count > 0 => {
                    r.applies += agg.count;
                    // Mean delay = mean apply time − publish time; delays
                    // are non-negative because applies follow publishes.
                    stale_sum_us += agg.sum_t_us.saturating_sub(agg.count * pub_t);
                    stale_n += agg.count;
                    conv_us.push(agg.last_t_us.saturating_sub(pub_t));
                }
                _ => r.unapplied += 1,
            }
        }
        if let Some(mean_us) = stale_sum_us.checked_div(stale_n) {
            r.mean_staleness = Duration::from_micros(mean_us);
        }
        conv_us.sort_unstable();
        let pick = |q: f64| -> Duration {
            if conv_us.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((conv_us.len() as f64 - 1.0) * q).round() as usize;
            Duration::from_micros(conv_us[idx.min(conv_us.len() - 1)])
        };
        r.convergence_p50 = pick(0.50);
        r.convergence_p99 = pick(0.99);
        r.convergence_max = conv_us
            .last()
            .map_or(Duration::ZERO, |&v| Duration::from_micros(v));
        r
    }
}

impl Recorder<GoCastEvent> for ConvergenceTracker {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        let t_us = now.as_nanos() / 1_000;
        match event {
            GoCastEvent::TopicDelivered { topic, bytes, .. } => {
                self.on_topic_delivery(topic, bytes)
            }
            GoCastEvent::DeltaPublished { topic, counter } => {
                self.on_publish(t_us, topic, node.as_u32(), counter)
            }
            GoCastEvent::DeltaApplied {
                topic,
                origin,
                counter,
            } => self.on_apply(t_us, topic, origin.as_u32(), counter),
            GoCastEvent::TopicSubscribed { .. } => self.subscribes += 1,
            GoCastEvent::TopicUnsubscribed { .. } => self.unsubscribes += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast::MsgId;

    fn record(c: &mut ConvergenceTracker, t_us: u64, node: u32, ev: GoCastEvent) {
        c.record(SimTime::from_nanos(t_us * 1_000), NodeId::new(node), ev);
    }

    fn applied(topic: u32, origin: u32, counter: u32) -> GoCastEvent {
        GoCastEvent::DeltaApplied {
            topic,
            origin: NodeId::new(origin),
            counter,
        }
    }

    #[test]
    fn staleness_and_convergence_from_trace_records() {
        let mut c = ConvergenceTracker::new();
        let published = GoCastEvent::DeltaPublished {
            topic: 1,
            counter: 1,
        };
        record(&mut c, 1_000, 7, published);
        // Two remote applies at +1ms and +3ms.
        record(&mut c, 2_000, 8, applied(1, 7, 1));
        record(&mut c, 4_000, 9, applied(1, 7, 1));
        let r = c.report();
        assert_eq!(r.mutations, 1);
        assert_eq!(r.applies, 2);
        assert_eq!(r.unapplied, 0);
        assert_eq!(r.mean_staleness, Duration::from_micros(2_000));
        assert_eq!(r.convergence_max, Duration::from_micros(3_000));
        assert_eq!(r.convergence_p50, r.convergence_max);
    }

    #[test]
    fn out_of_order_feeding_gives_the_same_report() {
        let publish = |c: &mut ConvergenceTracker| {
            let ev = GoCastEvent::DeltaPublished {
                topic: 0,
                counter: 1,
            };
            record(c, 1_000, 7, ev)
        };
        let apply = |c: &mut ConvergenceTracker| record(c, 5_000, 8, applied(0, 7, 1));
        let mut fwd = ConvergenceTracker::new();
        publish(&mut fwd);
        apply(&mut fwd);
        let mut rev = ConvergenceTracker::new();
        apply(&mut rev);
        publish(&mut rev);
        assert_eq!(fwd.report(), rev.report());
    }

    #[test]
    fn goodput_and_unapplied_accounting() {
        let mut c = ConvergenceTracker::new();
        let delivered = |seq| GoCastEvent::TopicDelivered {
            topic: 3,
            id: MsgId::new(NodeId::new(1), seq),
            bytes: 512,
        };
        record(&mut c, 10, 1, delivered(5));
        record(&mut c, 20, 2, delivered(6));
        let published = GoCastEvent::DeltaPublished {
            topic: 3,
            counter: 1,
        };
        record(&mut c, 30, 4, published);
        record(&mut c, 35, 4, GoCastEvent::TopicSubscribed { topic: 3 });
        let r = c.report();
        assert_eq!(r.delivered_bytes, 1024);
        assert_eq!(r.topic_deliveries, 2);
        assert_eq!(r.mutations, 1);
        assert_eq!(r.unapplied, 1);
        assert_eq!(r.subscribes, 1);
        let per: Vec<_> = c.per_topic().collect();
        assert_eq!(per, vec![(3, 2, 1024)]);
    }
}
