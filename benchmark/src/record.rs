//! The benchmark's recorder: folds protocol events into exactly what the
//! end-to-end metrics and the output checks need, in O(messages × nodes)
//! bits plus one latency sample per delivery.

use std::time::Duration;

use gocast::{DeliveryPath, GoCastConfig, GoCastEvent, MsgId};
use gocast_analysis::{InvariantOracle, MetricsRecorder};
use gocast_sim::{FxHashMap, NodeId, Recorder, SimTime};

use crate::host::now_ns;
use crate::stats::{quantile_sorted, top_percentile};

/// A fixed-size set of node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    pub fn empty(nodes: usize) -> NodeSet {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    pub fn from_nodes(nodes: usize, members: impl IntoIterator<Item = NodeId>) -> NodeSet {
        let mut set = NodeSet::empty(nodes);
        for m in members {
            set.insert(m);
        }
        set
    }

    /// Inserts `node`; returns whether it was new.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, bit) = (node.index() / 64, 1u64 << (node.index() % 64));
        let new = self.words[w] & bit == 0;
        self.words[w] |= bit;
        new
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.words[node.index() / 64] & (1u64 << (node.index() % 64)) != 0
    }

    pub fn len(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Members of `self` that `other` lacks.
    fn minus(&self, other: &NodeSet) -> u64 {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & !b).count_ones()))
            .sum()
    }
}

/// One multicast the benchmark is following.
#[derive(Debug)]
struct Tracked {
    /// When latency is timed from: the injection instant on a simulator,
    /// the due time of the send on the wire.
    sent: SimTime,
    got: NodeSet,
}

/// The result of comparing deliveries with what was owed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Audit {
    /// (message, subscriber) pairs owed.
    pub expected: u64,
    /// Owed pairs never delivered.
    pub missing: u64,
    /// Deliveries to a node that was not owed the message.
    pub extra: u64,
    /// Second deliveries of a pair.
    pub duplicates: u64,
    /// Deliveries or injections of a message nobody scheduled.
    pub unknown: u64,
}

impl Audit {
    /// Adds another part's counts (the wire workload audits per fabric).
    pub fn absorb(&mut self, other: &Audit) {
        self.expected += other.expected;
        self.missing += other.missing;
        self.extra += other.extra;
        self.duplicates += other.duplicates;
        self.unknown += other.unknown;
    }

    /// The line and verdict of the exactly-once check.
    pub fn check(&self, who: &str) -> (String, bool) {
        (
            format!(
                "every owed (message, {who}) pair delivered exactly once: {} owed, {} missing, {} extra, {} duplicate, {} unknown",
                self.expected, self.missing, self.extra, self.duplicates, self.unknown
            ),
            self.exact(),
        )
    }

    /// Every owed pair delivered exactly once and nothing else.
    pub fn exact(&self) -> bool {
        self.missing == 0 && self.extra == 0 && self.duplicates == 0 && self.unknown == 0
    }
}

/// Delivery accounting for one workload run.
#[derive(Debug)]
pub struct Tally {
    nodes: usize,
    msgs: FxHashMap<MsgId, Tracked>,
    /// One delay per first delivery, ns.
    pub delays_ns: Vec<u64>,
    pub deliveries: u64,
    duplicates: u64,
    unknown: u64,
    pub hops: u64,
    pub pulled: u64,
    pub redundant: u64,
    pub ihave_entries: u64,
    /// `LinkDropped` events (each endpoint that drops a link emits one).
    pub link_drops: u64,
    /// Payload bytes handed to subscribers (`TopicDelivered`), when the
    /// events carry them.
    pub topic_payload_bytes: u64,
    /// `DeltaPublished` instants and the last `DeltaApplied` per mutation,
    /// for CRDT convergence delay.
    mutations: FxHashMap<(u32, NodeId, u32), (SimTime, SimTime)>,
}

impl Tally {
    pub fn new(nodes: usize) -> Tally {
        Tally {
            nodes,
            msgs: FxHashMap::default(),
            delays_ns: Vec::new(),
            deliveries: 0,
            duplicates: 0,
            unknown: 0,
            hops: 0,
            pulled: 0,
            redundant: 0,
            ihave_entries: 0,
            link_drops: 0,
            topic_payload_bytes: 0,
            mutations: FxHashMap::default(),
        }
    }

    /// Starts following `id`, timing its deliveries from `sent`.
    pub fn track(&mut self, id: MsgId, sent: SimTime) {
        let got = NodeSet::empty(self.nodes);
        if self.msgs.insert(id, Tracked { sent, got }).is_some() {
            self.unknown += 1; // the same id injected twice
        }
    }

    pub fn tracked(&self) -> usize {
        self.msgs.len()
    }

    fn delivered(&mut self, now: SimTime, node: NodeId, id: MsgId, via: DeliveryPath, hop: u32) {
        let Some(msg) = self.msgs.get_mut(&id) else {
            self.unknown += 1;
            return;
        };
        if !msg.got.insert(node) {
            self.duplicates += 1;
            return;
        }
        self.deliveries += 1;
        self.hops += u64::from(hop);
        if via == DeliveryPath::Pull {
            self.pulled += 1;
        }
        self.delays_ns
            .push(now.as_nanos().saturating_sub(msg.sent.as_nanos()));
    }

    /// Folds one protocol event in. `Injected` starts tracking only when
    /// `track_injections` (simulators); the wire tracks its schedule up
    /// front, with due times.
    pub fn observe(
        &mut self,
        now: SimTime,
        node: NodeId,
        event: &GoCastEvent,
        track_injections: bool,
    ) {
        match event {
            GoCastEvent::Injected { id } if track_injections => self.track(*id, now),
            GoCastEvent::Delivered { id, via, hop, .. } => {
                self.delivered(now, node, *id, *via, *hop)
            }
            GoCastEvent::RedundantData { .. } => self.redundant += 1,
            GoCastEvent::IHaveSent { .. } => self.ihave_entries += 1,
            GoCastEvent::LinkDropped { .. } => self.link_drops += 1,
            GoCastEvent::TopicDelivered { bytes, .. } => {
                self.topic_payload_bytes += u64::from(*bytes)
            }
            GoCastEvent::DeltaPublished { topic, counter } => {
                self.mutations.insert((*topic, node, *counter), (now, now));
            }
            GoCastEvent::DeltaApplied {
                topic,
                origin,
                counter,
            } => {
                if let Some(m) = self.mutations.get_mut(&(*topic, *origin, *counter)) {
                    m.1 = now;
                }
            }
            _ => {}
        }
    }

    /// Compares what was delivered with what was owed: `owed(id)` is the
    /// set of nodes that should hold `id` (the origin may be in it; it
    /// never delivers to itself and is not counted).
    pub fn audit<'a>(&self, owed: impl Fn(MsgId) -> &'a NodeSet) -> Audit {
        let mut a = Audit {
            duplicates: self.duplicates,
            unknown: self.unknown,
            ..Audit::default()
        };
        for (id, msg) in &self.msgs {
            let mut want = owed(*id).clone();
            want.words[id.origin.index() / 64] &= !(1u64 << (id.origin.index() % 64));
            a.expected += want.len();
            a.missing += want.minus(&msg.got);
            a.extra += msg.got.minus(&want);
        }
        a
    }

    /// Deliveries made within `deadline` of their send.
    pub fn on_time(&self, deadline: Duration) -> u64 {
        let limit = deadline.as_nanos() as u64;
        self.delays_ns.iter().filter(|d| **d <= limit).count() as u64
    }

    /// Sorts the delays and summarises them.
    pub fn delay_summary(&mut self) -> DelaySummary {
        DelaySummary::of(&mut self.delays_ns)
    }

    /// Moves `other`'s delays and counters into `self`; the pairs it
    /// tracked stay behind (audit each part before pooling).
    pub fn pool(&mut self, mut other: Tally) {
        self.delays_ns.append(&mut other.delays_ns);
        self.deliveries += other.deliveries;
        self.hops += other.hops;
        self.pulled += other.pulled;
        self.redundant += other.redundant;
        self.ihave_entries += other.ihave_entries;
        self.link_drops += other.link_drops;
    }

    /// 99th percentile of publish → last-replica-apply delay over CRDT
    /// mutations, ms (0 without mutations).
    pub fn crdt_converge_p99_ms(&self) -> f64 {
        let mut spans: Vec<u64> = self
            .mutations
            .values()
            .map(|(published, applied)| applied.as_nanos() - published.as_nanos())
            .collect();
        spans.sort_unstable();
        quantile_sorted(&spans, 0.99) as f64 / 1e6
    }
}

/// Delay distribution of one run.
#[derive(Debug, Clone, Copy)]
pub struct DelaySummary {
    pub n: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// `(percentile, value ms)` of the highest reportable percentile.
    pub top: Option<(f64, f64)>,
    pub max_ms: f64,
}

impl DelaySummary {
    /// Sorts `delays_ns` and summarises it: n, the median, the highest
    /// percentile with at least ten samples beyond it, and the maximum.
    pub fn of(delays_ns: &mut [u64]) -> DelaySummary {
        delays_ns.sort_unstable();
        let d = &*delays_ns;
        let ms = |ns: u64| ns as f64 / 1e6;
        DelaySummary {
            n: d.len(),
            p50_ms: ms(quantile_sorted(d, 0.5)),
            p99_ms: ms(quantile_sorted(d, 0.99)),
            top: top_percentile(d.len()).map(|p| (p, ms(quantile_sorted(d, p)))),
            max_ms: ms(d.last().copied().unwrap_or(0)),
        }
    }
}

impl std::fmt::Display for DelaySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} p50={:.4} ms", self.n, self.p50_ms)?;
        if let Some((p, v)) = self.top {
            // 0.99999 → "99.999": round away the binary representation.
            write!(f, " p{}={:.4} ms", (p * 1e5).round() / 1e3, v)?;
        }
        write!(f, " max={:.4} ms", self.max_ms)
    }
}

/// Every n-th call of a tiny operation is timed; the rest only counted.
pub const SAMPLE_EVERY: u64 = 16;

/// Event count and sampled time of the traced recorder's three stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecorderClock {
    pub events: u64,
    sampled: u64,
    tally_ns: u64,
    oracle_ns: u64,
    tracker_ns: u64,
}

impl RecorderClock {
    /// What was added since `earlier`.
    pub fn since(&self, earlier: &RecorderClock) -> RecorderClock {
        RecorderClock {
            events: self.events - earlier.events,
            sampled: self.sampled - earlier.sampled,
            tally_ns: self.tally_ns - earlier.tally_ns,
            oracle_ns: self.oracle_ns - earlier.oracle_ns,
            tracker_ns: self.tracker_ns - earlier.tracker_ns,
        }
    }

    /// Mean ns per event spent in `(tally, oracle, tracker)`, from the
    /// timed sample, net of `clock_ns` (the cost of reading the clock).
    pub fn ns_per_event(&self, clock_ns: f64) -> (f64, f64, f64) {
        let per = |total: u64| {
            if self.sampled == 0 {
                0.0
            } else {
                (total as f64 / self.sampled as f64 - clock_ns).max(0.0)
            }
        };
        (
            per(self.tally_ns),
            per(self.oracle_ns),
            per(self.tracker_ns),
        )
    }
}

/// What a traced run adds to the recorder: the invariant oracle and the
/// repository's own delivery tracker, each timed on every 16th event.
#[derive(Debug)]
pub struct TraceExtras {
    pub oracle: InvariantOracle,
    tracker: MetricsRecorder,
    pub clock: RecorderClock,
}

/// The [`Recorder`] every simulated workload installs.
#[derive(Debug)]
pub struct BenchRecorder {
    pub tally: Tally,
    pub extras: Option<Box<TraceExtras>>,
}

impl BenchRecorder {
    pub fn new(nodes: usize, trace: Option<&GoCastConfig>) -> BenchRecorder {
        BenchRecorder {
            tally: Tally::new(nodes),
            extras: trace.map(|cfg| {
                Box::new(TraceExtras {
                    oracle: InvariantOracle::for_protocol(cfg),
                    tracker: MetricsRecorder::new(),
                    clock: RecorderClock::default(),
                })
            }),
        }
    }
}

impl BenchRecorder {
    /// The traced recorder's event count and sampled times (zero when
    /// the run is not traced).
    pub fn clock(&self) -> RecorderClock {
        self.extras.as_ref().map(|x| x.clock).unwrap_or_default()
    }

    /// Closes the invariant oracle of a traced run and returns its check.
    pub fn finish_oracle(&mut self) -> Option<(String, bool)> {
        self.extras.as_mut().map(|x| oracle_check(&mut x.oracle))
    }
}

/// Closes `oracle` and renders its verdict as a check line.
pub fn oracle_check(oracle: &mut InvariantOracle) -> (String, bool) {
    oracle.finish();
    let first = oracle
        .violations()
        .first()
        .map_or(String::new(), |v| format!("; first: {v}"));
    (
        format!(
            "invariant oracle: {} violations over {} records{first}",
            oracle.violations().len(),
            oracle.records_checked()
        ),
        oracle.is_clean(),
    )
}

impl Recorder<GoCastEvent> for BenchRecorder {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        let Some(x) = &mut self.extras else {
            self.tally.observe(now, node, &event, true);
            return;
        };
        x.clock.events += 1;
        if !x.clock.events.is_multiple_of(SAMPLE_EVERY) {
            self.tally.observe(now, node, &event, true);
            x.oracle.record(now, node, event.clone());
            x.tracker.record(now, node, event);
            return;
        }
        let t0 = now_ns();
        self.tally.observe(now, node, &event, true);
        let t1 = now_ns();
        x.oracle.record(now, node, event.clone());
        let t2 = now_ns();
        x.tracker.record(now, node, event);
        let t3 = now_ns();
        x.clock.sampled += 1;
        x.clock.tally_ns += t1 - t0;
        x.clock.oracle_ns += t2 - t1;
        x.clock.tracker_ns += t3 - t2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: u32, seq: u32) -> MsgId {
        MsgId::new(NodeId::new(origin), seq)
    }

    fn deliver(t: &mut Tally, at_ms: u64, node: u32, msg: MsgId) {
        let ev = GoCastEvent::Delivered {
            id: msg,
            via: DeliveryPath::Tree,
            from: msg.origin,
            hop: 1,
        };
        t.observe(SimTime::from_millis(at_ms), NodeId::new(node), &ev, true);
    }

    #[test]
    fn audit_counts_missing_extra_and_duplicates() {
        let mut t = Tally::new(4);
        t.track(id(0, 0), SimTime::ZERO);
        let all = NodeSet::from_nodes(4, (0..4).map(NodeId::new));
        deliver(&mut t, 5, 1, id(0, 0));
        deliver(&mut t, 7, 2, id(0, 0));
        let a = t.audit(|_| &all);
        assert_eq!((a.expected, a.missing, a.extra), (3, 1, 0));
        assert!(!a.exact());
        deliver(&mut t, 9, 3, id(0, 0));
        assert!(t.audit(|_| &all).exact());
        deliver(&mut t, 9, 3, id(0, 0)); // second copy to node 3
        deliver(&mut t, 9, 3, id(2, 9)); // a message nobody sent
        let a = t.audit(|_| &all);
        assert_eq!((a.duplicates, a.unknown), (1, 1));
        assert_eq!(t.deliveries, 3, "duplicates are not deliveries");
        // Node 3 was not owed the message: one extra, nothing missing.
        let some = NodeSet::from_nodes(4, [0, 1, 2].map(NodeId::new));
        let a = t.audit(|_| &some);
        assert_eq!((a.expected, a.missing, a.extra), (2, 0, 1));
    }

    #[test]
    fn delays_are_timed_from_the_tracked_send() {
        let mut t = Tally::new(3);
        t.track(id(0, 0), SimTime::from_millis(10));
        deliver(&mut t, 14, 1, id(0, 0));
        deliver(&mut t, 40, 2, id(0, 0));
        assert_eq!(t.on_time(Duration::from_millis(20)), 1);
        let s = t.delay_summary();
        assert_eq!((s.n, s.p50_ms, s.max_ms), (2, 4.0, 30.0));
        assert!(s.top.is_none(), "two samples support no percentile");
    }
}
