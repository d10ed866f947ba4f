//! Streaming run metrics: the run's one ledger.
//!
//! Two layers, both implementing [`Recorder<GoCastEvent>`] and both
//! memory-bounded:
//!
//! - [`DeliveryTracker`] is the only place a run counts what happened to
//!   its messages: injections, first deliveries (tree or pull, hop
//!   counts, per-node latency aggregates and an all-delays
//!   [`Log2Histogram`]), redundant payloads, pushes, IHAVE entries,
//!   pulls requested and served, and per-message delivery counts in
//!   injection order for windowed delivery ratios. State is
//!   O(nodes + messages), never O(deliveries).
//! - [`MetricsRecorder`] is the run's one counting recorder: a
//!   `DeliveryTracker` plus link churn per second, [`OrphanTracker`]
//!   spells and the application ledger ([`ConvergenceTracker`]), all fed
//!   by one fold.
//!
//! They produce exactly the quantities the paper's figures plot:
//!
//! - per-(node, message) delivery delays and their distribution
//!   (Figures 3, 4);
//! - per-node *average* delay and completeness (nodes that missed a
//!   message are reported separately — the reason the paper's gossip
//!   curves saturate below 1.0);
//! - redundancy (§2.1's 1.02 factor) and pull counts;
//! - delivery ratio over injection time and tree detachment around
//!   faults (§4–§5);
//! - the link-churn time series (Figure 5, §3 summary (1)).
//!
//! A test that needs the raw event stream records into a `VecRecorder`
//! (or a `(tracker, VecRecorder)` tuple) — see `gocast_sim::recorder`.

use std::collections::HashMap;
use std::time::Duration;

use gocast::{DeliveryPath, GoCastEvent, MsgId};
use gocast_sim::{Log2Histogram, NodeId, Recorder, SimTime};

use crate::convergence::ConvergenceTracker;
use crate::stats::Cdf;

#[derive(Debug, Clone, Copy, Default)]
struct NodeAgg {
    delay_sum: Duration,
    received: u64,
    /// Messages this node originated (it trivially "has" them at delay 0).
    originated: u64,
    max_delay: Duration,
}

/// Causal hop depths the ledger counts separately; deeper deliveries share
/// the last bucket.
pub const HOP_BUCKETS: usize = 64;

/// Deliveries per causal hop, indexed by `hop.min(HOP_BUCKETS - 1)` (a
/// newtype only because `Default` is not derived for arrays past 32).
#[derive(Debug, Clone, Copy)]
struct HopCounts([u64; HOP_BUCKETS]);

impl Default for HopCounts {
    fn default() -> Self {
        HopCounts([0; HOP_BUCKETS])
    }
}

/// The run's delivery ledger: every count of what happened to its
/// messages, folded in online via [`Recorder::record`].
///
/// Holds O(nodes + messages) state regardless of how many deliveries the
/// run produces. Per message it keeps `(id, injected_at, deliveries)` in
/// injection order, which is what [`DeliveryTracker::windowed_ratios`]
/// buckets after the run; expected counts are supplied then (they depend
/// on which nodes were present, which the scenario plan knows).
///
/// ```
/// use gocast::{DeliveryPath, GoCastEvent, MsgId};
/// use gocast_analysis::DeliveryTracker;
/// use gocast_sim::{NodeId, Recorder, SimTime};
/// use std::time::Duration;
///
/// let mut tracker = DeliveryTracker::new();
/// assert_eq!(tracker.injections().count(), 0);
/// let id = MsgId::new(NodeId::new(0), 0);
/// tracker.record(SimTime::ZERO, NodeId::new(0), GoCastEvent::Injected { id });
/// let via = DeliveryPath::Tree;
/// let delivered = GoCastEvent::Delivered { id, via, from: NodeId::new(0), hop: 1 };
/// tracker.record(SimTime::from_millis(30), NodeId::new(1), delivered);
/// let windows = tracker.windowed_ratios(Duration::from_secs(5), |_, _| 2);
/// assert_eq!(windows.len(), 1);
/// assert_eq!(windows[0].ratio(), 0.5);
/// ```
#[derive(Debug, Default)]
pub struct DeliveryTracker {
    /// `MsgId` → position in `msgs`; the first injection of an id wins.
    index: HashMap<MsgId, usize>,
    /// Per message, in injection order: `(id, injected_at, deliveries)`.
    msgs: Vec<(MsgId, SimTime, u64)>,
    per_node: Vec<NodeAgg>,
    /// Every delivery delay, in nanoseconds.
    delays: Log2Histogram,
    injected: u64,
    delivered: u64,
    redundant: u64,
    pushes: u64,
    ihaves: u64,
    pulls: u64,
    pulls_served: u64,
    hop_sum: u64,
    hop_counts: HopCounts,
    delivered_via_tree: u64,
    pull_deliveries: u64,
}

impl DeliveryTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        DeliveryTracker::default()
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeAgg {
        let i = node.index();
        if self.per_node.len() <= i {
            self.per_node.resize(i + 1, NodeAgg::default());
        }
        &mut self.per_node[i]
    }

    /// Number of `Injected` events.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total first deliveries across nodes.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Redundant full-payload receptions.
    pub fn redundant(&self) -> u64 {
        self.redundant
    }

    /// Average number of times a node received each message
    /// (`1 + redundant/delivered`; the paper reports 1.02).
    pub fn redundancy_factor(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        1.0 + self.redundant as f64 / self.delivered as f64
    }

    /// Fraction of deliveries that arrived over a tree link.
    pub fn tree_fraction(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.delivered_via_tree as f64 / self.delivered as f64
    }

    /// Full payloads pushed to tree (or eager) neighbors.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Message ids advertised in gossip (IHAVE) digests, one per entry.
    pub fn ihaves(&self) -> u64 {
        self.ihaves
    }

    /// Pull requests issued.
    pub fn pulls(&self) -> u64 {
        self.pulls
    }

    /// Pull requests answered with the payload.
    pub fn pulls_served(&self) -> u64 {
        self.pulls_served
    }

    /// Sum of causal hop counts over deliveries that carried one.
    pub fn hop_sum(&self) -> u64 {
        self.hop_sum
    }

    /// Deliveries carrying a nonzero hop count.
    pub fn hops(&self) -> u64 {
        self.hop_counts.0[1..].iter().sum()
    }

    /// Deliveries per causal hop: entry `h` counts hop `h`, the last entry
    /// every hop from `HOP_BUCKETS - 1` on.
    pub fn hop_counts(&self) -> &[u64; HOP_BUCKETS] {
        &self.hop_counts.0
    }

    /// Deliveries recovered via pull/graft (not the primary push path).
    pub fn pull_deliveries(&self) -> u64 {
        self.pull_deliveries
    }

    /// Mean causal hop count over deliveries that carried one
    /// (`hop_sum / hops`; 0 with none).
    pub fn mean_hops(&self) -> f64 {
        match self.hops() {
            0 => 0.0,
            n => self.hop_sum as f64 / n as f64,
        }
    }

    /// The deepest hop bucket holding a delivery (0 with none).
    pub fn max_hop(&self) -> usize {
        self.hop_counts.0.iter().rposition(|&n| n > 0).unwrap_or(0)
    }

    /// Fraction of deliveries that needed the recovery path (gossip pull
    /// for GoCast, IHAVE-triggered graft for Plumtree) rather than the
    /// primary push — the paper's tree-vs-gossip split (0 with none).
    pub fn recovery_fraction(&self) -> f64 {
        match self.delivered {
            0 => 0.0,
            d => self.pull_deliveries as f64 / d as f64,
        }
    }

    /// Streaming distribution over every (node, message) delivery delay,
    /// in nanoseconds: exact count, sum, min and max, and quantiles at
    /// most 1/32 high (see [`Log2Histogram`]). Exported as
    /// `proto_delay_ns`.
    pub fn delay_histogram(&self) -> &Log2Histogram {
        &self.delays
    }

    /// Per-node average delivery delay (the paper's Figure 3 metric).
    ///
    /// Every node that received at least one message contributes the
    /// average delay over the messages it *did* receive; the second return
    /// value counts nodes that missed at least one of the `expected`
    /// messages (self-originated messages count as obtained) — the reason
    /// the paper's gossip curves saturate below 1.0.
    ///
    /// This is exact O(nodes) math on streamed sums, so the figure CSVs
    /// built from it are byte-identical to post-hoc computation.
    pub fn per_node_average_delays(&self, expected: u64, nodes: &[NodeId]) -> (Cdf, usize) {
        let mut avgs = Vec::new();
        let mut incomplete = 0;
        for &id in nodes {
            let agg = self.per_node.get(id.index()).copied().unwrap_or_default();
            if agg.received + agg.originated < expected || expected == 0 {
                incomplete += 1;
            }
            if agg.received > 0 {
                avgs.push(agg.delay_sum / agg.received as u32);
            }
        }
        (Cdf::from_durations(avgs), incomplete)
    }

    /// Messages received by `node`.
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.per_node
            .get(node.index())
            .map(|a| a.received)
            .unwrap_or(0)
    }

    /// `(id, injection time)` for every distinct injected id, in order.
    pub fn injections(&self) -> impl Iterator<Item = (MsgId, SimTime)> + '_ {
        self.msgs.iter().map(|&(id, at, _)| (id, at))
    }

    /// Observed delivery count for `id` (0 if never injected).
    pub fn deliveries_of(&self, id: MsgId) -> u64 {
        self.index.get(&id).map_or(0, |&i| self.msgs[i].2)
    }

    /// Buckets messages into injection-time windows of width `window` and
    /// returns one [`WindowRatio`] per non-empty span, in time order.
    /// `expected` supplies the number of deliveries each message *should*
    /// have seen (e.g. nodes present at injection and until the end of
    /// the run, minus the origin); it is asked once per message, in
    /// injection order.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn windowed_ratios(
        &self,
        window: Duration,
        mut expected: impl FnMut(MsgId, SimTime) -> u64,
    ) -> Vec<WindowRatio> {
        assert!(window > Duration::ZERO, "window must be positive");
        let Some(&(_, first, _)) = self.msgs.first() else {
            return Vec::new();
        };
        let mut out: Vec<WindowRatio> = Vec::new();
        for &(id, at, delivered) in &self.msgs {
            let bucket = (at.saturating_since(first).as_nanos() / window.as_nanos()) as u64;
            let start = first + window * bucket as u32;
            if out.last().map(|w| w.start) != Some(start) {
                out.push(WindowRatio {
                    start,
                    injected: 0,
                    expected: 0,
                    delivered: 0,
                });
            }
            let w = out.last_mut().expect("window pushed above");
            w.injected += 1;
            w.expected += expected(id, at);
            w.delivered += delivered;
        }
        out
    }
}

impl Recorder<GoCastEvent> for DeliveryTracker {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        match event {
            GoCastEvent::Injected { id } => {
                self.injected += 1;
                self.index.entry(id).or_insert_with(|| {
                    self.msgs.push((id, now, 0));
                    self.msgs.len() - 1
                });
                self.node_mut(node).originated += 1;
            }
            GoCastEvent::Delivered { id, via, hop, .. } => {
                self.delivered += 1;
                match via {
                    DeliveryPath::Tree => self.delivered_via_tree += 1,
                    DeliveryPath::Pull => self.pull_deliveries += 1,
                    DeliveryPath::Local => {}
                }
                self.hop_sum += u64::from(hop);
                self.hop_counts.0[(hop as usize).min(HOP_BUCKETS - 1)] += 1;
                if let Some(&i) = self.index.get(&id) {
                    let (_, t0, deliveries) = &mut self.msgs[i];
                    *deliveries += 1;
                    let delay = now.saturating_since(*t0);
                    self.delays
                        .observe(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
                    let agg = self.node_mut(node);
                    agg.delay_sum += delay;
                    agg.received += 1;
                    agg.max_delay = agg.max_delay.max(delay);
                }
            }
            GoCastEvent::RedundantData { .. } => self.redundant += 1,
            GoCastEvent::PushSent { .. } => self.pushes += 1,
            GoCastEvent::IHaveSent { .. } => self.ihaves += 1,
            GoCastEvent::PullRequested { .. } => self.pulls += 1,
            GoCastEvent::PullServed { .. } => self.pulls_served += 1,
            GoCastEvent::ParentChanged { .. }
            | GoCastEvent::BecameRoot { .. }
            | GoCastEvent::LinkAdded { .. }
            | GoCastEvent::LinkDropped { .. }
            | GoCastEvent::TopicDelivered { .. }
            | GoCastEvent::TopicSubscribed { .. }
            | GoCastEvent::TopicUnsubscribed { .. }
            | GoCastEvent::DeltaPublished { .. }
            | GoCastEvent::DeltaApplied { .. } => {}
        }
    }
}

/// One injection-time window of delivery-ratio accounting (see
/// [`DeliveryTracker::windowed_ratios`]).
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

/// Orphaned-node accounting: how long nodes spend detached from the
/// dissemination tree, as [`MetricsRecorder`] folds it.
///
/// A spell opens when a node reports `ParentChanged { parent: None }`
/// (detached) and closes when it adopts a parent or becomes root. Spells
/// still open at the end of a run are closed by
/// [`MetricsRecorder::finish`]. Memory is O(nodes).
#[derive(Debug, Default)]
pub struct OrphanTracker {
    /// Per node: when the current orphan spell began, if any.
    since: Vec<Option<SimTime>>,
    spells: u64,
    total: Duration,
    max_spell: Duration,
}

impl OrphanTracker {
    fn detach(&mut self, node: NodeId, now: SimTime) {
        let i = node.index();
        if self.since.len() <= i {
            self.since.resize(i + 1, None);
        }
        self.since[i].get_or_insert(now);
    }

    fn attach(&mut self, node: NodeId, now: SimTime) {
        if let Some(start) = self.since.get_mut(node.index()).and_then(Option::take) {
            let d = now.saturating_since(start);
            self.spells += 1;
            self.total += d;
            self.max_spell = self.max_spell.max(d);
        }
    }

    /// Number of orphan spells observed (closed spells only).
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

/// The run's one counting recorder: the [`DeliveryTracker`], link
/// changes per second of simulated time, [`OrphanTracker`] spells and
/// the application ledger ([`ConvergenceTracker`]), all folded by one
/// [`Recorder::record`].
///
/// Peak recorder state is O(nodes + messages + mutations + seconds of
/// sim time).
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    delivery: DeliveryTracker,
    /// Link adds + drops per second, up to the last second that had one.
    link_changes: Vec<u64>,
    orphans: OrphanTracker,
    app: ConvergenceTracker,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// The delivery-side aggregates.
    pub fn delivery(&self) -> &DeliveryTracker {
        &self.delivery
    }

    /// Link changes (adds + drops, summed over nodes — each endpoint
    /// counts) bucketed per second from sim time zero. Trailing seconds
    /// with no change are absent, not zero.
    pub fn link_changes_per_sec(&self) -> &[u64] {
        &self.link_changes
    }

    /// Tree-detachment spells.
    pub fn orphans(&self) -> &OrphanTracker {
        &self.orphans
    }

    /// The application tier's goodput, staleness and convergence ledger.
    pub fn app(&self) -> &ConvergenceTracker {
        &self.app
    }

    /// Closes every still-open orphan spell at `now`, the end of the run.
    pub fn finish(&mut self, now: SimTime) {
        for i in 0..self.orphans.since.len() {
            self.orphans.attach(NodeId::new(i as u32), now);
        }
    }
}

impl Recorder<GoCastEvent> for MetricsRecorder {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        match event {
            GoCastEvent::LinkAdded { .. } | GoCastEvent::LinkDropped { .. } => {
                let second = (now.as_nanos() / 1_000_000_000) as usize;
                if self.link_changes.len() <= second {
                    self.link_changes.resize(second + 1, 0);
                }
                self.link_changes[second] += 1;
            }
            GoCastEvent::ParentChanged { parent: None } => self.orphans.detach(node, now),
            GoCastEvent::ParentChanged { parent: Some(_) } | GoCastEvent::BecameRoot { .. } => {
                self.orphans.attach(node, now)
            }
            GoCastEvent::TopicDelivered { topic, bytes, .. } => {
                self.app.on_topic_delivery(topic, bytes)
            }
            GoCastEvent::DeltaPublished { topic, counter } => {
                self.app.on_publish(now, topic, node, counter)
            }
            GoCastEvent::DeltaApplied {
                topic,
                origin,
                counter,
            } => self.app.on_apply(now, topic, origin, counter),
            GoCastEvent::TopicSubscribed { .. } => self.app.subscribes += 1,
            GoCastEvent::TopicUnsubscribed { .. } => self.app.unsubscribes += 1,
            _ => {}
        }
        self.delivery.record(now, node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u32) -> MsgId {
        MsgId::new(NodeId::new(0), seq)
    }

    #[test]
    fn tracks_delays_and_redundancy() {
        let mut m = MetricsRecorder::new();
        m.record(
            SimTime::from_millis(0),
            NodeId::new(0),
            GoCastEvent::Injected { id: id(1) },
        );
        m.record(
            SimTime::from_millis(50),
            NodeId::new(1),
            GoCastEvent::Delivered {
                id: id(1),
                via: DeliveryPath::Tree,
                from: NodeId::new(0),
                hop: 1,
            },
        );
        m.record(
            SimTime::from_millis(150),
            NodeId::new(2),
            GoCastEvent::Delivered {
                id: id(1),
                via: DeliveryPath::Pull,
                from: NodeId::new(1),
                hop: 2,
            },
        );
        m.record(
            SimTime::from_millis(160),
            NodeId::new(2),
            GoCastEvent::RedundantData {
                id: id(1),
                from: NodeId::new(0),
            },
        );
        let d = m.delivery();
        assert_eq!(d.injected(), 1);
        assert_eq!(d.delivered(), 2);
        assert_eq!(d.redundant(), 1);
        assert!((d.redundancy_factor() - 1.5).abs() < 1e-12);
        assert!((d.tree_fraction() - 0.5).abs() < 1e-12);
        assert_eq!((d.hop_sum(), d.hops(), d.pull_deliveries()), (3, 2, 1));
        assert_eq!(d.hop_counts()[..3], [0, 1, 1]);
        assert_eq!(
            (d.mean_hops(), d.max_hop(), d.recovery_fraction()),
            (1.5, 2, 0.5)
        );
        assert_eq!(d.deliveries_of(id(1)), 2);
        let h = d.delay_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 150_000_000);
    }

    #[test]
    fn per_node_average_and_completeness() {
        let mut m = MetricsRecorder::new();
        for seq in 0..2 {
            m.record(
                SimTime::ZERO,
                NodeId::new(0),
                GoCastEvent::Injected { id: id(seq) },
            );
        }
        // Node 1 receives both; node 2 only one.
        for (seq, ms) in [(0, 10u64), (1, 30)] {
            m.record(
                SimTime::from_millis(ms),
                NodeId::new(1),
                GoCastEvent::Delivered {
                    id: id(seq),
                    via: DeliveryPath::Tree,
                    from: NodeId::new(0),
                    hop: 1,
                },
            );
        }
        m.record(
            SimTime::from_millis(40),
            NodeId::new(2),
            GoCastEvent::Delivered {
                id: id(0),
                via: DeliveryPath::Tree,
                from: NodeId::new(0),
                hop: 1,
            },
        );
        let nodes = [NodeId::new(1), NodeId::new(2)];
        let (cdf, incomplete) = m.delivery().per_node_average_delays(2, &nodes);
        assert_eq!(incomplete, 1, "node 2 missed one message");
        assert_eq!(cdf.len(), 2, "both nodes contribute an average");
        assert_eq!(cdf.min(), Duration::from_millis(20)); // node 1: (10+30)/2
        assert_eq!(cdf.max(), Duration::from_millis(40)); // node 2: 40/1
        assert_eq!(m.delivery().received_by(NodeId::new(2)), 1);
    }

    #[test]
    fn link_churn_buckets_by_second() {
        let mut m = MetricsRecorder::new();
        // Other events open no bucket: the series starts empty.
        m.record(
            SimTime::from_secs(9),
            NodeId::new(0),
            GoCastEvent::Injected { id: id(0) },
        );
        assert!(m.link_changes_per_sec().is_empty());
        let peer = NodeId::new(1);
        let kind = gocast::LinkKind::Random;
        for t in [0u64, 300, 999, 3400] {
            m.record(
                SimTime::from_millis(t),
                NodeId::new(0),
                GoCastEvent::LinkAdded { peer, kind },
            );
        }
        let reason = gocast::DropReason::Surplus;
        let dropped = GoCastEvent::LinkDropped { peer, kind, reason };
        m.record(SimTime::from_millis(1000), NodeId::new(1), dropped);
        // Empty seconds inside the series are zero; trailing ones absent.
        assert_eq!(m.link_changes_per_sec(), &[3, 1, 0, 1]);
        // Link events don't leak into the delivery tracker.
        assert_eq!(m.delivery().injected(), 1);
    }

    #[test]
    fn orphan_spells_open_and_close() {
        let mut m = MetricsRecorder::new();
        let n = NodeId::new(4);
        let detach = |m: &mut MetricsRecorder, s| {
            m.record(
                SimTime::from_secs(s),
                n,
                GoCastEvent::ParentChanged { parent: None },
            )
        };
        let attach = |m: &mut MetricsRecorder, s| {
            m.record(
                SimTime::from_secs(s),
                n,
                GoCastEvent::ParentChanged {
                    parent: Some(NodeId::new(0)),
                },
            )
        };
        detach(&mut m, 10);
        detach(&mut m, 12); // redundant detach does not restart the spell
        assert_eq!(m.orphans().open_orphans(), 1);
        attach(&mut m, 15);
        assert_eq!(m.orphans().spells(), 1);
        assert_eq!(m.orphans().total_orphan_time(), Duration::from_secs(5));
        detach(&mut m, 20);
        m.record(
            SimTime::from_secs(21),
            n,
            GoCastEvent::BecameRoot { epoch: 1 },
        );
        assert_eq!(m.orphans().spells(), 2);
        assert_eq!(m.orphans().max_spell(), Duration::from_secs(5));
        assert_eq!(m.orphans().mean_spell(), Duration::from_secs(3));
        // An attach with no open spell, even past every known node, is
        // ignored; finish() closes open spells.
        attach(&mut m, 25);
        m.record(
            SimTime::from_secs(25),
            NodeId::new(99),
            GoCastEvent::BecameRoot { epoch: 2 },
        );
        assert_eq!(m.orphans().spells(), 2);
        detach(&mut m, 30);
        m.finish(SimTime::from_secs(40));
        assert_eq!(m.orphans().spells(), 3);
        assert_eq!(m.orphans().max_spell(), Duration::from_secs(10));
        assert_eq!(m.orphans().open_orphans(), 0);
    }

    #[test]
    fn empty_recorder_is_sane() {
        let m = MetricsRecorder::new();
        assert_eq!(m.delivery().redundancy_factor(), 0.0);
        assert_eq!(m.delivery().tree_fraction(), 0.0);
        assert_eq!(m.delivery().mean_hops(), 0.0);
        assert_eq!(m.delivery().max_hop(), 0);
        assert_eq!(m.delivery().recovery_fraction(), 0.0);
        assert_eq!(m.delivery().delay_histogram().count(), 0);
    }

    #[test]
    fn standalone_tracker_matches_composite() {
        let mut t = DeliveryTracker::new();
        let mut m = MetricsRecorder::new();
        let events = [
            (0u64, 0u32, GoCastEvent::Injected { id: id(0) }),
            (
                25,
                1,
                GoCastEvent::Delivered {
                    id: id(0),
                    via: DeliveryPath::Tree,
                    from: NodeId::new(0),
                    hop: 1,
                },
            ),
            (
                30,
                2,
                GoCastEvent::Delivered {
                    id: id(0),
                    via: DeliveryPath::Pull,
                    from: NodeId::new(1),
                    hop: 2,
                },
            ),
        ];
        for (ms, node, ev) in events {
            t.record(SimTime::from_millis(ms), NodeId::new(node), ev.clone());
            m.record(SimTime::from_millis(ms), NodeId::new(node), ev);
        }
        let d = m.delivery();
        assert_eq!(t.delivered(), d.delivered());
        assert_eq!(t.delay_histogram().mean(), d.delay_histogram().mean());
        assert_eq!(t.tree_fraction(), d.tree_fraction());
    }

    fn inject(t: &mut DeliveryTracker, now_s: u64, origin: u32, seq: u32) -> MsgId {
        let id = MsgId::new(NodeId::new(origin), seq);
        t.record(
            SimTime::from_secs(now_s),
            NodeId::new(origin),
            GoCastEvent::Injected { id },
        );
        id
    }

    fn deliver(t: &mut DeliveryTracker, now_s: u64, node: u32, id: MsgId) {
        t.record(
            SimTime::from_secs(now_s),
            NodeId::new(node),
            GoCastEvent::Delivered {
                id,
                via: DeliveryPath::Tree,
                from: id.origin,
                hop: 1,
            },
        );
    }

    #[test]
    fn windows_bucket_by_injection_time() {
        let mut t = DeliveryTracker::new();
        let a = inject(&mut t, 0, 0, 0);
        let b = inject(&mut t, 3, 1, 0);
        let c = inject(&mut t, 15, 2, 0);
        // A repeated injection keeps the first injection time.
        inject(&mut t, 40, 0, 0);
        for n in 1..4 {
            deliver(&mut t, 1, n, a);
        }
        deliver(&mut t, 4, 0, b);
        deliver(&mut t, 16, 0, c);
        deliver(&mut t, 16, 1, c);
        assert_eq!(t.injections().count(), 3);
        assert_eq!(t.injections().next(), Some((a, SimTime::ZERO)));
        assert_eq!(t.deliveries_of(a), 3);
        let windows = t.windowed_ratios(Duration::from_secs(10), |_, _| 3);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start, SimTime::from_secs(0));
        assert_eq!(windows[0].injected, 2);
        assert_eq!(windows[0].expected, 6);
        assert_eq!(windows[0].delivered, 4);
        assert_eq!(windows[1].start, SimTime::from_secs(10));
        assert_eq!(windows[1].delivered, 2);
        assert!((windows[0].ratio() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_deliveries_and_empty_tracker_are_harmless() {
        let mut t = DeliveryTracker::new();
        let stranger = MsgId::new(NodeId::new(9), 9);
        deliver(&mut t, 1, 0, stranger);
        assert_eq!(t.injections().count(), 0);
        assert_eq!(t.deliveries_of(stranger), 0);
        assert!(t
            .windowed_ratios(Duration::from_secs(1), |_, _| 1)
            .is_empty());
        // The delivery is still counted; it just has no delay to report.
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.delay_histogram().count(), 0);
    }

    #[test]
    fn a_hostile_hop_lands_in_the_last_bucket() {
        let mut t = DeliveryTracker::new();
        let hostile = GoCastEvent::Delivered {
            id: id(0),
            via: DeliveryPath::Tree,
            from: NodeId::new(0),
            hop: u32::MAX,
        };
        t.record(SimTime::ZERO, NodeId::new(1), hostile);
        assert_eq!(t.hop_counts()[HOP_BUCKETS - 1], 1);
        assert_eq!(t.hop_counts().iter().sum::<u64>(), 1);
        assert_eq!((t.hops(), t.hop_sum()), (1, u64::from(u32::MAX)));
        assert_eq!(t.max_hop(), HOP_BUCKETS - 1);
    }
}
