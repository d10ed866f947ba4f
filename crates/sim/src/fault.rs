//! The network fault vocabulary ([`NetFault`]), the one place that
//! remembers it ([`FaultState`]) and the one count of what it stopped
//! ([`NetFates`]), shared by the simulation kernel and the testnet fabric.

use std::sync::Arc;
use std::time::Duration;

use gocast_metrics::Snapshot;

use crate::hash::mix;
use crate::id::NodeId;
use crate::worker::GOLDEN;

/// One change to the network's fault state.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFault {
    /// Cut the (bidirectional) network path between two nodes.
    CutLink(NodeId, NodeId),
    /// Restore a previously cut path.
    HealLink(NodeId, NodeId),
    /// Install a partition: a side label per node; messages between nodes
    /// with different labels are dropped. Replaces any active partition.
    /// The labels are shared, not copied, by every replica that applies
    /// the fault.
    Partition(Arc<Vec<u32>>),
    /// Remove the active partition (no-op when none is active).
    HealPartition,
    /// Set the per-message loss probability (`0.0..=1.0`) for sends
    /// between distinct nodes.
    SetLoss(f64),
    /// Set the maximum extra one-way latency for sends between distinct
    /// nodes; each message draws uniformly from `[0, jitter]`.
    SetJitter(Duration),
}

impl NetFault {
    /// A [`NetFault::Partition`] over the given side labels.
    pub fn partition(sides: Vec<u32>) -> Self {
        NetFault::Partition(Arc::new(sides))
    }
}

/// What became of the messages the network did not deliver, one count per
/// fate: every send is delivered or meets exactly one of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFates {
    /// Lost to injected loss ([`NetFault::SetLoss`]), at send.
    pub lost: u64,
    /// Stopped on a cut link.
    pub cut: u64,
    /// Stopped at the active partition.
    pub partitioned: u64,
    /// Sent by or to a crashed node.
    pub dead: u64,
}

impl NetFates {
    /// Adds another replica's counts into this one.
    pub fn merge(&mut self, other: &NetFates) {
        self.lost += other.lost;
        self.cut += other.cut;
        self.partitioned += other.partitioned;
        self.dead += other.dead;
    }

    /// Messages the network did not deliver, whatever the fate.
    pub fn total(&self) -> u64 {
        self.lost + self.cut + self.partitioned + self.dead
    }

    /// Appends the four counts to `snap` under the `net_*` names every
    /// host exports.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        snap.record_counter("net_lost", self.lost);
        snap.record_counter("net_cut", self.cut);
        snap.record_counter("net_partitioned", self.partitioned);
        snap.record_counter("net_dead", self.dead);
    }
}

/// One replica of the network's fault state over a fixed population:
/// loss, jitter, the cut links, the active partition, the run's chaos key
/// and the [`NetFates`] of the messages it stopped.
///
/// Link cuts, the partition labelling and the loss/jitter settings are
/// *global* facts about the network, whoever moves the messages: every
/// worker holds one replica (updated by scheduling a control event for
/// every worker), an engine's workers and a testnet fabric's shards
/// alike. The worker asks it the same two questions on both hosts:
/// [`FaultState::blocked`] — is the receiver dead, or the path cut or
/// partitioned? (at arrival) — and [`FaultState::draw`] — is this send
/// lost, and how much jitter does it carry? (at send).
/// Simulation and wire cannot drift in fault semantics because there is
/// one body.
///
/// A draw carries no state: it hashes the run's chaos key (derived from
/// the master seed, apart from every per-node stream) with the sender and
/// that send's number among what the sender has scheduled. So every
/// replica decides a send alike whatever it has drawn before, a draw
/// cannot depend on which worker makes it, enabling chaos never perturbs
/// protocol-level randomness, and a run without loss or jitter makes
/// zero draws.
#[derive(Debug)]
pub struct FaultState {
    nodes: usize,
    /// Per-message loss probability in parts per million (0 = off).
    loss_ppm: u32,
    /// Maximum extra one-way latency in ns (0 = off).
    jitter_ns: u64,
    /// Cut links as normalized `(min, max)` pairs, sorted. Scenarios cut
    /// a handful of links but the membership check sits on the
    /// per-delivery hot path: a sorted `Vec` probed by binary search costs
    /// a length check when empty and a few comparisons when tiny, with no
    /// per-lookup hashing.
    cut: Vec<(NodeId, NodeId)>,
    partition: Option<Arc<Vec<u32>>>,
    /// What every draw hashes in: the master seed, mixed apart from the
    /// per-node streams (`seed * GOLDEN ^ node`).
    key: u64,
    fates: NetFates,
}

impl FaultState {
    /// The fault-free state over `nodes` nodes of the run seeded `seed`.
    pub fn new(nodes: usize, seed: u64) -> Self {
        FaultState {
            nodes,
            loss_ppm: 0,
            jitter_ns: 0,
            cut: Vec::new(),
            partition: None,
            key: mix(seed.wrapping_mul(GOLDEN) ^ 0xC4A0_5FA7_17E5_0123),
            fates: NetFates::default(),
        }
    }

    /// Applies one fault — the only place a network fault is interpreted,
    /// and the bounds-checked entry for every id and label the state will
    /// later index with.
    ///
    /// # Panics
    ///
    /// Panics if a link names a node outside the population, a partition
    /// does not label every node, or a loss probability is not within
    /// `0.0..=1.0`.
    pub fn apply(&mut self, fault: &NetFault) {
        match fault {
            NetFault::CutLink(a, b) => {
                let key = self.link_key(*a, *b);
                // A node's path to itself is not a network path.
                if let (Err(i), true) = (self.cut.binary_search(&key), a != b) {
                    self.cut.insert(i, key);
                }
            }
            NetFault::HealLink(a, b) => {
                let key = self.link_key(*a, *b);
                if let Ok(i) = self.cut.binary_search(&key) {
                    self.cut.remove(i);
                }
            }
            NetFault::Partition(sides) => {
                assert_eq!(sides.len(), self.nodes, "partition must label every node");
                self.partition = Some(Arc::clone(sides));
            }
            NetFault::HealPartition => self.partition = None,
            NetFault::SetLoss(p) => {
                assert!((0.0..=1.0).contains(p), "loss probability {p} not in 0..=1");
                self.loss_ppm = (p * 1_000_000.0).round() as u32;
            }
            NetFault::SetJitter(jitter) => {
                self.jitter_ns = jitter.as_nanos().min(u64::MAX as u128) as u64;
            }
        }
    }

    /// The cut set's key for the link between two nodes of the population.
    fn link_key(&self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        let nodes = self.nodes;
        assert!(
            a.index() < nodes && b.index() < nodes,
            "link {a}-{b} names a node outside the {nodes}-node population"
        );
        (a.min(b), a.max(b))
    }

    /// Panics exactly where [`FaultState::apply`] would, changing nothing:
    /// a dry run on a scratch state, so a fault scheduled for later is
    /// rejected at the call and not inside the run loop.
    pub(crate) fn validate(&self, fault: &NetFault) {
        FaultState::new(self.nodes, 0).apply(fault);
    }

    /// Whether the network stops a message between `a` and `b`, counting
    /// its fate if so, first match wins: `dead` (an endpoint has crashed —
    /// the host's verdict, since only the host knows who is alive), then a
    /// cut link, then the active partition. A node's path to itself is
    /// never cut or partitioned. With no fault set this is a length check
    /// and a `None` test.
    #[inline]
    pub fn blocked(&mut self, a: NodeId, b: NodeId, dead: bool) -> bool {
        if dead {
            self.fates.dead += 1;
            return true;
        }
        if self.is_cut(a, b) {
            self.fates.cut += 1;
            return true;
        }
        match &self.partition {
            Some(sides) if sides[a.index()] != sides[b.index()] => {
                self.fates.partitioned += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether loss or jitter is enabled: the single branch the fault-free
    /// send path pays before (not) calling [`FaultState::draw`].
    #[inline]
    pub fn active(&self) -> bool {
        self.loss_ppm > 0 || self.jitter_ns > 0
    }

    /// The loss and jitter draws for `from`'s send numbered `count` (its
    /// place among everything `from` has scheduled): `None` if the message
    /// is lost (counted), else the extra latency it carries. One counter
    /// hash of `(seed, from, count)` decides both, so the answer is the
    /// same on every replica, whatever each has drawn before; a disabled
    /// fault decides nothing, and a node's sends to itself are never drawn
    /// for.
    #[inline]
    pub fn draw(&mut self, from: NodeId, to: NodeId, count: u64) -> Option<Duration> {
        if from == to {
            return Some(Duration::ZERO);
        }
        let send = u64::from(from.as_u32()) << 40 | count;
        let h = mix(self.key.wrapping_add(send.wrapping_mul(GOLDEN)));
        // The high half as a fraction of 2^32, scaled to parts per million.
        if self.loss_ppm > 0 && ((h >> 32) * 1_000_000) >> 32 < u64::from(self.loss_ppm) {
            self.fates.lost += 1;
            return None;
        }
        let extra = match self.jitter_ns {
            0 => 0,
            max => ((u128::from(mix(h)) * (u128::from(max) + 1)) >> 64) as u64,
        };
        Some(Duration::from_nanos(extra))
    }

    /// Current per-message loss probability.
    pub fn loss(&self) -> f64 {
        self.loss_ppm as f64 / 1_000_000.0
    }

    /// Current maximum latency jitter.
    pub fn jitter(&self) -> Duration {
        Duration::from_nanos(self.jitter_ns)
    }

    /// Whether the path between `a` and `b` is currently cut.
    #[inline]
    pub fn is_cut(&self, a: NodeId, b: NodeId) -> bool {
        !self.cut.is_empty() && self.cut.binary_search(&(a.min(b), a.max(b))).is_ok()
    }

    /// The active partition's side labels, if one is installed.
    pub fn partition(&self) -> Option<&[u32]> {
        self.partition.as_ref().map(|sides| &sides[..])
    }

    /// The fates of the messages this replica has stopped:
    /// [`FaultState::draw`] counts the lost, [`FaultState::blocked`] the
    /// rest.
    pub fn fates(&self) -> NetFates {
        self.fates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// What a host does with one send: the structural check, then the
    /// draws, for the send `count`.
    fn passes(state: &mut FaultState, a: u32, b: u32, count: u64) -> bool {
        !state.blocked(n(a), n(b), false) && state.draw(n(a), n(b), count).is_some()
    }

    #[test]
    fn fault_free_state_delivers_everything() {
        let mut state = FaultState::new(4, 1);
        assert!(!state.active());
        for a in 0..4 {
            for b in 0..4 {
                assert!(!state.blocked(n(a), n(b), false));
                assert_eq!(state.draw(n(a), n(b), 0), Some(Duration::ZERO));
            }
        }
    }

    #[test]
    fn partition_drops_cross_side_only() {
        let mut state = FaultState::new(4, 1);
        state.apply(&NetFault::partition(vec![0, 0, 1, 1]));
        assert!(passes(&mut state, 0, 1, 0));
        assert!(!passes(&mut state, 0, 2, 1));
        assert!(!passes(&mut state, 3, 1, 0));
        assert_eq!((state.fates().partitioned, state.fates().cut), (2, 0));
        state.apply(&NetFault::HealPartition);
        assert!(passes(&mut state, 0, 2, 2));
    }

    #[test]
    fn cut_links_drop_both_directions_until_healed() {
        let mut state = FaultState::new(3, 1);
        state.apply(&NetFault::CutLink(n(2), n(0)));
        assert!(!passes(&mut state, 0, 2, 0));
        assert!(!passes(&mut state, 2, 0, 0));
        assert!(passes(&mut state, 0, 1, 1));
        assert_eq!((state.fates().cut, state.fates().partitioned), (2, 0));
        state.apply(&NetFault::HealLink(n(0), n(2)));
        assert!(passes(&mut state, 0, 2, 2));
    }

    /// Two replicas that have drawn different histories decide every
    /// send alike: a draw is a function of `(seed, from, count)` alone.
    #[test]
    fn a_draw_depends_on_the_send_not_the_replica_history() {
        let faults = [
            NetFault::SetLoss(0.3),
            NetFault::SetJitter(Duration::from_millis(7)),
        ];
        let (mut a, mut b) = (FaultState::new(8, 42), FaultState::new(8, 42));
        faults.iter().for_each(|f| a.apply(f));
        faults.iter().for_each(|f| b.apply(f));
        for count in 0..500 {
            a.draw(n(3), n(4), count);
        }
        let decide = |s: &mut FaultState| -> Vec<_> {
            (0..8)
                .flat_map(|from| (1_000..1_050).map(move |count| (from, count)))
                .map(|(from, count)| s.draw(n(from), n((from + 1) % 8), count))
                .collect()
        };
        let (da, db) = (decide(&mut a), decide(&mut b));
        assert_eq!(da, db);
        assert!(da.iter().any(Option::is_none) && da.iter().any(Option::is_some));
        // A different seed decides differently.
        let mut c = FaultState::new(8, 43);
        faults.iter().for_each(|f| c.apply(f));
        assert_ne!(decide(&mut c), da);
    }

    /// At p = 0.03 over 10^5 sends the lost count is binomial with mean
    /// 3,000 and standard deviation √(10^5 · 0.03 · 0.97) ≈ 53.9; the bound
    /// is five deviations either side.
    #[test]
    fn loss_fires_with_the_configured_probability() {
        const SENDS: u64 = 100_000;
        let mut state = FaultState::new(64, 7);
        state.apply(&NetFault::SetLoss(0.03));
        assert!(state.active());
        let lost = (0..SENDS)
            .filter(|&i| {
                state
                    .draw(n((i % 64) as u32), n(63 - (i % 64) as u32), i / 64)
                    .is_none()
            })
            .count() as u64;
        let (mean, sd) = (3_000.0, (SENDS as f64 * 0.03 * 0.97).sqrt());
        assert!(
            (lost as f64 - mean).abs() <= 5.0 * sd,
            "{lost} of {SENDS} lost, expected {mean} ± {:.0}",
            5.0 * sd
        );
        assert_eq!(state.fates().lost, lost);
    }

    #[test]
    fn jitter_delays_but_never_drops() {
        let max = Duration::from_millis(5);
        let mut state = FaultState::new(2, 7);
        state.apply(&NetFault::SetJitter(max));
        let draws: Vec<Duration> = (0..10_000)
            .map(|count| state.draw(n(0), n(1), count).expect("jitter loses nothing"))
            .collect();
        assert!(draws.iter().all(|d| *d <= max));
        // Spread over the whole range, not stuck at one end.
        assert!(draws.iter().any(|d| *d < max / 10));
        assert!(draws.iter().any(|d| *d > max * 9 / 10));
        // The widest bound a duration allows does not overflow.
        state.apply(&NetFault::SetJitter(Duration::MAX));
        assert!(state.draw(n(0), n(1), 0).is_some());
    }

    #[test]
    fn self_sends_bypass_faults() {
        let mut state = FaultState::new(3, 1);
        state.apply(&NetFault::SetLoss(1.0));
        state.apply(&NetFault::SetJitter(Duration::from_secs(1)));
        state.apply(&NetFault::CutLink(n(1), n(1)));
        state.apply(&NetFault::partition(vec![0, 1, 2]));
        for count in 0..100 {
            assert_eq!(state.draw(n(1), n(1), count), Some(Duration::ZERO));
        }
        assert!(passes(&mut state, 1, 1, 0));
        assert!(!passes(&mut state, 1, 2, 0));
        // A crashed endpoint is judged first and stops even a self-send.
        assert!(state.blocked(n(1), n(2), true));
        assert!(state.blocked(n(1), n(1), true));
        let fates = state.fates();
        assert_eq!((fates.dead, fates.cut, fates.lost), (2, 0, 0));
    }

    #[test]
    fn fates_merge_total_and_export_under_net_names() {
        let mut a = NetFates {
            lost: 1,
            cut: 2,
            partitioned: 3,
            dead: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 20);
        let mut snap = Snapshot::new();
        a.snapshot_into(&mut snap);
        let mut out = String::new();
        snap.write_json_fields(&mut out, true);
        assert_eq!(
            out,
            "\"net_lost\":2,\"net_cut\":4,\"net_partitioned\":6,\"net_dead\":8"
        );
    }
}
