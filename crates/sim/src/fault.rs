//! The network fault vocabulary ([`NetFault`]) and the one place that
//! remembers it ([`FaultState`]), shared by the simulation kernel and the
//! testnet fabric.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::id::NodeId;
use crate::lane::GOLDEN;

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

/// One replica of the network's fault state over a fixed population:
/// loss, jitter, the cut links, the active partition, the chaos RNG
/// stream and the drop counters.
///
/// Link cuts, the partition labelling and the loss/jitter settings are
/// *global* facts about the network, whoever moves the messages: the
/// simulation kernel holds one replica per lane (updated by broadcasting
/// a control event into every lane's queue), the testnet fabric one per
/// shard (every shard replays the full plan). Both ask it the same two
/// questions: [`FaultState::blocked`] — is the path cut or partitioned?
/// (kernel: at delivery; wire: at transmit) — and [`FaultState::draw`] —
/// is this send lost, and how much jitter does it carry? (both: at send).
/// Simulation and wire cannot drift in fault semantics because there is
/// one body.
///
/// Draws come from a dedicated RNG stream (derived from the master seed
/// and the replica index, separate from every per-node stream), so
/// enabling chaos never perturbs protocol-level randomness, and a run
/// without loss or jitter makes zero draws.
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
    rng: SmallRng,
    losses: u64,
    cut_drops: u64,
    partition_drops: u64,
}

impl FaultState {
    /// The fault-free state over `nodes` nodes. Replica 0 draws from the
    /// stream a one-lane engine has always used; replica `i ≥ 1` derives
    /// its own from the master seed and `i`, so replicas of one run never
    /// make correlated draws.
    pub fn new(nodes: usize, seed: u64, replica: u32) -> Self {
        let seed = match replica {
            0 => seed,
            i => seed.wrapping_add(GOLDEN.wrapping_mul(i as u64 + 1)),
        };
        FaultState {
            nodes,
            loss_ppm: 0,
            jitter_ns: 0,
            cut: Vec::new(),
            partition: None,
            // Distinct stream: per-node RNGs use seed * GOLDEN ^ node_index,
            // so folding in a large constant cannot collide with any node.
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(GOLDEN) ^ 0xC4A0_5FA7_17E5_0123),
            losses: 0,
            cut_drops: 0,
            partition_drops: 0,
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
        FaultState::new(self.nodes, 0, 0).apply(fault);
    }

    /// Whether the path between `a` and `b` is cut or crosses the active
    /// partition, counting the drop by cause if so (a cut link wins). A
    /// node's path to itself is never blocked. With no fault set this is a
    /// length check and a `None` test.
    #[inline]
    pub fn blocked(&mut self, a: NodeId, b: NodeId) -> bool {
        if self.is_cut(a, b) {
            self.cut_drops += 1;
            return true;
        }
        match &self.partition {
            Some(sides) if sides[a.index()] != sides[b.index()] => {
                self.partition_drops += 1;
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

    /// The loss and jitter draws for one send: `None` if the message is
    /// lost (counted), else the extra latency it carries. Order: the loss
    /// draw, then the jitter draw; a disabled fault makes no draw, and a
    /// node's sends to itself are never drawn for.
    #[inline]
    pub fn draw(&mut self, from: NodeId, to: NodeId) -> Option<Duration> {
        if from == to {
            return Some(Duration::ZERO);
        }
        if self.loss_ppm > 0 && self.rng.gen_range(0..1_000_000u32) < self.loss_ppm {
            self.losses += 1;
            return None;
        }
        let extra = match self.jitter_ns {
            0 => 0,
            max => self.rng.gen_range(0..=max),
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

    /// Messages [`FaultState::draw`] has lost.
    pub fn losses(&self) -> u64 {
        self.losses
    }

    /// Messages [`FaultState::blocked`] has stopped on a cut link.
    pub fn cut_drops(&self) -> u64 {
        self.cut_drops
    }

    /// Messages [`FaultState::blocked`] has stopped at the partition.
    pub fn partition_drops(&self) -> u64 {
        self.partition_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// What a host does with one send: the structural check, then the draws.
    fn passes(state: &mut FaultState, a: u32, b: u32) -> bool {
        !state.blocked(n(a), n(b)) && state.draw(n(a), n(b)).is_some()
    }

    #[test]
    fn fault_free_state_delivers_everything() {
        let mut state = FaultState::new(4, 1, 0);
        assert!(!state.active());
        for a in 0..4 {
            for b in 0..4 {
                assert!(!state.blocked(n(a), n(b)));
                assert_eq!(state.draw(n(a), n(b)), Some(Duration::ZERO));
            }
        }
    }

    #[test]
    fn partition_drops_cross_side_only() {
        let mut state = FaultState::new(4, 1, 0);
        state.apply(&NetFault::partition(vec![0, 0, 1, 1]));
        assert!(passes(&mut state, 0, 1));
        assert!(!passes(&mut state, 0, 2));
        assert!(!passes(&mut state, 3, 1));
        assert_eq!((state.partition_drops(), state.cut_drops()), (2, 0));
        state.apply(&NetFault::HealPartition);
        assert!(passes(&mut state, 0, 2));
    }

    #[test]
    fn cut_links_drop_both_directions_until_healed() {
        let mut state = FaultState::new(3, 1, 0);
        state.apply(&NetFault::CutLink(n(2), n(0)));
        assert!(!passes(&mut state, 0, 2));
        assert!(!passes(&mut state, 2, 0));
        assert!(passes(&mut state, 0, 1));
        assert_eq!((state.cut_drops(), state.partition_drops()), (2, 0));
        state.apply(&NetFault::HealLink(n(0), n(2)));
        assert!(passes(&mut state, 0, 2));
    }

    #[test]
    fn loss_fires_with_the_configured_probability() {
        let mut state = FaultState::new(2, 7, 0);
        state.apply(&NetFault::SetLoss(0.5));
        assert!(state.active());
        let drops = (0..10_000).filter(|_| !passes(&mut state, 0, 1)).count();
        assert!((4_000..6_000).contains(&drops), "drops = {drops}");
        assert_eq!(state.losses(), drops as u64);
    }

    #[test]
    fn jitter_delays_but_never_drops() {
        let mut state = FaultState::new(2, 7, 0);
        state.apply(&NetFault::SetJitter(Duration::from_millis(5)));
        let mut delayed = 0;
        for _ in 0..100 {
            let extra = state.draw(n(0), n(1)).expect("jitter loses nothing");
            assert!(extra <= Duration::from_millis(5));
            delayed += u32::from(!extra.is_zero());
        }
        assert!(delayed > 0, "no send drew any jitter");
    }

    #[test]
    fn self_sends_bypass_faults() {
        let mut state = FaultState::new(3, 1, 0);
        state.apply(&NetFault::SetLoss(1.0));
        state.apply(&NetFault::CutLink(n(1), n(1)));
        state.apply(&NetFault::partition(vec![0, 1, 2]));
        assert!(passes(&mut state, 1, 1));
        assert!(!passes(&mut state, 1, 2));
    }

    #[test]
    fn replicas_draw_distinct_streams_and_replica_zero_is_the_one_lane_stream() {
        const SEED: u64 = 42;
        let draws = |replica| {
            let mut state = FaultState::new(2, SEED, replica);
            state.apply(&NetFault::SetLoss(0.5));
            let lost: Vec<bool> = (0..64).map(|_| !passes(&mut state, 0, 1)).collect();
            lost
        };
        // The stream every one-lane run since the chaos engine has drawn
        // from (the `lossy` literals in `tests/tests/golden.rs` pin it end
        // to end).
        let mut rng = SmallRng::seed_from_u64(SEED.wrapping_mul(GOLDEN) ^ 0xC4A0_5FA7_17E5_0123);
        let one_lane: Vec<bool> = (0..64)
            .map(|_| rng.gen_range(0..1_000_000u32) < 500_000)
            .collect();
        assert_eq!(draws(0), one_lane);
        assert_ne!(draws(1), draws(0));
        assert_ne!(draws(2), draws(1));
    }
}
