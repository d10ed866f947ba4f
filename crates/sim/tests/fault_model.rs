//! Model-based property test for [`gocast_sim::FaultState`].
//!
//! The production state keeps cut links in a sorted `Vec` probed by binary
//! search, partition labels behind an `Arc` and loss in parts per million;
//! the model below is the naive one — a `HashSet` of normalised pairs, an
//! owned label vector, plain fields. Under random interleavings of faults
//! and path checks — heal-without-cut, re-cut, self-pairs, partition
//! replace included — the two must agree on every answer and every drop
//! counter.

use std::collections::HashSet;
use std::time::Duration;

use gocast_sim::{FaultState, NetFault, NodeId};
use proptest::prelude::*;

const NODES: u32 = 8;

#[derive(Default)]
struct Model {
    cut: HashSet<(u32, u32)>,
    sides: Option<Vec<u32>>,
    loss: f64,
    jitter: Duration,
    cut_drops: u64,
    partition_drops: u64,
}

impl Model {
    fn apply(&mut self, fault: &NetFault) {
        let pair =
            |a: &NodeId, b: &NodeId| (a.as_u32().min(b.as_u32()), a.as_u32().max(b.as_u32()));
        match fault {
            NetFault::CutLink(a, b) => {
                self.cut.insert(pair(a, b));
            }
            NetFault::HealLink(a, b) => {
                self.cut.remove(&pair(a, b));
            }
            NetFault::Partition(sides) => self.sides = Some(sides.to_vec()),
            NetFault::HealPartition => self.sides = None,
            NetFault::SetLoss(p) => self.loss = *p,
            NetFault::SetJitter(j) => self.jitter = *j,
        }
    }

    fn blocked(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        if self.cut.contains(&(a.min(b), a.max(b))) {
            self.cut_drops += 1;
            return true;
        }
        let crosses = self
            .sides
            .as_ref()
            .is_some_and(|s| s[a as usize] != s[b as usize]);
        self.partition_drops += u64::from(crosses);
        crosses
    }
}

enum Op {
    Apply(NetFault),
    Check(u32, u32),
}

/// One operation from four raw draws: a kind, two node ids and a word the
/// kind reads its argument from.
fn op((kind, a, b, word): (u32, u32, u32, u32)) -> Op {
    let (na, nb) = (NodeId::new(a), NodeId::new(b));
    Op::Apply(match kind {
        0 => NetFault::CutLink(na, nb),
        1 => NetFault::HealLink(na, nb),
        // Two bits of the word per node: up to three sides.
        2 => NetFault::partition((0..NODES).map(|i| (word >> (2 * i)) % 4 % 3).collect()),
        3 => NetFault::HealPartition,
        4 => NetFault::SetLoss((word % 1_000_001) as f64 / 1e6),
        5 => NetFault::SetJitter(Duration::from_micros(u64::from(word % 10_000))),
        _ => return Op::Check(a, b),
    })
}

proptest! {
    #[test]
    fn fault_state_matches_the_naive_model(
        seed in any::<u64>(),
        raw in proptest::collection::vec((0..9u32, 0..NODES, 0..NODES, any::<u32>()), 1..200),
    ) {
        let mut state = FaultState::new(NODES as usize, seed, 0);
        let mut model = Model::default();
        for op in raw.into_iter().map(op) {
            match &op {
                Op::Apply(fault) => {
                    state.apply(fault);
                    model.apply(fault);
                }
                Op::Check(a, b) => {
                    let (na, nb) = (NodeId::new(*a), NodeId::new(*b));
                    prop_assert_eq!(state.blocked(na, nb), model.blocked(*a, *b), "{} -> {}", a, b);
                    prop_assert_eq!(state.is_cut(na, nb), a != b && model.cut.contains(&(*a.min(b), *a.max(b))));
                    // A self-send makes no draw and carries no jitter, so
                    // it can be asked for at any time without moving the
                    // stream.
                    prop_assert_eq!(state.draw(na, na), Some(Duration::ZERO));
                }
            }
            prop_assert_eq!(state.loss(), model.loss);
            prop_assert_eq!(state.jitter(), model.jitter);
            prop_assert_eq!(state.partition(), model.sides.as_deref());
            prop_assert_eq!(state.active(), model.loss > 0.0 || !model.jitter.is_zero());
        }
        prop_assert_eq!(state.cut_drops(), model.cut_drops);
        prop_assert_eq!(state.partition_drops(), model.partition_drops);
        prop_assert_eq!(state.losses(), 0);
    }

    /// What `draw` hands back respects the settings: nothing is lost at
    /// zero loss, everything at one, and jitter stays inside its bound.
    #[test]
    fn draws_respect_the_settings(seed in any::<u64>(), replica in 0..4u32, jitter_us in 0..5_000u64) {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let bound = Duration::from_micros(jitter_us);
        let mut state = FaultState::new(2, seed, replica);
        state.apply(&NetFault::SetJitter(bound));
        for _ in 0..32 {
            let extra = state.draw(a, b);
            prop_assert!(extra.is_some_and(|d| d <= bound));
        }
        state.apply(&NetFault::SetLoss(1.0));
        for _ in 0..32 {
            prop_assert_eq!(state.draw(a, b), None);
        }
        prop_assert_eq!(state.losses(), 32);
    }
}
