//! Model-based property test for [`gocast_sim::EventQueue`].
//!
//! The production queue is a 4-ary indexed heap with a payload slab; the
//! model below is the simple `BinaryHeap<Reverse<(at, seq, payload)>>`
//! the simulator originally shipped with. Under randomized interleavings
//! of schedules and pops — including bursts of equal timestamps, which
//! must pop in insertion order — the two must agree on every observable:
//! pop results (time, sequence, payload), `peek_time`, `len`, and
//! `scheduled_total`.
//!
//! The queue also gives memory back (it compacts its slab when an epoch of
//! pops never needed half of it), which the model knows nothing about: the
//! burst-and-drain property checks that compaction changes no pop and that
//! the reservation follows the pending count down; the oscillation test
//! checks that a steady `n`/`2n` swing is left alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use std::time::Duration;

use gocast_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Reference implementation: ordered exactly like the original
/// `BinaryHeap<Scheduled<T>>` (min on `(at, seq)`).
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// Bytes one pending event reserves: its payload slot and its heap entry.
fn slot_bytes() -> u64 {
    EventQueue::<u64>::with_capacity(1024).mem_bytes() / 1024
}

/// Slots a queue may keep however little is pending.
const FLOOR_SLOTS: u64 = 64;

proptest! {
    #[test]
    fn bursts_and_drains_match_model_and_give_memory_back(
        seed in 0u64..1_000_000,
        cycles in 2usize..5,
    ) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        macro_rules! schedule {
            () => {{
                // A narrow window, so equal timestamps are common.
                let at = now + Duration::from_nanos(rng.gen_range(0..200));
                q.schedule(at, payload);
                model.schedule(at, payload);
                payload += 1;
            }};
        }
        macro_rules! pop {
            () => {{
                let got = q.pop().map(|s| (s.at, s.seq, s.payload));
                let want = model.pop();
                prop_assert_eq!(got, want, "pop diverged from model");
                now = want.map_or(now, |(at, _, _)| at);
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }};
        }
        for _ in 0..cycles {
            // A start-up storm: twenty events for each one that stays.
            let level = rng.gen_range(40..200usize);
            while q.len() < 20 * level {
                schedule!();
            }
            while q.len() > level {
                pop!();
            }
            // Steady state at no more than `level` pending, for two epochs
            // of the storm's slots: the first may have begun mid-drain.
            let mut peak = q.len();
            for _ in 0..2 * q.slab_slots() {
                pop!();
                while q.len() < level && rng.gen_bool(0.6) {
                    schedule!();
                }
                peak = peak.max(q.len());
            }
            let bound = (2 * peak as u64 + FLOOR_SLOTS) * slot_bytes();
            prop_assert!(
                q.mem_bytes() <= bound,
                "{} bytes reserved for a steady peak of {} events (bound {})",
                q.mem_bytes(), peak, bound
            );
        }
        while !q.is_empty() {
            pop!();
        }
        prop_assert_eq!(model.pop(), None);
        // Drained and at rest: nothing pops, so no epoch will ever end.
        q.trim();
        prop_assert!(q.mem_bytes() <= 4 * FLOOR_SLOTS * slot_bytes());
    }

    #[test]
    fn queue_matches_binary_heap_model(seed in 0u64..1_000_000, ops in 50usize..400) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        // A monotone lower bound mimicking simulated time, so schedules
        // cluster realistically; bursts share one timestamp to stress the
        // FIFO tie-break.
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        for _ in 0..ops {
            if rng.gen_bool(0.6) {
                // Schedule a burst of 1..4 events, often at equal times.
                let at = now + Duration::from_nanos(rng.gen_range(0..50));
                for _ in 0..rng.gen_range(1..4usize) {
                    // The model has never heard of hints: they must not
                    // move a pop.
                    q.schedule_hinted(at, rng.gen_range(0..=u32::MAX), payload);
                    model.schedule(at, payload);
                    payload += 1;
                }
            } else {
                let got = q.pop().map(|s| (s.at, s.seq, s.payload));
                let want = model.pop();
                prop_assert_eq!(got, want, "pop diverged from model");
                if let Some((at, _, _)) = want {
                    now = now.max(at);
                }
            }
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(q.scheduled_total(), model.next_seq);
        }
        // Drain: the full remaining order must match, including FIFO
        // runs of equal timestamps.
        loop {
            let got = q.pop().map(|s| (s.at, s.seq, s.payload));
            let want = model.pop();
            prop_assert_eq!(got, want, "drain diverged from model");
            if want.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }
}

/// A hint rides beside the key and is never part of it: equal-time events
/// scheduled with descending hints still pop in insertion order, each
/// reporting its own hint while it is the earliest.
#[test]
fn hints_never_order_events() {
    let mut q = EventQueue::new();
    let at = SimTime::from_millis(3);
    for i in 0..100u32 {
        q.schedule_hinted(at, 99 - i, i);
    }
    q.schedule(at, 100);
    for i in 0..100u32 {
        assert_eq!(q.next_hint(), Some(99 - i));
        assert_eq!(q.pop().map(|s| s.payload), Some(i));
    }
    assert_eq!(q.next_hint(), None, "scheduled without a hint");
    assert_eq!(q.pop().map(|s| s.payload), Some(100));
    assert_eq!(q.next_hint(), None, "empty");
}

/// Timers plus one message each in flight: `n` pending at the trough, `2n`
/// at the crest, every tick. The slab that holds the crest is never more
/// than half empty over a whole tick, so it must be left alone — shrinking
/// at the trough would mean regrowing at every crest.
#[test]
fn lock_step_oscillation_never_compacts() {
    for n in [100usize, 1_000, 5_000] {
        let mut q = EventQueue::new();
        let tick = Duration::from_millis(10);
        for i in 0..n {
            q.schedule(SimTime::ZERO + tick, i);
        }
        let mut settled = None;
        for round in 0..50 {
            // Each timer re-arms and sends; then the messages arrive.
            for _ in 0..n {
                let fired = q.pop().expect("a timer per node");
                q.schedule(fired.at + tick, fired.payload);
                q.schedule(fired.at + tick / 3, fired.payload);
            }
            assert_eq!(q.len(), 2 * n);
            for _ in 0..n {
                q.pop().expect("a message per node");
            }
            // Whether a caller stops at the crest or the trough.
            q.trim();
            let now = (q.slab_slots(), q.capacity(), q.mem_bytes());
            if round > 0 {
                assert_eq!(settled, Some(now), "n = {n}, round {round}");
            }
            settled = Some(now);
            assert_eq!(q.slab_slots(), 2 * n, "the crest's slots stay allocated");
        }
    }
}
