//! Model-based property test for [`gocast_sim::EventQueue`].
//!
//! The production queue is a 4-ary indexed heap with a payload slab; the
//! model below is the simple `BinaryHeap<Reverse<(at, seq, payload)>>`
//! the simulator originally shipped with. Under randomized interleavings
//! of schedules and pops — including bursts of equal timestamps, which
//! must pop in insertion order — the two must agree on every observable:
//! pop results (time, sequence, payload), `peek_time`, `len`, and
//! `scheduled_total` — and on the hints the kernel prefetches by: the
//! first and second pops' (`peek_key`), which never move a pop.
//!
//! The queue keeps its events in three tiers — a sorted front, a ring of
//! ≈ 1 ms buckets over the next ≈ 0.54 s, and a heap beyond — which the
//! model knows nothing about either: the simulator-shaped property drives
//! every tier and every move between them (the start-up storm, equal-time
//! bursts, delays from 0 ns to 20 s, far events entering the ring, an
//! empty ring jumping to the far minimum, compaction with all three
//! tiers occupied) and checks each observable after every operation.
//!
//! A kernel worker keeps two queues and pops them as one by their heads'
//! keys ([`EventQueue::peek_key`]): the two-queue property checks that this
//! pops exactly as one queue holding both, and names the same hints.
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

    /// Payloads of the next two pops, earliest first.
    fn first_two(&self) -> (Option<u64>, Option<u64>) {
        let mut keys: Vec<_> = self.heap.iter().map(|Reverse(e)| *e).collect();
        keys.sort_unstable();
        let payload = |i: usize| keys.get(i).map(|&(_, _, p)| p);
        (payload(0), payload(1))
    }
}

/// The hint `EventQueue` reports for an event: `u32::MAX` means none.
fn reported(hint: u32) -> Option<u32> {
    (hint != u32::MAX).then_some(hint)
}

/// The hint of the event that pops `rank`-th, 0 or 1, as
/// [`EventQueue::peek_key`] reads it.
fn hint<T>(q: &mut EventQueue<T>, rank: usize) -> Option<u32> {
    q.peek_key(rank).and_then(|(_, _, h)| reported(h))
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
        // `hints[payload]`: what the queue should report for the event.
        let mut hints: Vec<Option<u32>> = Vec::new();
        for _ in 0..ops {
            // What the kernel's first prefetch stage reads: the second pop.
            let ahead = hint(&mut q, 1);
            if rng.gen_bool(0.6) {
                // Schedule a burst of 1..4 events, often at equal times.
                let at = now + Duration::from_nanos(rng.gen_range(0..50));
                for _ in 0..rng.gen_range(1..4usize) {
                    // The model has never heard of hints: they must not
                    // move a pop. A quarter of events carry none.
                    if rng.gen_bool(0.25) {
                        q.schedule(at, payload);
                        hints.push(None);
                    } else {
                        let hint = rng.gen_range(0..=u32::MAX);
                        q.schedule_hinted(at, hint, payload);
                        hints.push(reported(hint));
                    }
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
                // Nothing was scheduled since: the look-ahead named this
                // pop's successor.
                prop_assert_eq!(hint(&mut q, 0), ahead, "look-ahead missed the next pop");
            }
            let (first, second) = model.first_two();
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(hint(&mut q, 0), first.and_then(|p| hints[p as usize]));
            prop_assert_eq!(hint(&mut q, 1), second.and_then(|p| hints[p as usize]));
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

/// A delay shaped like the simulator's: mostly network latencies and the
/// 100 ms protocol periods, some shorter than what is left of the front's
/// bucket (zero included), some into the next few buckets — the ones a
/// refill may already be walking — and some past the ring's horizon:
/// pull timeouts, garbage collection, heartbeats, and anything up to 20 s.
fn sim_delay(rng: &mut impl Rng) -> Duration {
    let ms = Duration::from_millis;
    match rng.gen_range(0..100u32) {
        0..=4 => Duration::ZERO,
        5..=14 => Duration::from_nanos(rng.gen_range(0..1_000_000)),
        15..=29 => Duration::from_nanos(rng.gen_range(1_000_000..3_000_000)),
        30..=54 => Duration::from_nanos(rng.gen_range(3_000_000..400_000_000)),
        55..=74 => ms(100),
        75..=79 => ms(2_000),
        80..=84 => ms(5_000),
        85..=89 => ms(15_000),
        _ => Duration::from_nanos(rng.gen_range(0..20_000_000_000)),
    }
}

proptest! {
    #[test]
    fn simulator_shaped_schedules_match_model_in_every_tier(seed in 0u64..1_000_000) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        let mut hints: Vec<Option<u32>> = Vec::new();
        macro_rules! schedule {
            ($at:expr) => {{
                let at = $at;
                if rng.gen_bool(0.25) {
                    q.schedule(at, payload);
                    hints.push(None);
                } else {
                    let hint = rng.gen_range(0..u32::MAX);
                    q.schedule_hinted(at, hint, payload);
                    hints.push(Some(hint));
                }
                model.schedule(at, payload);
                payload += 1;
            }};
        }
        macro_rules! check {
            () => {{
                let (first, second) = model.first_two();
                // `peek_time` first: it reads a short front's successors
                // without moving the front, where `peek_key` moves it on.
                prop_assert_eq!(q.peek_time(), model.peek_time());
                prop_assert_eq!(hint(&mut q, 0), first.and_then(|p| hints[p as usize]));
                prop_assert_eq!(hint(&mut q, 1), second.and_then(|p| hints[p as usize]));
                prop_assert_eq!(q.len(), model.heap.len());
                prop_assert_eq!(q.is_empty(), model.heap.is_empty());
            }};
        }
        macro_rules! pop {
            () => {{
                let got = q.pop().map(|s| (s.at, s.seq, s.payload));
                let want = model.pop();
                prop_assert_eq!(got, want, "pop diverged from model");
                now = want.map_or(now, |(at, _, _)| at);
                check!();
            }};
        }
        // The start-up storm, ten to twenty times as deep as what follows:
        // half of it at exactly t = 0, checked as it arrives.
        let level = rng.gen_range(16..40usize);
        for _ in 0..rng.gen_range(10..20usize) * level {
            let delay = if rng.gen_bool(0.5) { Duration::ZERO } else { sim_delay(&mut rng) };
            schedule!(SimTime::ZERO + delay);
            check!();
        }
        let storm_slots = q.slab_slots();
        for round in 0..6 {
            // Steady state at about `level` pending, some of it scheduled
            // in equal-time bursts; six rounds pop the storm's slots twice.
            for _ in 0..storm_slots / 2 {
                if q.len() > level || rng.gen_bool(0.5) {
                    pop!();
                } else {
                    let at = now + sim_delay(&mut rng);
                    for _ in 0..rng.gen_range(1..4usize) {
                        schedule!(at);
                    }
                    check!();
                }
            }
            if round % 2 == 1 {
                // Quiet: pop all but what lies past the horizon, so the
                // next pop finds the ring empty and jumps to the far heap.
                let quiet = now + Duration::from_millis(600);
                while q.peek_time().is_some_and(|t| t < quiet) {
                    pop!();
                }
                pop!();
            }
        }
        // The storm's slots are gone again: a compaction ran with events
        // in the front, the ring and the far heap.
        prop_assert!(
            q.slab_slots() < storm_slots,
            "no compaction: {} slots after a storm of {}", q.slab_slots(), storm_slots
        );
        while !q.is_empty() {
            pop!();
        }
        prop_assert_eq!(model.pop(), None);
    }
}

/// The pending events of two queues popped as one, the way a kernel
/// worker pops its timer queue and its other events: whichever head key
/// [`EventQueue::peek_key`] reads lower pops.
fn pop_merged(a: &mut EventQueue<u64>, b: &mut EventQueue<u64>) -> Option<(SimTime, u64, u64)> {
    let key = |p: Option<(SimTime, u64, u32)>| p.map(|(at, tie, _)| (at, tie));
    let from_b = match (key(a.peek_key(0)), key(b.peek_key(0))) {
        (Some(x), Some(y)) => y < x,
        (x, _) => x.is_none(),
    };
    let q = if from_b { b } else { a };
    q.pop().map(|s| (s.at, s.seq, s.payload))
}

/// The hints of the first and second pops of two queues popped as one:
/// of the two least keys among each queue's first two.
fn merged_hints(a: &mut EventQueue<u64>, b: &mut EventQueue<u64>) -> (Option<u32>, Option<u32>) {
    let mut heads: Vec<(SimTime, u64, u32)> =
        [a.peek_key(0), a.peek_key(1), b.peek_key(0), b.peek_key(1)]
            .into_iter()
            .flatten()
            .collect();
    heads.sort_unstable();
    let hint = |i: usize| heads.get(i).and_then(|&(_, _, h)| reported(h));
    (hint(0), hint(1))
}

proptest! {
    /// Random interleaved schedules under kernel-shaped ties (unique, each
    /// scheduler's own count under its number, so equal instants do not
    /// pop in schedule order), each put in one queue and in one of two
    /// others: the two popped by their heads' keys pop exactly as the one
    /// queue, and name the same next and second hints.
    #[test]
    fn two_queues_popped_by_head_key_pop_as_one(seed in 0u64..1_000_000, ops in 50usize..600) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut one = EventQueue::new();
        let (mut a, mut b) = (EventQueue::new(), EventQueue::new());
        let mut counts = [0u64; 8];
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        for _ in 0..ops {
            if rng.gen_bool(0.55) {
                let at = now + sim_delay(&mut rng);
                for _ in 0..rng.gen_range(1..4usize) {
                    let scheduler = rng.gen_range(0..counts.len());
                    let tie = (scheduler as u64) << 40 | counts[scheduler];
                    counts[scheduler] += 1;
                    let hint = if rng.gen_bool(0.25) { u32::MAX } else { rng.gen_range(0..u32::MAX) };
                    one.schedule_keyed(at, tie, hint, payload);
                    let q = if rng.gen_bool(0.7) { &mut a } else { &mut b };
                    q.schedule_keyed(at, tie, hint, payload);
                    payload += 1;
                }
            } else {
                let want = one.pop().map(|s| (s.at, s.seq, s.payload));
                prop_assert_eq!(pop_merged(&mut a, &mut b), want, "merged pop diverged");
                now = want.map_or(now, |(at, _, _)| at);
            }
            prop_assert_eq!(merged_hints(&mut a, &mut b), (hint(&mut one, 0), hint(&mut one, 1)));
            prop_assert_eq!(a.peek_time().into_iter().chain(b.peek_time()).min(), one.peek_time());
            prop_assert_eq!(a.len() + b.len(), one.len());
        }
        while let Some(s) = one.pop() {
            prop_assert_eq!(pop_merged(&mut a, &mut b), Some((s.at, s.seq, s.payload)));
        }
        prop_assert_eq!(pop_merged(&mut a, &mut b), None);
    }
}

/// A hint rides beside the key and is never part of it: equal-time events
/// scheduled with descending hints still pop in insertion order, each
/// reporting its own hint while it is the earliest and, one pop before,
/// while it is the second.
#[test]
fn hints_never_order_events() {
    let mut q = EventQueue::new();
    let at = SimTime::from_millis(3);
    assert_eq!(hint(&mut q, 1), None, "empty");
    for i in 0..100u32 {
        q.schedule_hinted(at, 99 - i, i);
    }
    q.schedule(at, 100);
    for i in 0..100u32 {
        assert_eq!(hint(&mut q, 0), Some(99 - i));
        let second = (i < 99).then(|| 98 - i);
        assert_eq!(hint(&mut q, 1), second, "pop {i}");
        assert_eq!(q.pop().map(|s| s.payload), Some(i));
    }
    assert_eq!(hint(&mut q, 0), None, "scheduled without a hint");
    assert_eq!(hint(&mut q, 1), None, "one pending");
    assert_eq!(q.pop().map(|s| s.payload), Some(100));
    assert_eq!(hint(&mut q, 0), None, "empty");
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
