//! The pending-event queue.
//!
//! A 4-ary min-heap keyed on `(time, sequence)`. The monotonically
//! increasing sequence number breaks ties between events scheduled for the
//! same instant in insertion order, which makes simulation runs fully
//! deterministic for a given seed.
//!
//! ## Why not `BinaryHeap<Scheduled<T>>`?
//!
//! This queue is the simulator's single hottest data structure: every
//! message, timer, and command passes through one `schedule` and one `pop`.
//! Two properties of the previous `BinaryHeap` implementation cost real
//! throughput at that call rate:
//!
//! - **Payloads moved during sifting.** Kernel events embed whole protocol
//!   messages (often close to a cache line each); a binary heap moves them
//!   `O(log n)` times per operation. Here the heap orders small 24-byte
//!   `(time, seq, slot, hint)` entries and payloads sit still in a slab.
//! - **Binary heaps are tall.** A 4-ary layout halves the tree height, and
//!   the four children of a node share at most two cache lines, so the
//!   extra comparisons per level are cheaper than the levels they save.
//!
//! The slab recycles vacated slots through a free list threaded through
//! the vacant slots themselves, so once the backing vectors have grown to
//! the steady-state high-water mark, scheduling and popping perform **zero
//! heap allocations** (asserted by the `zero_alloc` integration test).
//!
//! ## Memory follows pending work
//!
//! A simulation's first second is a storm (every node starts its timers
//! and joins at once) several times deeper than anything after it, and a
//! slab that only grows keeps that storm's capacity for the whole run. So
//! the queue has the dynamic array's shrink rule. Pops are counted in
//! *epochs* of as many pops as there are slots; when the deepest the queue
//! got over a whole epoch would fit twice over in what is reserved, the
//! queue compacts: payloads in the slab's tail move into the vacant slots
//! before them, their heap entries are pointed at the new slots — pop
//! order is `(at, seq)` and never looks at a slot number — and the slab is
//! cut down in place to that peak plus a quarter. A compaction scans no
//! more slots than its epoch had pops, so the rule is amortised O(1) per
//! pop, and a queue that oscillates between `n` and `2n` pending — timers
//! plus one message each in flight — never compacts at all. Judging
//! vacancy at a single pop instead would shrink at every trough of such
//! an oscillation and regrow at every crest. [`EventQueue::trim`] is the
//! rule for a caller that knows the queue is at rest.

use crate::time::SimTime;

/// Bytes of a node the kernel prefetches two events ahead: the four cache
/// lines a protocol keeps its dispatch-time state in (`GoCastNode`'s
/// `layout` test). A
/// [`Protocol::prefetch`](crate::Protocol::prefetch) hook may read only
/// pointers that end inside them: the kernel requested these lines one
/// event before it calls the hook.
pub const PREFETCH_BYTES: usize = 256;

/// Hints the cache to load the `lines` cache lines from `p` on. A
/// prefetch has no architectural effect — it changes no register, memory
/// or flag and cannot fault — so it cannot change what a run computes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch_lines(p: *const u8, lines: usize) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for line in 0..lines {
        // SAFETY: the instruction accepts any address, `wrapping_add` any
        // offset, and neither dereferences it.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(line * 64).cast()) };
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch_lines(_: *const u8, _: usize) {}

/// Hints the cache to load the leading [`PREFETCH_BYTES`] of `*t`: as many
/// lines from `t` on, a constant count the loop unrolls to.
#[inline(always)]
pub(crate) fn prefetch<T>(t: &T) {
    let lines = size_of::<T>().min(PREFETCH_BYTES).div_ceil(64);
    prefetch_lines(std::ptr::from_ref(t).cast(), lines);
}

/// Hints the cache to load every line `items` touches — the out-of-line
/// containers a [`Protocol::prefetch`](crate::Protocol::prefetch) hook
/// names. Like every prefetch it cannot change what a run computes.
#[inline(always)]
pub fn prefetch_slice<T>(items: &[T]) {
    let p = items.as_ptr().cast::<u8>();
    let skew = p as usize % 64;
    let lines = (skew + size_of_val(items)).div_ceil(64);
    prefetch_lines(p.wrapping_sub(skew), lines);
}

/// A scheduled entry: fires `payload` at `at`.
///
/// `seq` is the queue-assigned insertion number; equal-`at` entries pop in
/// increasing `seq` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order, used to break ties deterministically.
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

/// Heap arity. Four keeps sibling scans within two cache lines while
/// halving the tree height of a binary heap.
const ARITY: usize = 4;

/// A heap entry: the ordering key plus the slab slot holding the payload,
/// and the scheduler's hint in what would otherwise be padding.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
    /// Never part of the key: see [`EventQueue::schedule_hinted`].
    hint: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

/// The hint of an event scheduled without one.
const NO_HINT: u32 = u32::MAX;

impl Entry {
    /// `(at, seq)` as one integer, so a comparison is one wide subtract
    /// the compiler can turn into a conditional move.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// A payload slot: an event awaiting its pop, or a link of the free list.
#[derive(Debug)]
enum Slot<T> {
    Occupied(T),
    Vacant { next: u32 },
}

/// End of the free list.
const NIL: u32 = u32::MAX;

/// No shrink goes below this many slots: under it the slab is a few KiB,
/// and compacting would only cost small steady queues their
/// allocation-free path.
const MIN_SLOTS: usize = 64;

/// Capacity a shrink leaves for `pending` events: a quarter of headroom, so
/// the next few schedules do not immediately double it again.
fn shrunk_capacity(pending: usize) -> usize {
    (pending + pending / 4).max(MIN_SLOTS)
}

/// A deterministic future-event list.
///
/// ```
/// use gocast_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), "late");
/// q.schedule(SimTime::from_millis(10), "early");
/// q.schedule(SimTime::from_millis(10), "early-but-second");
///
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-but-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// 4-ary min-heap of small fixed-size entries.
    heap: Vec<Entry>,
    /// Payload storage; `heap` entries index into it.
    slab: Vec<Slot<T>>,
    /// First vacant slot (each links to the next), or [`NIL`].
    free_head: u32,
    next_seq: u64,
    /// Pops since the current epoch began; an epoch ends after
    /// `slab.len()` of them.
    epoch_pops: usize,
    /// Deepest the queue has been at a pop of the current epoch.
    epoch_peak: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// any backing vector reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free_head: NIL,
            next_seq: 0,
            epoch_pops: 0,
            epoch_peak: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// Events scheduled for the same instant fire in insertion order.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        self.schedule_hinted(at, NO_HINT, payload);
    }

    /// [`EventQueue::schedule`], with a word about the payload that
    /// [`EventQueue::next_hint`] reports while the event is the earliest
    /// pending one — without touching the payload's slot. The kernel puts
    /// the target node there, to start fetching that node's state one event
    /// ahead. A hint never takes part in ordering; `u32::MAX` reads back as
    /// no hint.
    #[inline]
    pub fn schedule_hinted(&mut self, at: SimTime, hint: u32, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_head {
            NIL => {
                self.slab.push(Slot::Occupied(payload));
                self.slab.len() as u32 - 1
            }
            slot => {
                let vacated =
                    std::mem::replace(&mut self.slab[slot as usize], Slot::Occupied(payload));
                let Slot::Vacant { next } = vacated else {
                    unreachable!("the free list links vacant slots only")
                };
                self.free_head = next;
                slot
            }
        };
        self.heap.push(Entry {
            at,
            seq,
            slot,
            hint,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        let top = *self.heap.first()?;
        self.epoch_peak = self.epoch_peak.max(self.heap.len());
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
            // The next pop takes this slot, written a network latency ago:
            // at scale it has left the cache since.
            prefetch(&self.slab[self.heap[0].slot as usize]);
        }
        let next = self.free_head;
        let popped = std::mem::replace(&mut self.slab[top.slot as usize], Slot::Vacant { next });
        let Slot::Occupied(payload) = popped else {
            unreachable!("a heap entry points at an occupied slot")
        };
        self.free_head = top.slot;
        self.epoch_pops += 1;
        if self.epoch_pops >= self.slab.len() {
            self.end_epoch();
        }
        Some(Scheduled {
            at: top.at,
            seq: top.seq,
            payload,
        })
    }

    /// Closes an epoch of `slab.len()` pops — as many as the slots a
    /// compaction scans — and starts the next.
    #[cold]
    fn end_epoch(&mut self) {
        if self.slab.capacity() > 2 * self.epoch_peak.max(MIN_SLOTS) {
            self.compact(shrunk_capacity(self.epoch_peak));
        }
        self.epoch_pops = 0;
        self.epoch_peak = self.heap.len();
    }

    /// Releases capacity the pending events do not need, for a caller that
    /// knows the queue is at rest (the engine, where a run call returns),
    /// so a queue that has drained need not wait an epoch of pops that may
    /// never come. The pending count may be the trough of a swing for
    /// whose crest the slab has just doubled, so this is the dynamic
    /// array's quarter rule: under it, returning at the trough of an
    /// `n`/`2n` oscillation never shrinks what the crest will need again.
    pub fn trim(&mut self) {
        let pending = self.heap.len();
        if self.slab.capacity() > 4 * pending.max(MIN_SLOTS) {
            self.compact(shrunk_capacity(pending));
        }
    }

    /// Packs the pending payloads into the first `len()` slots — those
    /// beyond move into the vacant slots before, and their heap entries are
    /// pointed at the new slot — then cuts the slab and the heap down to
    /// capacity `cap` in place.
    fn compact(&mut self, cap: usize) {
        let pending = self.heap.len();
        let mut hole = 0;
        for entry in &mut self.heap {
            let slot = entry.slot as usize;
            if slot >= pending {
                // As many slots before `pending` are vacant as there are
                // payloads beyond it.
                while matches!(self.slab[hole], Slot::Occupied(_)) {
                    hole += 1;
                }
                self.slab.swap(slot, hole);
                entry.slot = hole as u32;
            }
        }
        self.slab.truncate(pending);
        self.slab.shrink_to(cap);
        self.heap.shrink_to(cap);
        self.free_head = NIL;
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    ///
    /// Equivalent to checking [`EventQueue::peek_time`] and then calling
    /// [`EventQueue::pop`], but probes the heap top once — this is the
    /// kernel run loop's per-event fast path.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<Scheduled<T>> {
        if self.heap.first()?.at > deadline {
            return None;
        }
        self.pop()
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// The hint the earliest pending event was scheduled with, if any.
    #[inline]
    pub fn next_hint(&self) -> Option<u32> {
        self.heap.first().map(|e| e.hint).filter(|&h| h != NO_HINT)
    }

    /// The hint of the event that pops *second* — the least of the heap
    /// root's children — if at least two are pending and it has one. It
    /// names the second pop's hint unless an earlier event is scheduled
    /// before then.
    #[inline]
    pub fn second_hint(&self) -> Option<u32> {
        let least = match self.heap.get(1..1 + ARITY) {
            // A full set of children, as at any depth worth prefetching
            // for: a two-round tournament of index selects, no branches.
            Some(kids) => {
                let key = |i: usize| kids[i].key();
                let a = usize::from(key(1) < key(0));
                let b = 2 + usize::from(key(3) < key(2));
                &kids[if key(b) < key(a) { b } else { a }]
            }
            None => self.heap.get(1..)?.iter().min_by_key(|e| e.key())?,
        };
        Some(least.hint).filter(|&h| h != NO_HINT)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Pending-event capacity currently reserved (diagnostics: once this
    /// stops growing, steady-state scheduling no longer allocates).
    pub fn capacity(&self) -> usize {
        self.heap.capacity().min(self.slab.capacity())
    }

    /// Payload slots currently allocated: occupied ones plus the vacant
    /// ones on the free list — the deepest the queue has been since it
    /// last shrank.
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Bytes of backing storage currently reserved by the queue: the heap
    /// entries and the payload slab (whose vacant slots are the free
    /// list). Self-reported memory accounting for the scaling experiments
    /// — no `ps` required.
    pub fn mem_bytes(&self) -> u64 {
        (self.heap.capacity() * std::mem::size_of::<Entry>()
            + self.slab.capacity() * std::mem::size_of::<Slot<T>>()) as u64
    }

    fn sift_up(&mut self, mut i: usize) {
        let moved = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= moved.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let moved = self.heap[i];
        let moved_key = moved.key();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= n {
                break;
            }
            // Scanning the children as a subslice lets the compiler hoist
            // the bounds check out of the loop.
            let end = (first_child + ARITY).min(n);
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for (off, e) in self.heap[first_child..end].iter().enumerate().skip(1) {
                let k = e.key();
                if k < best_key {
                    best = first_child + off;
                    best_key = k;
                }
            }
            if best_key >= moved_key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 5u32);
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(3), 3);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(got, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_in_insertion_order_with_interleaved_pops() {
        // Same-timestamp FIFO must survive pops reshaping the heap.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..10u32 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop().unwrap().payload, 0);
        for i in 10..20u32 {
            q.schedule(t, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(got, (1..20).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(9), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..100u64 {
            q.schedule(SimTime::from_nanos(round), round);
            q.schedule(SimTime::from_nanos(round), round + 1);
            assert_eq!(q.pop().unwrap().payload, round);
            assert_eq!(q.pop().unwrap().payload, round + 1);
        }
        // Two live events at a time: the slab never needs more than the
        // initial capacity, so no backing vector has grown.
        assert!(q.capacity() >= 4);
        assert!(q.slab.len() <= 4, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn large_random_workload_sorts() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(rng.gen_range(0..1_000)), i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        while let Some(s) = q.pop() {
            if let Some(p) = prev {
                assert!((s.at, s.seq) > p, "order violated: {:?} after {:?}", s, p);
            }
            prev = Some((s.at, s.seq));
        }
    }
}
