//! The pending-event queue.
//!
//! A calendar queue (R. Brown, "Calendar queues", CACM 31(10), 1988) keyed
//! on `(time, tie)`. The tie is a monotonically increasing sequence number,
//! which breaks ties between events scheduled for the same instant in
//! insertion order, or a key the caller assigns
//! ([`EventQueue::schedule_keyed`]); either way simulation runs are fully
//! deterministic for a given seed.
//!
//! ## Three tiers
//!
//! This queue is the simulator's hottest data structure. A worker keeps
//! two: one for its nodes' timers, whose slots hold a timer, and one for
//! the messages, commands, crashes and faults, whose slots are sized for
//! the largest message. It pops them as one by their heads' keys
//! ([`EventQueue::peek_key`]), so every event passes through one
//! `schedule` and one `pop` of one of the two. Time is cut into buckets
//! ("days") of 2²⁰ ns ≈ 1 ms, and every pending event sits in one of three
//! tiers by its day, relative to the last day the front holds:
//!
//! - **The front**: every event up to that day, its slots sorted by
//!   descending key, so a pop is `Vec::pop` and the next two pops are the
//!   last two entries — [`EventQueue::peek_key`] reads either's key and
//!   hint in one load. A schedule into it (a delay shorter than what is
//!   left of the front's day) is a binary search and an insert.
//! - **The ring**: 512 buckets for the days after it, a horizon of ≈ 0.54 s
//!   past the 100 ms protocol periods and the 399 ms latency cap. A
//!   bucket is a list threaded through a per-slot key array, so a schedule
//!   is a push onto its list and no bucket owns an allocation. When a pop
//!   leaves the front fewer than two events, the front moves on through
//!   the next buckets that hold any, sorting each in behind what it
//!   still has, until it holds eight.
//!   A list is a chain of dependent loads, and at scale a key leaves the
//!   cache between its schedule and its bucket's turn, so every pop that does not
//!   refill takes one step along the next bucket's list, asking the cache
//!   for the key after it: the refill finds those slots in hand.
//! - **The far heap**: a 4-ary min-heap of the slots of the events past
//!   the horizon — garbage collection, heartbeats, pull timeouts and
//!   pre-scheduled commands. When the front moves on, the events the
//!   horizon now reaches move into their buckets; an empty ring moves the
//!   front straight to the far heap's earliest day.
//!
//! So a schedule and a pop cost O(1) plus a share of sorting one bucket,
//! where the 4-ary heap this replaced sifted through a tree as deep as the
//! pending count. Payloads never move: each sits in its slab slot from
//! schedule to pop, and the tiers order 4-byte slot numbers by the
//! 24-byte `(time, seq, hint, link)` key at the same index.
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
//! queue compacts: payloads and keys in the slab's tail move into the
//! vacant slots before them, the front, the bucket lists and the far heap
//! are pointed at the new slots — pop order is `(at, seq)` and never looks
//! at a slot number — and the slab is cut down in place to that peak plus
//! a quarter. A compaction scans no more slots than its epoch had pops, so
//! the rule is amortised O(1) per pop, and a queue that oscillates between
//! `n` and `2n` pending — a message per node in flight at the crest of
//! each round, none at its trough — never compacts at all. Judging
//! vacancy at a single pop instead would shrink at every trough of such an
//! oscillation and regrow at every crest.
//! [`EventQueue::trim`] is the rule for a caller that knows the queue is
//! at rest.

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
/// `seq` is the tie: the queue-assigned insertion number, or the caller's
/// key; equal-`at` entries pop in increasing `seq` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order, used to break ties deterministically.
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

/// Bucket width as a shift of the firing time in nanoseconds: 2²⁰ ns ≈
/// 1.05 ms, so a bucket's number is a shift, not a division.
const BUCKET_SHIFT: u32 = 20;

/// Buckets in the ring: a horizon of 2²⁹ ns ≈ 537 ms, past the 100 ms
/// gossip and maintenance periods and the 399 ms latency cap, for 2 KiB
/// of list heads.
const BUCKETS: u64 = 512;

/// Fewest events a refill leaves in the front, if as many are pending.
/// Two make both hints exact reads; eight spread a refill's fixed cost
/// over more pops where buckets hold one or two events (a simulation of a
/// few dozen nodes), and cost a queue with full buckets nothing.
const FRONT_MIN: usize = 8;

/// Most slots a walk stages ahead of a refill: more than a bucket of a
/// 10⁴-node run holds (≈ 570 events with timers and messages in one
/// queue, fewer in either of a worker's two), and a fixed 4 KiB
/// however deep the start-up storm's buckets are; a refill chases the
/// rest, a dependent miss a slot.
const WALK_MAX: usize = 1024;

/// The bucket ("day") an event falls in.
#[inline]
fn day_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// Far-heap arity. Four keeps sibling scans within two cache lines while
/// halving the tree height of a binary heap.
const ARITY: usize = 4;

/// A pending event's ordering key and the scheduler's hint, stored at its
/// slab slot, with the link to the next event of its ring bucket in what
/// would otherwise be padding.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    /// Never part of the key: see [`EventQueue::schedule_hinted`].
    hint: u32,
    /// Next slot of the same ring bucket, or [`NIL`].
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// `(at, seq)` as one integer, so a comparison is one wide subtract
    /// the compiler can turn into a conditional move.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// The hint of an event scheduled without one.
const NO_HINT: u32 = u32::MAX;

/// A payload slot: an event awaiting its pop, or a link of the free list.
#[derive(Debug)]
enum Slot<T> {
    Occupied(T),
    Vacant { next: u32 },
}

/// End of the free list and of a bucket's list.
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
    /// The slots of every event in a bucket up to `day`, by descending
    /// key: the last one pops next.
    front: Vec<u32>,
    /// The last bucket the front holds.
    day: u64,
    /// Per ring bucket, the first slot of its list, or [`NIL`]; empty
    /// until the first event lands in the ring. Bucket `b` holds the day
    /// after `day` that is `b` modulo [`BUCKETS`].
    heads: Vec<u32>,
    /// Events in the ring.
    ring_len: usize,
    /// A stretch of bucket `walk_day`'s list, in list order, from
    /// `walk_first` on: the slots the pops since the last refill have
    /// walked, one each ([`EventQueue::walk_next_bucket`]).
    walked: Vec<u32>,
    /// The bucket after the front's when the walk began.
    walk_day: u64,
    /// Its list's head when the walk began, or [`NIL`] if it was empty:
    /// everything scheduled into it since sits before this slot.
    walk_first: u32,
    /// The next slot to walk, its key already asked of the cache, or
    /// [`NIL`] at the end of the list. A refill chases the list from
    /// here.
    walk_next: u32,
    /// The slots of the events past the ring's horizon: a 4-ary min-heap
    /// on their keys.
    far: Vec<u32>,
    /// Per slab slot, the key of the event in it.
    keys: Vec<Key>,
    /// Payload storage.
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
    /// any backing vector reallocates, whichever tier they fall in.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            front: Vec::with_capacity(cap),
            day: 0,
            heads: Vec::new(),
            ring_len: 0,
            walked: Vec::new(),
            walk_day: 0,
            walk_first: NIL,
            walk_next: NIL,
            far: Vec::with_capacity(cap),
            keys: Vec::with_capacity(cap),
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
    /// [`EventQueue::peek_key`] reports while the event is the earliest or
    /// second pending one — without touching the payload's slot. The
    /// kernel puts the target node there, to start fetching that node's
    /// state ahead. A hint never takes part in ordering; `u32::MAX` is no
    /// hint.
    #[inline]
    pub fn schedule_hinted(&mut self, at: SimTime, hint: u32, payload: T) {
        self.schedule_keyed(at, self.next_seq, hint, payload);
    }

    /// [`EventQueue::schedule_hinted`] with the caller's own tie-break:
    /// events at one instant pop in increasing `tie`, which the caller keeps
    /// unique among pending events (a queue is scheduled by keys or
    /// without, not both). The kernel keys each event by whoever scheduled
    /// it and that scheduler's own count, so events pop in one order
    /// whichever queue holds them.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, tie: u64, hint: u32, payload: T) {
        let key = Key {
            at,
            seq: tie,
            hint,
            next: NIL,
        };
        self.next_seq += 1;
        let slot = match self.free_head {
            NIL => {
                self.slab.push(Slot::Occupied(payload));
                self.keys.push(key);
                self.slab.len() as u32 - 1
            }
            slot => {
                let vacated =
                    std::mem::replace(&mut self.slab[slot as usize], Slot::Occupied(payload));
                let Slot::Vacant { next } = vacated else {
                    unreachable!("the free list links vacant slots only")
                };
                self.free_head = next;
                self.keys[slot as usize] = key;
                slot
            }
        };
        let day = day_of(at);
        if day <= self.day {
            // Within the front's buckets: in place among them.
            let keys = &self.keys;
            let i = self
                .front
                .partition_point(|&s| keys[s as usize].key() > key.key());
            self.front.insert(i, slot);
        } else if day < self.day + BUCKETS {
            self.link(slot, day);
        } else {
            self.far.push(slot);
            let last = self.far.len() - 1;
            sift_up(&mut self.far, &self.keys, last);
        }
    }

    /// Pushes `slot` onto the list of its ring bucket.
    #[inline]
    fn link(&mut self, slot: u32, day: u64) {
        if self.heads.is_empty() {
            // The first ring event: a queue that never looks past its
            // front's bucket reserves no heads.
            self.heads = vec![NIL; BUCKETS as usize];
        }
        let head = &mut self.heads[(day % BUCKETS) as usize];
        self.keys[slot as usize].next = *head;
        *head = slot;
        self.ring_len += 1;
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.front.is_empty() {
            // Every schedule since the last pop went past the front.
            self.refill();
        }
        self.epoch_peak = self.epoch_peak.max(self.len());
        let top = self.front.pop()?;
        let key = self.keys[top as usize];
        if self.front.len() < 2 {
            self.refill();
        } else {
            self.walk_next_bucket();
        }
        if let Some(&next) = self.front.last() {
            // The next pop takes this slot, written a network latency ago:
            // at scale it has left the cache since.
            prefetch(&self.slab[next as usize]);
        }
        let next = self.free_head;
        let popped = std::mem::replace(&mut self.slab[top as usize], Slot::Vacant { next });
        let Slot::Occupied(payload) = popped else {
            unreachable!("the front holds occupied slots")
        };
        self.free_head = top;
        self.epoch_pops += 1;
        if self.epoch_pops >= self.slab.len() {
            self.end_epoch();
        }
        Some(Scheduled {
            at: key.at,
            seq: key.seq,
            payload,
        })
    }

    /// Brings the front up to [`FRONT_MIN`] events, or as many as are
    /// pending: moves it on to the next bucket that holds any, sorts that
    /// bucket in behind what the front still holds, and lets the far
    /// events the moved horizon now reaches into the ring. An empty ring
    /// first jumps to the far heap's earliest bucket.
    #[inline(never)]
    fn refill(&mut self) {
        while self.front.len() < FRONT_MIN {
            if self.ring_len == 0 {
                let Some(&first) = self.far.first() else {
                    break;
                };
                // Every far bucket is past the ring's, so this never goes
                // back.
                self.day = day_of(self.keys[first as usize].at) - 1;
                self.admit_far();
            }
            // A non-empty ring holds a bucket within `BUCKETS` of `day`.
            loop {
                self.day += 1;
                if self.heads[(self.day % BUCKETS) as usize] != NIL {
                    break;
                }
            }
            self.admit_far();
            let held = self.front.len();
            let mut slot = std::mem::replace(&mut self.heads[(self.day % BUCKETS) as usize], NIL);
            // What the walk staged needs no chasing: take the slots
            // scheduled since it began, then its suffix, then what it
            // had not reached.
            let walked = self.walk_day == self.day && self.walk_first != NIL;
            let stop = if walked { self.walk_first } else { NIL };
            while slot != stop {
                self.front.push(slot);
                slot = self.keys[slot as usize].next;
            }
            if walked {
                self.front.extend_from_slice(&self.walked);
                slot = self.walk_next;
                while slot != NIL {
                    self.front.push(slot);
                    slot = self.keys[slot as usize].next;
                }
            }
            self.ring_len -= self.front.len() - held;
            // The bucket is later than all the front held: sorted, it
            // goes before it.
            let keys = &self.keys;
            self.front[held..].sort_unstable_by_key(|&s| std::cmp::Reverse(keys[s as usize].key()));
            let taken = self.front.len() - held;
            self.front.rotate_right(taken);
        }
        // Walk the next bucket while the front drains.
        self.walked.clear();
        self.walk_day = self.day + 1;
        self.walk_first = match self.heads.get((self.walk_day % BUCKETS) as usize) {
            Some(&head) if self.ring_len > 0 => head,
            _ => NIL,
        };
        self.walk_next = self.walk_first;
        if let Some(k) = self.keys.get(self.walk_next as usize) {
            prefetch(k);
        }
    }

    /// One step along the list of the bucket after the front's: stages the
    /// slot whose key the last pop asked the cache for, and asks for the
    /// next one. A refill then finds a bucket's slots in hand and its keys
    /// fetched in parallel, not behind a chain of dependent misses — at
    /// scale, a key leaves the cache between its schedule and its pop.
    #[inline(always)]
    fn walk_next_bucket(&mut self) {
        let slot = self.walk_next;
        if slot != NIL && self.walked.len() < WALK_MAX {
            self.walked.push(slot);
            self.walk_next = self.keys[slot as usize].next;
            if let Some(k) = self.keys.get(self.walk_next as usize) {
                prefetch(k);
            }
        }
    }

    /// Moves the far events that fall within the ring's horizon into their
    /// buckets.
    fn admit_far(&mut self) {
        let horizon = self.day + BUCKETS;
        while let Some(&slot) = self.far.first() {
            let day = day_of(self.keys[slot as usize].at);
            if day >= horizon {
                break;
            }
            let last = self.far.pop().expect("non-empty heap");
            if !self.far.is_empty() {
                self.far[0] = last;
                sift_down(&mut self.far, &self.keys, 0);
            }
            self.link(slot, day);
        }
    }

    /// Closes an epoch of `slab.len()` pops — as many as the slots a
    /// compaction scans — and starts the next.
    #[cold]
    fn end_epoch(&mut self) {
        if self.slab.capacity() > 2 * self.epoch_peak.max(MIN_SLOTS) {
            self.compact(shrunk_capacity(self.epoch_peak));
        }
        self.epoch_pops = 0;
        self.epoch_peak = self.len();
    }

    /// Releases capacity the pending events do not need, for a caller that
    /// knows the queue is at rest (the engine, where a run call returns),
    /// so a queue that has drained need not wait an epoch of pops that may
    /// never come. The pending count may be the trough of a swing for
    /// whose crest the slab has just doubled, so this is the dynamic
    /// array's quarter rule: under it, returning at the trough of an
    /// `n`/`2n` oscillation never shrinks what the crest will need again.
    pub fn trim(&mut self) {
        let pending = self.len();
        if self.slab.capacity() > 4 * pending.max(MIN_SLOTS) {
            self.compact(shrunk_capacity(pending));
        }
    }

    /// Packs the pending payloads into the first `len()` slots — each one
    /// beyond moves, key and all, into a vacant slot before and leaves that
    /// slot's number behind in its own, by which the front, the bucket
    /// lists and the far heap are re-pointed — then cuts the slab and the
    /// keys down to capacity `cap` in place, and the front and the far
    /// heap to a quarter above what they hold.
    fn compact(&mut self, cap: usize) {
        let pending = self.len();
        let mut hole = 0;
        for slot in pending..self.slab.len() {
            if matches!(self.slab[slot], Slot::Occupied(_)) {
                // As many slots before `pending` are vacant as there are
                // payloads beyond it.
                while matches!(self.slab[hole], Slot::Occupied(_)) {
                    hole += 1;
                }
                self.slab.swap(slot, hole);
                self.slab[slot] = Slot::Vacant { next: hole as u32 };
                self.keys[hole] = self.keys[slot];
            }
        }
        let slab = &self.slab;
        let moved = |slot: u32| match slab.get(slot as usize) {
            Some(&Slot::Vacant { next }) if slot as usize >= pending => next,
            _ => slot,
        };
        for slot in self.front.iter_mut().chain(&mut self.far) {
            *slot = moved(*slot);
        }
        for head in &mut self.heads {
            *head = moved(*head);
            let mut slot = *head;
            while slot != NIL {
                let next = &mut self.keys[slot as usize].next;
                *next = moved(*next);
                slot = *next;
            }
        }
        // The walk starts again with the next refill.
        self.walked.clear();
        self.walk_first = NIL;
        self.walk_next = NIL;
        self.slab.truncate(pending);
        self.keys.truncate(pending);
        self.slab.shrink_to(cap);
        self.keys.shrink_to(cap);
        // The front and the far heap hold a share of the events that
        // moves with the clock, not with the pending count.
        self.front.shrink_to(shrunk_capacity(self.front.len()));
        self.far.shrink_to(shrunk_capacity(self.far.len()));
        self.free_head = NIL;
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    ///
    /// Equivalent to checking [`EventQueue::peek_time`] and then calling
    /// [`EventQueue::pop`], but probes the front once.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<Scheduled<T>> {
        if self.front.is_empty() {
            self.refill();
        }
        if self.keys[*self.front.last()? as usize].at > deadline {
            return None;
        }
        self.pop()
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest(0).map(|k| k.at)
    }

    /// The `(at, tie)` key and the hint (`u32::MAX` for none) of the event
    /// that pops `rank`-th, 0 or 1: what a caller that pops two queues as
    /// one compares, and the node the kernel prefetches for. The second
    /// pop's is exact unless an earlier event is scheduled before then.
    /// Where every schedule since the last pop went past the front, the
    /// front moves on first, as the next pop would move it, so the read
    /// stays a front entry.
    #[inline]
    pub fn peek_key(&mut self, rank: usize) -> Option<(SimTime, u64, u32)> {
        if self.front.is_empty() {
            self.refill();
        }
        self.earliest(rank).map(|k| (k.at, k.seq, k.hint))
    }

    /// The key of the event that pops `rank`-th, 0 or 1: a front entry,
    /// as a pop leaves two there whenever two are pending. Only schedules
    /// since the last pop can have left the front short.
    #[inline(always)]
    fn earliest(&self, rank: usize) -> Option<Key> {
        let n = self.front.len();
        if n > rank {
            return Some(self.keys[self.front[n - 1 - rank] as usize]);
        }
        self.earliest_past_front(rank)
    }

    /// [`EventQueue::earliest`] for a short front, read without moving it:
    /// the front's events come first, then the ring's buckets in day order
    /// (each wholly before the next), then the far heap, whose second
    /// least key is one of the root's children.
    #[cold]
    fn earliest_past_front(&self, rank: usize) -> Option<Key> {
        let mut least: [Option<Key>; 2] = [None, None];
        let mut offer = |slot: u32| {
            let k = self.keys[slot as usize];
            if least[0].is_none_or(|l| k.key() < l.key()) {
                least = [Some(k), least[0]];
            } else if least[1].is_none_or(|l| k.key() < l.key()) {
                least[1] = Some(k);
            }
            least[rank].is_some()
        };
        let mut found = false;
        for &slot in &self.front {
            found = offer(slot);
        }
        let (mut day, mut ring_left) = (self.day, self.ring_len);
        while !found && ring_left > 0 {
            day += 1;
            let mut slot = self.heads[(day % BUCKETS) as usize];
            while slot != NIL {
                found = offer(slot);
                ring_left -= 1;
                slot = self.keys[slot as usize].next;
            }
        }
        if !found {
            for &slot in self.far.iter().take(1 + ARITY) {
                offer(slot);
            }
        }
        least[rank]
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.front.len() + self.ring_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue, keyed or not.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Payload slots currently reserved (diagnostics: once this stops
    /// growing, steady-state scheduling no longer allocates).
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Payload slots currently allocated: occupied ones plus the vacant
    /// ones on the free list — the deepest the queue has been since it
    /// last shrank.
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Bytes of backing storage currently reserved by the queue: the
    /// payload slab (whose vacant slots are the free list) and its keys,
    /// and the slot numbers of the front, the ring's heads and the far
    /// heap. Self-reported memory accounting for the scaling experiments
    /// — no `ps` required.
    pub fn mem_bytes(&self) -> u64 {
        let slot_numbers = self.front.capacity()
            + self.walked.capacity()
            + self.heads.capacity()
            + self.far.capacity();
        (self.slab.capacity() * size_of::<Slot<T>>()
            + self.keys.capacity() * size_of::<Key>()
            + slot_numbers * size_of::<u32>()) as u64
    }
}

/// Moves the far heap's entry at `i` up past every parent with a greater
/// key.
fn sift_up(heap: &mut [u32], keys: &[Key], mut i: usize) {
    let moved = heap[i];
    let moved_key = keys[moved as usize].key();
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if keys[heap[parent] as usize].key() <= moved_key {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = moved;
}

/// Moves the far heap's entry at `i` down past every least child with a
/// smaller key.
fn sift_down(heap: &mut [u32], keys: &[Key], mut i: usize) {
    let n = heap.len();
    let moved = heap[i];
    let moved_key = keys[moved as usize].key();
    loop {
        let first_child = i * ARITY + 1;
        if first_child >= n {
            break;
        }
        let end = (first_child + ARITY).min(n);
        let mut best = first_child;
        let mut best_key = keys[heap[first_child] as usize].key();
        for (off, &slot) in heap[first_child..end].iter().enumerate().skip(1) {
            let k = keys[slot as usize].key();
            if k < best_key {
                best = first_child + off;
                best_key = k;
            }
        }
        if best_key >= moved_key {
            break;
        }
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = moved;
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
    fn refill_takes_what_the_walk_staged_and_what_it_did_not() {
        // Bucket 2 holds more than a walk stages, and gains events while
        // bucket 1 drains and the walk runs along it.
        let (day, cap) = (1u64 << BUCKET_SHIFT, WALK_MAX as u64);
        let mut q = EventQueue::new();
        for i in 0..cap + 40 {
            q.schedule(SimTime::from_nanos(day + i), i);
        }
        for i in 0..2 * cap {
            q.schedule(SimTime::from_nanos(2 * day + 3 * cap - i), 10 * cap + i);
        }
        let mut popped = Vec::new();
        for i in 0..cap + 20 {
            popped.push(q.pop().expect("pending"));
            q.schedule(SimTime::from_nanos(2 * day + 2 * i), 20 * cap + i);
        }
        assert_eq!(q.walked.len(), WALK_MAX, "the walk stops at its cap");
        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped.len() as u64, 4 * cap + 60);
        for pair in popped.windows(2) {
            assert!((pair[0].at, pair[0].seq) < (pair[1].at, pair[1].seq));
        }
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
