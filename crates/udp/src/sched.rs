//! Deadline scheduling for a wall-clock deployment host.
//!
//! A [`TimerWheel`] orders pending [`Timer`]s by monotonic-clock deadline
//! and adds the two facilities a real host needs that the simulation
//! kernel's event queue does not:
//!
//! - **dedup**: scheduling a timer whose identity `(kind, a, b)` already
//!   has a live entry *replaces* it — the superseded entry is invalidated
//!   by a per-identity generation counter and skipped when it surfaces.
//!   GoCast's timer contract already requires handlers to tolerate stale
//!   firings (timers are one-shot and uncancellable at the protocol
//!   level), and no GoCast timer relies on two concurrent in-flight
//!   instances of the same identity, so dedup is behaviour-preserving
//!   while keeping the heap from accumulating superseded periodic timers;
//! - **cancellation**: [`TimerWheel::cancel`] invalidates the live entry
//!   for an identity without a heap scan (the host uses this for its own
//!   bookkeeping timers, e.g. delayed-datagram release in the testnet
//!   fabric).
//!
//! Invalidated entries are removed lazily when they reach the top of the
//! heap; the per-identity generation table shrinks back to empty as
//! entries drain, so memory stays proportional to *pending* timers even
//! across long runs with per-message timer identities.
//!
//! ```
//! use gocast_sim::Timer;
//! use gocast_udp::TimerWheel;
//! use std::time::{Duration, Instant};
//!
//! let mut wheel = TimerWheel::new();
//! let t0 = Instant::now();
//! wheel.schedule(t0 + Duration::from_millis(20), Timer::of_kind(1));
//! wheel.schedule(t0 + Duration::from_millis(10), Timer::of_kind(2));
//! // Rescheduling kind 1 replaces the 20 ms entry.
//! wheel.schedule(t0 + Duration::from_millis(5), Timer::of_kind(1));
//! assert_eq!(wheel.len(), 2);
//! assert_eq!(wheel.next_deadline(), Some(t0 + Duration::from_millis(5)));
//! let fired = wheel.pop_due(t0 + Duration::from_millis(30)).unwrap();
//! assert_eq!(fired.kind, 1);
//! ```

use std::collections::BinaryHeap;
use std::time::Instant;

use gocast_sim::{FxHashMap, Timer};

/// A heap entry: deadline, FIFO tiebreak, and the generation it was
/// scheduled under (mismatching the identity's current generation marks
/// it stale).
#[derive(Debug)]
struct Entry {
    at: Instant,
    seq: u64,
    gen: u64,
    timer: Timer,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Per-identity state: the current generation and how many heap entries
/// (live or stale) still reference this identity.
#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    gen: u64,
    in_heap: u32,
    live: bool,
}

/// A monotonic-clock timer queue with identity-based dedup and
/// cancellation. See the [module docs](self) for semantics.
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Entry>,
    slots: FxHashMap<Timer, Slot>,
    seq: u64,
    live: usize,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Number of live (not superseded, not cancelled) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live timers are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `timer` to fire at `at`. If a live entry with the same
    /// identity is already pending it is superseded (dedup): only this
    /// newest schedule will fire.
    pub fn schedule(&mut self, at: Instant, timer: Timer) {
        let slot = self.slots.entry(timer).or_default();
        slot.gen += 1;
        slot.in_heap += 1;
        if !slot.live {
            slot.live = true;
            self.live += 1;
        }
        self.seq += 1;
        self.heap.push(Entry {
            at,
            seq: self.seq,
            gen: slot.gen,
            timer,
        });
    }

    /// Cancels the live entry for `timer`'s identity, if any. Returns
    /// whether a live entry was cancelled.
    pub fn cancel(&mut self, timer: Timer) -> bool {
        match self.slots.get_mut(&timer) {
            Some(slot) if slot.live => {
                slot.gen += 1;
                slot.live = false;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// The deadline of the earliest live timer, draining stale entries
    /// off the top of the heap as a side effect.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        loop {
            let head = self.heap.peek()?;
            if self.is_live(head) {
                return Some(head.at);
            }
            let entry = self.heap.pop().expect("peeked");
            self.release(entry.timer);
        }
    }

    /// Pops the earliest live timer whose deadline is at or before `now`.
    /// Returns `None` when nothing further is due.
    pub fn pop_due(&mut self, now: Instant) -> Option<Timer> {
        loop {
            let head = self.heap.peek()?;
            let live = self.is_live(head);
            if live && head.at > now {
                return None;
            }
            let entry = self.heap.pop().expect("peeked");
            self.release(entry.timer);
            if live {
                let slot = self.slots.entry(entry.timer).or_default();
                if slot.live {
                    slot.live = false;
                    self.live -= 1;
                }
                self.drop_empty(entry.timer);
                return Some(entry.timer);
            }
        }
    }

    fn is_live(&self, entry: &Entry) -> bool {
        self.slots
            .get(&entry.timer)
            .is_some_and(|s| s.live && s.gen == entry.gen)
    }

    /// Accounts for one heap entry of `timer`'s identity leaving the heap.
    fn release(&mut self, timer: Timer) {
        if let Some(slot) = self.slots.get_mut(&timer) {
            slot.in_heap = slot.in_heap.saturating_sub(1);
        }
        self.drop_empty(timer);
    }

    /// Removes the identity's slot once no heap entries reference it, so
    /// the table stays proportional to pending timers.
    fn drop_empty(&mut self, timer: Timer) {
        if let Some(slot) = self.slots.get(&timer) {
            if slot.in_heap == 0 && !slot.live {
                self.slots.remove(&timer);
            }
        }
    }
}

/// A deadline-ordered queue of arbitrary payloads (FIFO within a
/// deadline), the companion to [`TimerWheel`] for work that is *held*
/// rather than *scheduled* — e.g. jitter-delayed datagrams in the
/// testnet fabric.
///
/// An event loop that sleeps when idle must take its wake-up time from
/// **both** structures: `min(wheel.next_deadline(), queue.next_deadline())`.
/// Computing the sleep from the timer wheel head alone delivers held
/// items late under light load — the loop dozes past their release time
/// because nothing else is due. Keeping the held-item heap behind the
/// same `next_deadline`/`pop_due` API as the wheel makes that mistake
/// hard to write.
#[derive(Debug)]
pub struct DelayQueue<T> {
    heap: BinaryHeap<Held<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Held<T> {
    at: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Held<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Held<T> {}
impl<T> PartialOrd for Held<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Held<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> DelayQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        DelayQueue::default()
    }

    /// Number of held items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no items are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Holds `item` until `at`.
    pub fn push(&mut self, at: Instant, item: T) {
        self.seq += 1;
        self.heap.push(Held {
            at,
            seq: self.seq,
            item,
        });
    }

    /// The release time of the earliest held item, if any. Feed this into
    /// the event loop's idle-sleep computation alongside
    /// [`TimerWheel::next_deadline`].
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|h| h.at)
    }

    /// Pops the earliest item whose release time is at or before `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.heap.peek()?.at > now {
            return None;
        }
        Some(self.heap.pop().expect("peeked").item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn base() -> Instant {
        Instant::now()
    }

    #[test]
    fn fires_in_deadline_order() {
        let t0 = base();
        let mut w = TimerWheel::new();
        w.schedule(t0 + Duration::from_millis(30), Timer::of_kind(3));
        w.schedule(t0 + Duration::from_millis(10), Timer::of_kind(1));
        w.schedule(t0 + Duration::from_millis(20), Timer::of_kind(2));
        let now = t0 + Duration::from_millis(40);
        let fired: Vec<u32> = std::iter::from_fn(|| w.pop_due(now))
            .map(|t| t.kind)
            .collect();
        assert_eq!(fired, vec![1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn nothing_due_before_deadline() {
        let t0 = base();
        let mut w = TimerWheel::new();
        w.schedule(t0 + Duration::from_millis(10), Timer::of_kind(1));
        assert_eq!(w.pop_due(t0), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn rescheduling_same_identity_replaces() {
        let t0 = base();
        let mut w = TimerWheel::new();
        let t = Timer::with_payload(7, 1, 2);
        w.schedule(t0 + Duration::from_millis(10), t);
        w.schedule(t0 + Duration::from_millis(50), t);
        assert_eq!(w.len(), 1);
        // Only the 50 ms instance is live: nothing fires at 20 ms.
        assert_eq!(w.pop_due(t0 + Duration::from_millis(20)), None);
        assert_eq!(w.pop_due(t0 + Duration::from_millis(60)), Some(t));
        assert_eq!(w.pop_due(t0 + Duration::from_millis(60)), None);
    }

    #[test]
    fn distinct_payloads_are_distinct_identities() {
        let t0 = base();
        let mut w = TimerWheel::new();
        w.schedule(t0 + Duration::from_millis(10), Timer::with_payload(5, 0, 1));
        w.schedule(t0 + Duration::from_millis(10), Timer::with_payload(5, 0, 2));
        assert_eq!(w.len(), 2);
        let now = t0 + Duration::from_millis(20);
        assert!(w.pop_due(now).is_some());
        assert!(w.pop_due(now).is_some());
        assert!(w.pop_due(now).is_none());
    }

    #[test]
    fn cancel_prevents_firing() {
        let t0 = base();
        let mut w = TimerWheel::new();
        let t = Timer::of_kind(9);
        w.schedule(t0 + Duration::from_millis(5), t);
        assert!(w.cancel(t));
        assert!(!w.cancel(t)); // already cancelled
        assert_eq!(w.pop_due(t0 + Duration::from_millis(10)), None);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_skips_stale_entries() {
        let t0 = base();
        let mut w = TimerWheel::new();
        let t = Timer::of_kind(1);
        w.schedule(t0 + Duration::from_millis(5), t);
        w.schedule(t0 + Duration::from_millis(50), t); // supersedes the 5 ms entry
        w.schedule(t0 + Duration::from_millis(20), Timer::of_kind(2));
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(20)));
    }

    #[test]
    fn delay_queue_releases_in_order_and_exposes_deadline() {
        let t0 = base();
        let mut q = DelayQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_deadline(), None);
        q.push(t0 + Duration::from_millis(30), "late");
        q.push(t0 + Duration::from_millis(10), "early");
        q.push(t0 + Duration::from_millis(10), "early2"); // FIFO tie
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(q.pop_due(t0), None, "nothing due yet");
        let now = t0 + Duration::from_millis(20);
        assert_eq!(q.pop_due(now), Some("early"));
        assert_eq!(q.pop_due(now), Some("early2"));
        assert_eq!(q.pop_due(now), None, "30 ms item not due at 20 ms");
        assert_eq!(q.pop_due(t0 + Duration::from_millis(40)), Some("late"));
        assert!(q.is_empty());
    }

    /// Regression for the idle-sleep bug class: a loop that computes its
    /// sleep from the timer wheel alone would doze to 500 ms here and
    /// release the held item ~490 ms late. Taking the min over both
    /// structures wakes at 10 ms.
    #[test]
    fn combined_wakeup_respects_the_delay_queue_head() {
        let t0 = base();
        let mut wheel = TimerWheel::new();
        let mut held: DelayQueue<u32> = DelayQueue::new();
        wheel.schedule(t0 + Duration::from_millis(500), Timer::of_kind(1));
        held.push(t0 + Duration::from_millis(10), 7);
        let wake = match (wheel.next_deadline(), held.next_deadline()) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).unwrap(),
        };
        assert_eq!(wake, t0 + Duration::from_millis(10));
        assert_eq!(held.pop_due(wake), Some(7));
    }

    #[test]
    fn slot_table_drains_with_the_heap() {
        let t0 = base();
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            // Per-message identities, like GoCast's pull timers.
            w.schedule(t0, Timer::with_payload(6, 0, i));
        }
        // Reschedule half of them (creates stale entries too).
        for i in 0..50u64 {
            w.schedule(t0 + Duration::from_millis(1), Timer::with_payload(6, 0, i));
        }
        let now = t0 + Duration::from_millis(5);
        let mut fired = 0;
        while w.pop_due(now).is_some() {
            fired += 1;
        }
        assert_eq!(fired, 100);
        assert!(w.is_empty());
        assert!(w.slots.is_empty(), "identity table must drain to empty");
    }
}
