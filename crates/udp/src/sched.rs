//! Deadline queues on the monotonic clock.
//!
//! A [`DelayQueue`] holds payloads until an [`Instant`], releasing them in
//! deadline order (FIFO within a deadline). A [`TimerWheel`] is a
//! `DelayQueue` of protocol [`Timer`]s under the one timer contract every
//! host keeps: a timer is one-shot and cannot be cancelled, and every
//! schedule fires once, at or after its deadline — two schedules of one
//! identity `(kind, a, b)` fire twice, as they do in the simulation
//! kernel.
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
//! // A second schedule of kind 1 adds an entry; it replaces nothing.
//! wheel.schedule(t0 + Duration::from_millis(5), Timer::of_kind(1));
//! assert_eq!(wheel.len(), 3);
//! assert_eq!(wheel.next_deadline(), Some(t0 + Duration::from_millis(5)));
//! let fired = wheel.pop_due(t0 + Duration::from_millis(30)).unwrap();
//! assert_eq!(fired.kind, 1);
//! ```

use std::collections::BinaryHeap;
use std::time::Instant;

use gocast_sim::Timer;

/// Protocol timers ordered by monotonic-clock deadline: every schedule
/// fires once. See the [module docs](self).
#[derive(Debug, Default)]
pub struct TimerWheel(DelayQueue<Timer>);

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Schedules `timer` to fire at `at`.
    pub fn schedule(&mut self, at: Instant, timer: Timer) {
        self.0.push(at, timer);
    }

    /// The deadline of the earliest pending timer.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.0.next_deadline()
    }

    /// Pops the earliest timer whose deadline is at or before `now`.
    /// Returns `None` when nothing further is due.
    pub fn pop_due(&mut self, now: Instant) -> Option<Timer> {
        self.0.pop_due(now)
    }
}

/// A deadline-ordered queue of arbitrary payloads (FIFO within a
/// deadline), the companion to [`TimerWheel`] for work that is *held*
/// rather than *scheduled* — e.g. jitter-delayed datagrams.
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
    fn every_schedule_of_one_identity_fires() {
        let t0 = base();
        let mut w = TimerWheel::new();
        let t = Timer::with_payload(7, 1, 2);
        w.schedule(t0 + Duration::from_millis(10), t);
        w.schedule(t0 + Duration::from_millis(50), t);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop_due(t0 + Duration::from_millis(20)), Some(t));
        assert_eq!(w.pop_due(t0 + Duration::from_millis(20)), None);
        assert_eq!(w.pop_due(t0 + Duration::from_millis(60)), Some(t));
        assert!(w.is_empty());
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
}
