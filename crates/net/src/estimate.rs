//! Decentralized latency estimation (the paper's "triangular heuristic").
//!
//! A joining GoCast node must rank hundreds of member-list candidates by
//! latency *without* pinging them all. The paper cites the triangular
//! heuristic of Ng & Zhang [13] and omits details. We implement the standard
//! landmark formulation: every node measures its RTT to a small fixed set of
//! landmark nodes; the RTT between two nodes is then estimated from their
//! landmark vectors using triangle-inequality bounds — for each landmark
//! `i`, `|a_i - b_i| <= rtt(A,B) <= a_i + b_i` — taking the midpoint of the
//! tightest bounds.
//!
//! Landmark vectors travel inside membership entries, so any node can rank
//! any candidate it has heard of.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Default number of landmark nodes.
pub const DEFAULT_LANDMARKS: usize = 8;

/// Maximum number of landmark slots a [`LandmarkVector`] can hold.
///
/// Landmark vectors ride inside every gossip, pong, and membership entry,
/// so they are stored inline (no heap indirection): cloning one is a plain
/// memcpy and hot-path message construction performs no allocation for
/// coordinates. The cap bounds the inline size; configurations requesting
/// more landmarks are clamped to it.
pub const MAX_LANDMARKS: usize = DEFAULT_LANDMARKS;

/// A slot's 24 bits all set: not measured. Presented as `u32::MAX` by
/// [`LandmarkVector::rtt_us_at`] and on the wire.
const UNMEASURED: u32 = 0xFF_FFFF;

/// Largest RTT a slot stores, in microseconds (16.777214 s): one below
/// [`UNMEASURED`], so a measured slot never aliases it.
const MAX_RTT_US: u32 = UNMEASURED - 1;

/// A node's measured RTTs to the landmark set, in microseconds.
///
/// An empty vector means "not yet measured"; estimation then fails and the
/// caller falls back to an arbitrary ordering (exactly the cold-start
/// behaviour of the paper's protocol, which refines by real RTT probes
/// anyway).
///
/// Storage is a fixed inline array of [`MAX_LANDMARKS`] slots plus a
/// length, so the type is `Copy` and never touches the heap. Every member
/// view keeps one vector per known peer and every gossip, pong and queued
/// event carries some, so a slot is as wide as the data: 24 bits of
/// little-endian microseconds (25 bytes for the whole vector, alignment 1).
/// Simulated one-way latency is capped at 399 ms and a neighbour silent for
/// 10 s is dropped, so no RTT the protocol can act on comes near the 16.7 s
/// a slot holds; [`set`](Self::set) stores anything below that exactly and
/// saturates a larger RTT to the largest *measured* value. Unused slots
/// hold the all-ones pattern ("unmeasured"), which keeps derived equality
/// honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LandmarkVector {
    rtt_us: [[u8; 3]; MAX_LANDMARKS],
    len: u8,
}

const _: () = assert!(size_of::<LandmarkVector>() == 25);
const _: () = assert!(align_of::<LandmarkVector>() == 1);

impl Default for LandmarkVector {
    fn default() -> Self {
        LandmarkVector {
            rtt_us: [[0xFF; 3]; MAX_LANDMARKS],
            len: 0,
        }
    }
}

impl LandmarkVector {
    /// An unmeasured (empty) vector.
    pub fn unknown() -> Self {
        LandmarkVector::default()
    }

    /// Builds a vector from measured landmark RTTs.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`MAX_LANDMARKS`] values.
    pub fn from_rtts<I: IntoIterator<Item = Duration>>(rtts: I) -> Self {
        let mut v = LandmarkVector::default();
        for (i, d) in rtts.into_iter().enumerate() {
            v.set(i, d);
        }
        v
    }

    /// Number of landmarks measured.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no landmarks have been measured yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot `i` as stored: microseconds, or [`UNMEASURED`].
    fn slot(&self, i: usize) -> u32 {
        let [a, b, c] = self.rtt_us[i];
        u32::from_le_bytes([a, b, c, 0])
    }

    /// Writes slot `i` as stored, growing the length to cover it.
    fn store(&mut self, i: usize, slot: u32) {
        assert!(
            i < MAX_LANDMARKS,
            "landmark index {i} exceeds MAX_LANDMARKS ({MAX_LANDMARKS})"
        );
        let [a, b, c, _] = slot.to_le_bytes();
        self.rtt_us[i] = [a, b, c];
        self.len = self.len.max(i as u8 + 1);
    }

    /// Records the RTT to landmark `i`, growing the length as needed
    /// (intervening slots stay unmeasured). An RTT of 2²⁴ − 1 µs or more is
    /// stored as 2²⁴ − 2 µs: a probed slot stays measured however slow the
    /// probe was.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_LANDMARKS`.
    pub fn set(&mut self, i: usize, rtt: Duration) {
        self.store(i, rtt.as_micros().min(MAX_RTT_US as u128) as u32);
    }

    /// Marks landmark `i` as not measured, growing the length as needed:
    /// how a wire codec restores a slot that [`rtt_us_at`](Self::rtt_us_at)
    /// presented as `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_LANDMARKS`.
    pub fn set_unmeasured(&mut self, i: usize) {
        self.store(i, UNMEASURED);
    }

    /// Whether every landmark slot up to `n` has been measured.
    pub fn is_complete(&self, n: usize) -> bool {
        self.len() >= n && (0..n).all(|i| self.slot(i) != UNMEASURED)
    }

    /// Raw RTT of landmark slot `i` in microseconds (`u32::MAX` =
    /// unmeasured). Used by wire codecs.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn rtt_us_at(&self, i: usize) -> u32 {
        assert!(
            i < self.len(),
            "landmark slot {i} beyond len {}",
            self.len()
        );
        match self.slot(i) {
            UNMEASURED => u32::MAX,
            us => us,
        }
    }

    /// Estimates the RTT to a node with vector `other` via the triangular
    /// heuristic. Returns `None` when either vector is empty or the vectors
    /// share no measured landmark.
    ///
    /// ```
    /// use gocast_net::LandmarkVector;
    /// use std::time::Duration;
    ///
    /// let ms = |v| Duration::from_millis(v);
    /// let a = LandmarkVector::from_rtts([ms(10), ms(100)]);
    /// let b = LandmarkVector::from_rtts([ms(90), ms(20)]);
    /// let est = a.estimate_rtt(&b).unwrap();
    /// // Bounds: max(|10-90|, |100-20|) = 80 .. min(10+90, 100+20) = 100.
    /// assert_eq!(est, ms(90));
    /// ```
    pub fn estimate_rtt(&self, other: &LandmarkVector) -> Option<Duration> {
        let mut lower = 0u64;
        let mut upper = u64::MAX;
        let mut shared = false;
        for i in 0..self.len().min(other.len()) {
            let (a, b) = (self.slot(i), other.slot(i));
            if a == UNMEASURED || b == UNMEASURED {
                continue;
            }
            shared = true;
            let (a, b) = (a as u64, b as u64);
            lower = lower.max(a.abs_diff(b));
            upper = upper.min(a + b);
        }
        if !shared {
            return None;
        }
        // Noisy measurements can cross the bounds; midpoint still works.
        let est = if upper >= lower {
            (lower + upper) / 2
        } else {
            upper
        };
        Some(Duration::from_micros(est))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_vectors_yield_none() {
        let a = LandmarkVector::unknown();
        let b = LandmarkVector::from_rtts([ms(10)]);
        assert_eq!(a.estimate_rtt(&b), None);
        assert_eq!(b.estimate_rtt(&a), None);
        assert!(a.is_empty());
    }

    #[test]
    fn estimate_is_symmetric() {
        let a = LandmarkVector::from_rtts([ms(10), ms(50), ms(200)]);
        let b = LandmarkVector::from_rtts([ms(60), ms(55), ms(30)]);
        assert_eq!(a.estimate_rtt(&b), b.estimate_rtt(&a));
    }

    #[test]
    fn identical_vectors_estimate_small() {
        // A node compared with a co-located node: lower bound 0, upper bound
        // 2 * min RTT; midpoint = min RTT.
        let a = LandmarkVector::from_rtts([ms(10), ms(40)]);
        assert_eq!(a.estimate_rtt(&a), Some(ms(10)));
    }

    #[test]
    fn set_grows_and_completes() {
        let mut v = LandmarkVector::unknown();
        v.set(2, ms(30));
        assert_eq!(v.len(), 3);
        assert!(!v.is_complete(3), "slots 0 and 1 unmeasured");
        v.set(0, ms(10));
        v.set(1, ms(20));
        assert!(v.is_complete(3));
        assert!(!v.is_complete(4));
    }

    #[test]
    fn unmeasured_slots_are_skipped() {
        let mut a = LandmarkVector::unknown();
        a.set(0, ms(10));
        a.set(1, ms(99));
        let mut b = LandmarkVector::unknown();
        b.set(1, ms(99));
        b.set(2, ms(5));
        // Only landmark 1 is shared: bounds 0 .. 198ms, midpoint 99ms.
        assert_eq!(a.estimate_rtt(&b), Some(ms(99)));
    }

    #[test]
    fn closer_nodes_estimate_lower() {
        // Geometry: landmarks at 0 and 100 on a line; nodes at 10, 20, 80.
        let at = |x: i64| {
            LandmarkVector::from_rtts([
                Duration::from_millis(x.unsigned_abs()),
                Duration::from_millis((100 - x).unsigned_abs()),
            ])
        };
        let n10 = at(10);
        let n20 = at(20);
        let n80 = at(80);
        let near = n10.estimate_rtt(&n20).unwrap();
        let far = n10.estimate_rtt(&n80).unwrap();
        assert!(near < far, "near={near:?} far={far:?}");
    }

    #[test]
    fn unknown_slots_read_as_u32_max() {
        let mut v = LandmarkVector::unknown();
        assert_eq!(v.len(), 0);
        v.set(2, ms(30));
        assert_eq!(v.rtt_us_at(0), u32::MAX);
        assert_eq!(v.rtt_us_at(1), u32::MAX);
        assert_eq!(v.rtt_us_at(2), 30_000);
        v.set_unmeasured(3);
        assert_eq!((v.len(), v.rtt_us_at(3)), (4, u32::MAX));
        assert!(!v.is_complete(4));
    }

    #[test]
    fn largest_slot_value_is_exact_and_anything_above_saturates_measured() {
        let top = Duration::from_micros(MAX_RTT_US as u64);
        assert_eq!(MAX_RTT_US, (1 << 24) - 2);
        let exact = LandmarkVector::from_rtts([top]);
        assert_eq!(exact.rtt_us_at(0), MAX_RTT_US);
        for over in [
            Duration::from_micros((1 << 24) - 1),
            Duration::from_micros(1 << 32),
            Duration::MAX,
        ] {
            let v = LandmarkVector::from_rtts([over]);
            assert_eq!(v.rtt_us_at(0), MAX_RTT_US, "{over:?}");
            assert!(v.is_complete(1), "{over:?} was probed: measured");
            assert_eq!(v, exact);
            assert_eq!(v.estimate_rtt(&v), Some(top));
        }
    }

    /// The representation [`LandmarkVector`] replaced, as the reference
    /// the packed slots are checked against: one `u32` of µs per slot.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Wide {
        rtt_us: [u32; MAX_LANDMARKS],
        len: usize,
    }

    impl Wide {
        fn unknown() -> Self {
            Wide {
                rtt_us: [u32::MAX; MAX_LANDMARKS],
                len: 0,
            }
        }

        fn set(&mut self, i: usize, us: u32) {
            self.rtt_us[i] = us;
            self.len = self.len.max(i + 1);
        }

        fn is_complete(&self, n: usize) -> bool {
            self.len >= n && self.rtt_us[..n].iter().all(|&v| v != u32::MAX)
        }

        fn estimate_rtt(&self, other: &Wide) -> Option<Duration> {
            let shared: Vec<(u64, u64)> = self.rtt_us[..self.len]
                .iter()
                .zip(&other.rtt_us[..other.len])
                .filter(|(&a, &b)| a != u32::MAX && b != u32::MAX)
                .map(|(&a, &b)| (a as u64, b as u64))
                .collect();
            let lower = shared.iter().map(|&(a, b)| a.abs_diff(b)).max()?;
            let upper = shared.iter().map(|&(a, b)| a + b).min()?;
            let est = if upper >= lower {
                (lower + upper) / 2
            } else {
                upper
            };
            Some(Duration::from_micros(est))
        }
    }

    /// Applies the same sparse `set` sequence to both representations.
    fn build(dense: &[u32], sparse: &[(usize, u32)]) -> (LandmarkVector, Wide) {
        let mut packed =
            LandmarkVector::from_rtts(dense.iter().map(|&us| Duration::from_micros(us as u64)));
        let mut wide = Wide::unknown();
        for (i, &us) in dense.iter().enumerate() {
            wide.set(i, us);
        }
        for &(i, us) in sparse {
            packed.set(i, Duration::from_micros(us as u64));
            wide.set(i, us);
        }
        (packed, wide)
    }

    fn assert_same(packed: &LandmarkVector, wide: &Wide) {
        assert_eq!(packed.len(), wide.len);
        for i in 0..wide.len {
            assert_eq!(packed.rtt_us_at(i), wide.rtt_us[i], "slot {i}");
        }
        for n in 0..=MAX_LANDMARKS {
            assert_eq!(packed.is_complete(n), wide.is_complete(n), "n = {n}");
        }
    }

    proptest::proptest! {
        #[test]
        fn packed_slots_behave_as_the_u32_reference(
            dense_a in proptest::collection::vec(0u32..=MAX_RTT_US, 0..MAX_LANDMARKS + 1),
            sparse_a in proptest::collection::vec((0usize..MAX_LANDMARKS, 0u32..=MAX_RTT_US), 0..6),
            dense_b in proptest::collection::vec(0u32..=MAX_RTT_US, 0..MAX_LANDMARKS + 1),
            sparse_b in proptest::collection::vec((0usize..MAX_LANDMARKS, 0u32..=MAX_RTT_US), 0..6),
        ) {
            let (pa, wa) = build(&dense_a, &sparse_a);
            let (pb, wb) = build(&dense_b, &sparse_b);
            assert_same(&pa, &wa);
            assert_same(&pb, &wb);
            assert_eq!(pa == pb, wa == wb);
            assert_eq!(pa.estimate_rtt(&pb), wa.estimate_rtt(&wb));
            assert_eq!(pb.estimate_rtt(&pa), wb.estimate_rtt(&wa));
        }
    }
}
