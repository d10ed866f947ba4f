//! # gocast-membership — bounded random partial views
//!
//! GoCast nodes do not know the full system membership. Each node keeps a
//! bounded, approximately uniform random *partial view* of other nodes,
//! maintained by piggybacking a few random member addresses on the gossips
//! exchanged between overlay neighbors (the paper cites lpbcast \[5\] and
//! notes that "a 'uniformly' random partial member list is almost as good as
//! a complete member list").
//!
//! [`MemberView`] is that view: a capacity-bounded set with random eviction,
//! uniform sampling, and a stable round-robin cursor (the overlay
//! maintenance protocol walks candidates round-robin).
//!
//! ```
//! use gocast_membership::MemberView;
//! use gocast_sim::NodeId;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut view = MemberView::new(NodeId::new(0), 4);
//! for i in 1..=10u32 {
//!     view.insert(NodeId::new(i), &mut rng);
//! }
//! assert_eq!(view.len(), 4); // bounded
//! assert!(!view.contains(NodeId::new(0))); // never contains the owner
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rand::rngs::SmallRng;
use rand::Rng;

use gocast_sim::NodeId;

/// Swap-log entries [`MemberView::sample_k`] keeps on the stack; larger
/// `k` spill to one heap allocation of `k` entries.
const SWAP_LOG: usize = 16;

/// A bounded random partial view of system membership.
///
/// Invariants:
/// - never contains the owning node's own id;
/// - never exceeds its capacity (random eviction on overflow);
/// - contains no duplicates;
/// - every member has exactly one value slot, which is dropped with it.
///
/// Each member carries a value of type `T` (GoCast keeps the peer's
/// landmark coordinates there, so what a node knows about a peer lives
/// and dies with the peer's membership; the default `()` costs nothing).
/// A member inserted without a value holds `T::default()`.
///
/// Ids and values are two vectors in lock-step (struct-of-arrays), so
/// membership tests scan 4-byte ids only. The scan is linear: at the
/// default capacity (128 ids, half a kilobyte) it beats a hash map on both
/// time and — decisively, at 10⁵–10⁶ nodes where every node carries a
/// view — memory, saving several kilobytes of table per node.
#[derive(Debug, Clone)]
pub struct MemberView<T = ()> {
    owner: NodeId,
    capacity: usize,
    members: Vec<NodeId>,
    /// `values[i]` belongs to `members[i]`.
    values: Vec<T>,
    cursor: usize,
}

impl MemberView {
    /// Creates an empty view owned by `owner` holding at most `capacity`
    /// entries, with no per-member value.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    // Lives on `MemberView<()>` because a defaulted type parameter does not
    // drive inference: `MemberView::new(..)` must keep meaning this type.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        Self::with_values(owner, capacity)
    }
}

impl<T> MemberView<T> {
    /// Creates an empty view whose members each carry a `T`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_values(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MemberView {
            owner,
            capacity,
            members: Vec::new(),
            values: Vec::new(),
            cursor: 0,
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` is in the view.
    pub fn contains(&self, id: NodeId) -> bool {
        self.members.contains(&id)
    }

    fn position(&self, id: NodeId) -> Option<usize> {
        self.members.iter().position(|&m| m == id)
    }

    /// The value held for `id`, or `None` if `id` is not in the view.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.position(id).map(|pos| &self.values[pos])
    }

    /// Replaces the value held for `id`. A no-op returning `false` when
    /// `id` is not in the view: values never outlive membership.
    pub fn set(&mut self, id: NodeId, value: T) -> bool {
        match self.position(id) {
            Some(pos) => {
                self.values[pos] = value;
                true
            }
            None => false,
        }
    }

    /// Removes `id` (and its value) if present, e.g. a node discovered to
    /// have failed. Returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        match self.position(id) {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    fn remove_at(&mut self, pos: usize) {
        self.members.swap_remove(pos);
        self.values.swap_remove(pos);
        // Keep the round-robin cursor stable-ish: if we removed before it,
        // pull it back so no entry is skipped.
        if pos < self.cursor {
            self.cursor -= 1;
        }
        if self.cursor >= self.members.len() {
            self.cursor = 0;
        }
    }

    /// A uniformly random member, if any.
    pub fn sample(&self, rng: &mut SmallRng) -> Option<NodeId> {
        if self.members.is_empty() {
            None
        } else {
            Some(self.members[rng.gen_range(0..self.members.len())])
        }
    }

    /// Up to `k` distinct uniformly random members (partial Fisher–Yates).
    pub fn sample_k(&self, k: usize, rng: &mut SmallRng) -> Vec<NodeId> {
        self.sample_k_map(k, rng, |id, _| id)
    }

    /// [`sample_k`](Self::sample_k) with each pick's value: returns
    /// `f(id, value)` for the same picks in the same order.
    pub fn sample_k_map<U>(
        &self,
        k: usize,
        rng: &mut SmallRng,
        mut f: impl FnMut(NodeId, &T) -> U,
    ) -> Vec<U> {
        // A partial Fisher–Yates over the *virtual* pool `0..len`: rather
        // than copying the members to shuffle them, log the few positions
        // the swaps displaced. Position `p` holds index `p` unless logged.
        let len = self.members.len();
        let k = k.min(len);
        let mut stack = [(0usize, 0usize); SWAP_LOG];
        let mut heap;
        let log: &mut [(usize, usize)] = if k <= SWAP_LOG {
            &mut stack
        } else {
            heap = vec![(0, 0); k];
            &mut heap
        };
        let mut logged = 0;
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = rng.gen_range(i..len);
            let at = |p: usize| log[..logged].iter().find(|e| e.0 == p).map_or(p, |e| e.1);
            let pick = at(j);
            // `swap(i, j)`: position `i` is never read again, so only the
            // half that lands on `j` is recorded — at most one entry a step.
            let displaced = at(i);
            match log[..logged].iter_mut().find(|e| e.0 == j) {
                Some(e) => e.1 = displaced,
                None => {
                    log[logged] = (j, displaced);
                    logged += 1;
                }
            }
            out.push(f(self.members[pick], &self.values[pick]));
        }
        out
    }

    /// The next member in round-robin order, advancing the cursor. The
    /// cursor wraps and tolerates concurrent insertions/removals.
    pub fn next_round_robin(&mut self) -> Option<NodeId> {
        if self.members.is_empty() {
            return None;
        }
        if self.cursor >= self.members.len() {
            self.cursor = 0;
        }
        let id = self.members[self.cursor];
        self.cursor = (self.cursor + 1) % self.members.len();
        Some(id)
    }

    /// Iterates over the members in storage order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Iterates over `(member, value)` in storage order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.members.iter().copied().zip(&self.values)
    }

    /// A snapshot of the members (used when answering a join request).
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.members.clone()
    }

    /// Heap bytes held by the view (ids plus values, by capacity).
    pub fn mem_bytes(&self) -> usize {
        self.members.capacity() * std::mem::size_of::<NodeId>()
            + self.values.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Default> MemberView<T> {
    /// Inserts `id`. Self-insertions and duplicates are ignored. If the view
    /// is full, a uniformly random existing entry is evicted first (so the
    /// view stays an approximately uniform sample of everything it has
    /// seen). Returns `true` if `id` is newly present.
    pub fn insert(&mut self, id: NodeId, rng: &mut SmallRng) -> bool {
        self.upsert(id, None, rng)
    }

    /// [`insert`](Self::insert) and [`set`](Self::set) in one scan: makes
    /// `id` a member if it is not one, and, given `Some(value)`, stores it
    /// whether `id` was new or not. `None` leaves a present member's value
    /// alone. Returns `true` if `id` is newly present.
    pub fn upsert(&mut self, id: NodeId, value: Option<T>, rng: &mut SmallRng) -> bool {
        if id == self.owner {
            return false;
        }
        if let Some(pos) = self.position(id) {
            if let Some(v) = value {
                self.values[pos] = v;
            }
            return false;
        }
        if self.members.len() >= self.capacity {
            self.remove_at(rng.gen_range(0..self.members.len()));
        }
        self.members.push(id);
        self.values.push(value.unwrap_or_default());
        true
    }

    /// Merges a batch of ids (e.g. from a gossip's piggybacked addresses).
    /// Returns how many were newly inserted.
    pub fn merge<I: IntoIterator<Item = NodeId>>(&mut self, ids: I, rng: &mut SmallRng) -> usize {
        ids.into_iter().filter(|&id| self.insert(id, rng)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn view_with(owner: u32, cap: usize, ids: &[u32]) -> (MemberView, SmallRng) {
        let mut r = rng();
        let mut v = MemberView::new(NodeId::new(owner), cap);
        for &i in ids {
            v.insert(NodeId::new(i), &mut r);
        }
        (v, r)
    }

    #[test]
    fn never_contains_owner_or_duplicates() {
        let (mut v, mut r) = view_with(0, 8, &[1, 2, 3]);
        assert!(!v.insert(NodeId::new(0), &mut r));
        assert!(!v.insert(NodeId::new(2), &mut r));
        assert_eq!(v.len(), 3);
        assert!(!v.contains(NodeId::new(0)));
    }

    #[test]
    fn capacity_is_enforced_by_random_eviction() {
        let (v, _) = view_with(0, 5, &(1..=50).collect::<Vec<_>>());
        assert_eq!(v.len(), 5);
        for id in v.iter() {
            assert!(id.as_u32() >= 1 && id.as_u32() <= 50);
        }
    }

    #[test]
    fn remove_keeps_membership_consistent() {
        let (mut v, _) = view_with(0, 8, &[1, 2, 3, 4, 5]);
        assert!(v.remove(NodeId::new(2)));
        assert!(!v.remove(NodeId::new(2)));
        assert_eq!(v.len(), 4);
        for id in [1u32, 3, 4, 5] {
            assert!(v.contains(NodeId::new(id)), "missing {id}");
        }
        // No duplicates survive the swap-remove.
        let set: std::collections::HashSet<_> = v.iter().collect();
        assert_eq!(set.len(), v.len());
    }

    #[test]
    fn round_robin_covers_everyone() {
        let (mut v, _) = view_with(0, 8, &[1, 2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(v.next_round_robin().unwrap());
        }
        assert_eq!(seen.len(), 4);
        // Wraps.
        assert!(seen.contains(&v.next_round_robin().unwrap()));
    }

    #[test]
    fn round_robin_survives_removals() {
        let (mut v, _) = view_with(0, 8, &[1, 2, 3, 4, 5]);
        let first = v.next_round_robin().unwrap();
        v.remove(first);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(v.next_round_robin().unwrap());
        }
        assert_eq!(seen.len(), 4, "all remaining members visited");
        assert!(!seen.contains(&first));
    }

    #[test]
    fn sample_k_is_distinct_and_bounded() {
        let (v, mut r) = view_with(0, 16, &(1..=10).collect::<Vec<_>>());
        let s = v.sample_k(4, &mut r);
        assert_eq!(s.len(), 4);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(v.sample_k(99, &mut r).len(), 10);
        let (empty, mut r2) = view_with(0, 4, &[]);
        assert!(empty.sample(&mut r2).is_none());
        assert!(empty.sample_k(3, &mut r2).is_empty());
    }

    #[test]
    fn merge_counts_new_entries() {
        let (mut v, mut r) = view_with(0, 16, &[1, 2]);
        let added = v.merge([1, 2, 3, 4, 0].map(NodeId::new), &mut r);
        assert_eq!(added, 2);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let (v, mut r) = view_with(0, 32, &(1..=8).collect::<Vec<_>>());
        let mut counts = std::collections::HashMap::new();
        for _ in 0..8000 {
            *counts.entry(v.sample(&mut r).unwrap()).or_insert(0u32) += 1;
        }
        for (_, c) in counts {
            assert!((700..1300).contains(&c), "count {c} far from uniform 1000");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = MemberView::new(NodeId::new(0), 0);
    }

    #[test]
    fn values_follow_their_member() {
        let mut r = rng();
        let mut v = MemberView::<u32>::with_values(NodeId::new(0), 2);
        assert!(v.upsert(NodeId::new(1), Some(10), &mut r));
        assert!(v.insert(NodeId::new(2), &mut r));
        assert_eq!(v.get(NodeId::new(1)), Some(&10));
        assert_eq!(v.get(NodeId::new(2)), Some(&0), "no value yet: default");
        assert!(!v.upsert(NodeId::new(2), Some(20), &mut r));
        assert!(!v.upsert(NodeId::new(1), None, &mut r));
        assert_eq!(v.get(NodeId::new(1)), Some(&10), "None keeps the value");
        assert!(!v.set(NodeId::new(9), 90), "set never admits a member");
        assert!(!v.contains(NodeId::new(9)));
        // A third member evicts one of the two, value and all.
        assert!(v.insert(NodeId::new(3), &mut r));
        let evicted = [1u32, 2]
            .map(NodeId::new)
            .into_iter()
            .find(|&m| !v.contains(m));
        assert_eq!(v.get(evicted.expect("view holds two")), None);
        assert_eq!(v.entries().count(), 2);
    }

    impl<T> MemberView<T> {
        /// The original `sample_k`: copy the members, shuffle the copy.
        fn sample_k_reference(&self, k: usize, rng: &mut SmallRng) -> Vec<NodeId> {
            let k = k.min(self.members.len());
            let mut pool = self.members.clone();
            for i in 0..k {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        }
    }

    /// One step of the random op mix the property tests drive a view with.
    fn apply<T: Default + Clone>(
        v: &mut MemberView<T>,
        op: u8,
        id: NodeId,
        val: T,
        r: &mut SmallRng,
    ) {
        match op {
            0 => drop(v.insert(id, r)),
            1 => drop(v.upsert(id, Some(val), r)),
            2 => drop(v.set(id, val)),
            3 => drop(v.remove(id)),
            _ => drop(v.next_round_robin()),
        }
    }

    proptest::proptest! {
        #[test]
        fn sample_k_matches_the_clone_and_shuffle_reference(
            ids in proptest::collection::vec(1u32..400, 0..200),
            cap in 1usize..160,
            k in 0usize..40,
            seed in 0u64..1_000_000,
        ) {
            let mut r = SmallRng::seed_from_u64(seed);
            let mut v = MemberView::new(NodeId::new(0), cap);
            v.merge(ids.into_iter().map(NodeId::new), &mut r);
            let mut r_ref = r.clone();
            let got = v.sample_k(k, &mut r);
            let want = v.sample_k_reference(k, &mut r_ref);
            proptest::prop_assert_eq!(got, want);
            // ... and left the generator in the same state.
            proptest::prop_assert_eq!(r.next_u64(), r_ref.next_u64());
        }

        #[test]
        fn values_stay_in_lock_step_and_never_steer_the_ids(
            ops in proptest::collection::vec((0u8..5, 1u32..48, 1u32..1_000_000), 1..400),
            cap in 1usize..24,
            seed in 0u64..1_000_000,
        ) {
            let owner = NodeId::new(0);
            let mut valued = MemberView::<u32>::with_values(owner, cap);
            let mut plain = MemberView::new(owner, cap);
            let (mut rv, mut rp) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            // What `get` must answer: the last value set since the id last
            // entered the view (0, the default, if none).
            let mut model = std::collections::HashMap::new();
            for (op, id, val) in ops {
                let id = NodeId::new(id);
                apply(&mut valued, op, id, val, &mut rv);
                apply(&mut plain, op, id, (), &mut rp);
                model.retain(|&m, _| valued.contains(m));
                if valued.contains(id) {
                    let slot = model.entry(id).or_insert(0);
                    if op == 1 || op == 2 {
                        *slot = val;
                    }
                }
                proptest::prop_assert_eq!(valued.members.len(), valued.values.len());
                proptest::prop_assert!(valued.len() <= cap && !valued.contains(owner));
                proptest::prop_assert_eq!(&valued.members, &plain.members);
                proptest::prop_assert_eq!(valued.cursor, plain.cursor);
                for m in (1u32..48).map(NodeId::new) {
                    proptest::prop_assert_eq!(valued.get(m), model.get(&m));
                }
            }
            proptest::prop_assert_eq!(rv.next_u64(), rp.next_u64());
        }
    }
}
