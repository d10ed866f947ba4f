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
//!
//! A vector is a 4-byte handle on a block of one process-wide slab: a
//! growable array of 32-byte blocks in chunks of 1,024, each
//! block a reference count and the packed slots. Handles keep shared
//! ownership's rules — a clone bumps the count, a write copies unless the
//! count is 1, the last drop puts the block on the slab's free list — with
//! counts and slots held in atomics, so the slab needs no `unsafe`. Chunks
//! are never returned: the slab keeps its high-water for the life of the
//! process, and a free block is reused by the next vector built.

use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Default number of landmark nodes.
pub const DEFAULT_LANDMARKS: usize = 8;

/// Maximum number of landmark slots a [`LandmarkVector`] can hold.
///
/// Landmark vectors ride inside every gossip, pong, and membership entry.
/// A vector is a handle on one shared block of this many packed slots, so
/// passing one on is a reference-count increment and hot-path message
/// construction performs no allocation for coordinates. The cap bounds the
/// block's size; configurations requesting more landmarks are clamped to
/// it.
pub const MAX_LANDMARKS: usize = DEFAULT_LANDMARKS;

/// A slot's 24 bits all set: not measured. Presented as `u32::MAX` by
/// [`LandmarkVector::rtt_us_at`]; the wire carries the 24 bits as they are.
const UNMEASURED: u32 = 0xFF_FFFF;

/// Largest RTT a slot stores, in microseconds (16.777214 s): one below
/// [`UNMEASURED`], so a measured slot never aliases it.
const MAX_RTT_US: u32 = UNMEASURED - 1;

/// Words the packed slots fill: [`MAX_LANDMARKS`] slots of 24 bits.
const SLOT_WORDS: usize = 3;

const _: () = assert!(SLOT_WORDS * 64 == MAX_LANDMARKS * 24);

/// Blocks per slab chunk (32 KiB). A chunk is built whole, so small
/// chunks keep a small run's slab small.
const CHUNK_BLOCKS: usize = 1024;

/// Chunks the process-wide slab can build: 2²⁴ blocks (512 MiB) live at
/// once, sixteen per node of a 10⁶-node run.
const SLAB_CHUNKS: usize = 1 << 14;

/// Largest count a block takes. A handle is 4 bytes, so reaching it takes
/// 8 GiB of handles, or leaked ones; past it the process aborts, as a
/// shared pointer's count does.
const MAX_COUNT: u32 = i32::MAX as u32;

/// A vector's value as a block holds it: slot `i` is bits `24 i ..
/// 24 i + 24` of the little-endian words, unused slots all ones
/// ("unmeasured"), so equal values are equal words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slots {
    words: [u64; SLOT_WORDS],
    len: u8,
}

impl Slots {
    /// No slot measured.
    const EMPTY: Slots = Slots {
        words: [u64::MAX; SLOT_WORDS],
        len: 0,
    };

    /// Slot `i` as stored: microseconds, or [`UNMEASURED`].
    #[inline]
    fn get(&self, i: usize) -> u32 {
        let (w, shift) = (24 * i / 64, 24 * i % 64);
        let mut bits = self.words[w] >> shift;
        if shift > 40 {
            bits |= self.words[w + 1] << (64 - shift);
        }
        (bits & u64::from(UNMEASURED)) as u32
    }

    /// Writes slot `i` as stored, growing the length to cover it.
    fn store(&mut self, i: usize, slot: u32) {
        assert!(
            i < MAX_LANDMARKS,
            "landmark index {i} exceeds MAX_LANDMARKS ({MAX_LANDMARKS})"
        );
        let (w, shift) = (24 * i / 64, 24 * i % 64);
        let (mask, slot) = (u64::from(UNMEASURED), u64::from(slot));
        self.words[w] = self.words[w] & !(mask << shift) | slot << shift;
        if shift > 40 {
            let spill = 64 - shift;
            self.words[w + 1] = self.words[w + 1] & !(mask >> spill) | slot >> spill;
        }
        self.len = self.len.max(i as u8 + 1);
    }

    /// The measured prefix, slot by slot.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len as usize).map(|i| self.get(i))
    }
}

/// One slab block: a count of the handles on it and the value they share,
/// in one aligned 32-byte piece of a line.
#[derive(Default)]
#[repr(C, align(32))]
struct Block {
    /// Handles on this block; 0 while the block is free.
    count: AtomicU32,
    /// The measured length while live; while free, the next free block's
    /// handle (0: none).
    len: AtomicU32,
    words: [AtomicU64; SLOT_WORDS],
}

const _: () = assert!(size_of::<Block>() == 32);

impl Block {
    #[inline]
    fn load(&self) -> Slots {
        Slots {
            words: self.words.each_ref().map(|w| w.load(Ordering::Relaxed)),
            len: self.len.load(Ordering::Relaxed) as u8,
        }
    }

    fn write(&self, value: &Slots) {
        for (word, &v) in self.words.iter().zip(&value.words) {
            word.store(v, Ordering::Relaxed);
        }
        self.len.store(u32::from(value.len), Ordering::Relaxed);
    }
}

/// What the slab's lock guards: its free list and its counts.
struct FreeList {
    /// The first free block's handle (0: none free); each free block holds
    /// the next one's in `len`.
    head: u32,
    /// Blocks ever built: the high-water, since chunks are never returned.
    built: u32,
    /// Blocks some handle holds.
    live: u32,
}

/// A growable array of [`Block`]s in chunks built on demand, up to
/// `CHUNKS` of them.
struct Slab<const CHUNKS: usize> {
    chunks: [OnceLock<Box<[Block; CHUNK_BLOCKS]>>; CHUNKS],
    free: Mutex<FreeList>,
}

/// The slab every [`LandmarkVector`] of the process points into.
static SLAB: Slab<SLAB_CHUNKS> = Slab::new();

impl<const CHUNKS: usize> Slab<CHUNKS> {
    /// Blocks live at once, at most.
    const CAPACITY: usize = CHUNKS * CHUNK_BLOCKS;

    const fn new() -> Self {
        assert!(Self::CAPACITY < u32::MAX as usize);
        Slab {
            chunks: [const { OnceLock::new() }; CHUNKS],
            free: Mutex::new(FreeList {
                head: 0,
                built: 0,
                live: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FreeList> {
        // Nothing panics while the list is half updated.
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The block `handle` names. A handle exists only once its block was
    /// built.
    #[inline]
    fn block(&self, handle: NonZeroU32) -> &Block {
        let i = handle.get() as usize - 1;
        let chunk = self.chunks[i / CHUNK_BLOCKS].get();
        &chunk.expect("a handle's chunk is built")[i % CHUNK_BLOCKS]
    }

    /// A block holding `value` with one handle on it: the last block
    /// freed, else the next one never used, building its chunk first.
    ///
    /// # Panics
    ///
    /// Panics if all [`CAPACITY`](Self::CAPACITY) blocks are live.
    fn alloc(&self, value: &Slots) -> NonZeroU32 {
        let handle = {
            let mut free = self.lock();
            let handle = match NonZeroU32::new(free.head) {
                Some(handle) => {
                    free.head = self.block(handle).len.load(Ordering::Relaxed);
                    handle
                }
                None => {
                    let i = free.built as usize;
                    assert!(
                        i < Self::CAPACITY,
                        "landmark slab exhausted: all {} blocks are live",
                        Self::CAPACITY
                    );
                    self.chunks[i / CHUNK_BLOCKS].get_or_init(|| {
                        (0..CHUNK_BLOCKS)
                            .map(|_| Block::default())
                            .collect::<Box<[Block]>>()
                            .try_into()
                            .unwrap_or_else(|_| unreachable!("a chunk is CHUNK_BLOCKS blocks"))
                    });
                    free.built += 1;
                    NonZeroU32::MIN.saturating_add(i as u32)
                }
            };
            free.live += 1;
            handle
        };
        let block = self.block(handle);
        block.write(value);
        block.count.store(1, Ordering::Relaxed);
        handle
    }

    /// Adds a handle on `handle`'s block.
    #[inline]
    fn acquire(&self, handle: NonZeroU32) {
        // A new handle comes from an existing one, so nothing it orders
        // can be pending: relaxed, as a shared pointer's clone.
        if self.block(handle).count.fetch_add(1, Ordering::Relaxed) >= MAX_COUNT {
            std::process::abort();
        }
    }

    /// Drops one handle on `handle`'s block, freeing the block with the
    /// last one.
    #[inline]
    fn release(&self, handle: NonZeroU32) {
        let block = self.block(handle);
        if block.count.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other holder's reads happen before the block is reused.
        fence(Ordering::Acquire);
        let mut free = self.lock();
        block.len.store(free.head, Ordering::Relaxed);
        free.head = handle.get();
        free.live -= 1;
    }

    /// Whether `handle` is the only handle on its block.
    #[inline]
    fn is_unique(&self, handle: NonZeroU32) -> bool {
        // Acquire: dropped holders' reads happen before this one's writes.
        self.block(handle).count.load(Ordering::Acquire) == 1
    }
}

/// What [`LandmarkVector::set`] stores for `rtt`.
fn measured(rtt: Duration) -> u32 {
    rtt.as_micros().min(MAX_RTT_US as u128) as u32
}

/// A node's measured RTTs to the landmark set, in microseconds.
///
/// An empty vector means "not yet measured"; estimation then fails and the
/// caller falls back to an arbitrary ordering (exactly the cold-start
/// behaviour of the paper's protocol, which refines by real RTT probes
/// anyway).
///
/// The vector is a shared, immutable handle: `None` while unknown (no
/// block), else a 4-byte index of a reference-counted block of
/// [`MAX_LANDMARKS`] packed slots in the process-wide slab (module docs).
/// Every member view keeps one vector per known peer and every gossip,
/// pong and queued event carries some, and nearly all of them are some
/// peer's *current* coordinates, so every copy of a node's vector made by
/// `clone` points at that node's one block: a clone increments a count.
/// [`set`](Self::set) copies on write, so other holders keep the value
/// they were given; a node's own vector changes at most [`MAX_LANDMARKS`]
/// times, while it probes. Equality, estimates and
/// [`rtt_us_at`](Self::rtt_us_at) read the values, never the sharing.
/// Building a vector takes a block off the slab's free list and allocates
/// only when none is free.
///
/// A slot is 24 bits of microseconds. Simulated one-way latency is capped
/// at 399 ms and a neighbour silent for 10 s is dropped, so no RTT the
/// protocol can act on comes near the 16.7 s a slot holds;
/// [`set`](Self::set) stores anything below that exactly and saturates a
/// larger RTT to the largest *measured* value.
///
/// # Panics
///
/// Building a vector panics if 2²⁴ blocks are live already.
#[derive(Default)]
pub struct LandmarkVector(Option<NonZeroU32>);

const _: () = assert!(size_of::<LandmarkVector>() == 4);

impl Clone for LandmarkVector {
    #[inline]
    fn clone(&self) -> Self {
        if let Some(handle) = self.0 {
            SLAB.acquire(handle);
        }
        LandmarkVector(self.0)
    }
}

impl Drop for LandmarkVector {
    #[inline]
    fn drop(&mut self) {
        if let Some(handle) = self.0 {
            SLAB.release(handle);
        }
    }
}

/// By value: a block always has a slot measured, so no block equals the
/// unknown vector's empty value.
impl PartialEq for LandmarkVector {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 || self.slots() == other.slots()
    }
}

impl Eq for LandmarkVector {}

/// The measured slots as [`rtt_us_at`](LandmarkVector::rtt_us_at) presents
/// them; equal vectors print alike, however they share.
impl fmt::Debug for LandmarkVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LandmarkVector")?;
        f.debug_list()
            .entries((0..self.len()).map(|i| self.rtt_us_at(i)))
            .finish()
    }
}

impl LandmarkVector {
    /// An unmeasured (empty) vector. Holds no block.
    pub fn unknown() -> Self {
        LandmarkVector(None)
    }

    /// Builds a vector from measured landmark RTTs, in one block (none for
    /// an empty iterator).
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`MAX_LANDMARKS`] values.
    pub fn from_rtts<I: IntoIterator<Item = Duration>>(rtts: I) -> Self {
        Self::from_rtt_words(rtts.into_iter().map(measured))
    }

    /// Builds a vector from raw slot words as [`rtt_us_at`](Self::rtt_us_at)
    /// presents them — microseconds, or `u32::MAX` for a slot not measured
    /// — in one block (none for an empty iterator): how the wire codec
    /// restores a vector from its 3-byte slots, each of which comes back
    /// exactly. A word of 2²⁴ − 1 µs or more other than `u32::MAX`, which
    /// no 3-byte slot carries, saturates as [`set`](Self::set) does.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`MAX_LANDMARKS`] values.
    pub fn from_rtt_words<I: IntoIterator<Item = u32>>(words: I) -> Self {
        let mut slots = Slots::EMPTY;
        for (i, word) in words.into_iter().enumerate() {
            slots.store(
                i,
                match word {
                    u32::MAX => UNMEASURED,
                    us => us.min(MAX_RTT_US),
                },
            );
        }
        LandmarkVector((slots.len > 0).then(|| SLAB.alloc(&slots)))
    }

    /// The value, read from the block in one piece.
    #[inline]
    fn slots(&self) -> Slots {
        self.0
            .map_or(Slots::EMPTY, |handle| SLAB.block(handle).load())
    }

    /// Number of landmarks measured.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.map_or(0, |handle| {
            SLAB.block(handle).len.load(Ordering::Relaxed) as usize
        })
    }

    /// Whether no landmarks have been measured yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Whether `self` and `other` are handles on one block: `other` is a
    /// clone of `self` (or both of one vector) that no
    /// [`set`](Self::set) has separated since. Unknown vectors hold no
    /// block and share nothing. Equal values built apart compare equal but
    /// do not share.
    pub fn shares_storage(&self, other: &LandmarkVector) -> bool {
        self.0.is_some() && self.0 == other.0
    }

    /// Bytes of the block this handle points at (0 while unknown). Every
    /// clone points at the same block, so a ledger counts it once, at the
    /// vector's owner.
    pub fn block_bytes(&self) -> usize {
        if self.0.is_some() {
            size_of::<Block>()
        } else {
            0
        }
    }

    /// Blocks of the process-wide slab that some vector holds now.
    pub fn live_blocks() -> usize {
        SLAB.lock().live as usize
    }

    /// Heap bytes of the process-wide slab: every chunk built so far, live
    /// blocks and free ones. Chunks are never returned, so this is the
    /// high-water of the process.
    pub fn slab_bytes() -> usize {
        (SLAB.lock().built as usize).next_multiple_of(CHUNK_BLOCKS) * size_of::<Block>()
    }

    /// Writes slot `i` as stored, copying the block first if another
    /// handle shares it. A handle holds a block only once a slot is
    /// stored in it, so `is_empty` is "no block".
    fn store(&mut self, i: usize, slot: u32) {
        let mut value = self.slots();
        value.store(i, slot);
        match self.0 {
            Some(handle) if SLAB.is_unique(handle) => SLAB.block(handle).write(&value),
            _ => *self = LandmarkVector(Some(SLAB.alloc(&value))),
        }
    }

    /// Records the RTT to landmark `i`, growing the length as needed
    /// (intervening slots stay unmeasured). An RTT of 2²⁴ − 1 µs or more is
    /// stored as 2²⁴ − 2 µs: a probed slot stays measured however slow the
    /// probe was. Copies on write: clones taken before keep their value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_LANDMARKS`.
    pub fn set(&mut self, i: usize, rtt: Duration) {
        self.store(i, measured(rtt));
    }

    /// Marks landmark `i` as not measured, growing the length as needed.
    /// Copies on write, as [`set`](Self::set) does.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_LANDMARKS`.
    pub fn set_unmeasured(&mut self, i: usize) {
        self.store(i, UNMEASURED);
    }

    /// Whether every landmark slot up to `n` has been measured.
    pub fn is_complete(&self, n: usize) -> bool {
        let slots = self.slots();
        slots.len as usize >= n && (0..n).all(|i| slots.get(i) != UNMEASURED)
    }

    /// Raw RTT of landmark slot `i` in microseconds (`u32::MAX` =
    /// unmeasured). Used by wire codecs.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn rtt_us_at(&self, i: usize) -> u32 {
        let slots = self.slots();
        assert!(
            i < slots.len as usize,
            "landmark slot {i} beyond len {}",
            slots.len
        );
        match slots.get(i) {
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
        let (mine, theirs) = (self.slots(), other.slots());
        let mut lower = 0u64;
        let mut upper = u64::MAX;
        let mut shared = false;
        for (a, b) in mine.iter().zip(theirs.iter()) {
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

    #[test]
    fn a_clone_shares_the_block() {
        let a = LandmarkVector::from_rtts([ms(10), ms(40)]);
        let b = a.clone();
        assert!(a.shares_storage(&b) && b.shares_storage(&a));
        assert_eq!(a, b);
        assert_eq!(a.block_bytes(), b.block_bytes());
        assert_eq!(a.block_bytes(), 32);
    }

    #[test]
    fn set_on_a_shared_vector_leaves_the_other_holder_alone() {
        let mut mine = LandmarkVector::from_rtts([ms(10), ms(40)]);
        let theirs = mine.clone();
        mine.set(1, ms(41));
        assert!(!mine.shares_storage(&theirs));
        assert_eq!(theirs.rtt_us_at(1), 40_000);
        assert_eq!(mine.rtt_us_at(1), 41_000);
        assert_eq!(mine.rtt_us_at(0), theirs.rtt_us_at(0));
        let before = mine.clone();
        mine.set_unmeasured(2);
        assert_eq!((before.len(), mine.len()), (2, 3));
        assert_ne!(before, mine);
    }

    #[test]
    fn a_freed_block_is_the_next_one_built() {
        let slab = Slab::<1>::new();
        let value = Slots {
            len: 1,
            ..Slots::EMPTY
        };
        let a = slab.alloc(&value);
        let b = slab.alloc(&value);
        assert_ne!(a, b);
        slab.acquire(a);
        slab.release(a);
        assert_eq!(slab.lock().live, 2, "a still has a handle");
        slab.release(a);
        let counts = |slab: &Slab<1>| {
            let free = slab.lock();
            (free.live, free.built)
        };
        assert_eq!(counts(&slab), (1, 2));
        assert_eq!(slab.alloc(&value), a, "the free list hands a back");
        assert_eq!(counts(&slab), (2, 2));
        assert_eq!(slab.block(b).load(), value);
    }

    /// The process-wide slab holds 2²⁴ blocks; the same code on a
    /// one-chunk slab shows what happens past the last one.
    #[test]
    #[should_panic(expected = "landmark slab exhausted: all 1024 blocks are live")]
    fn exhausting_the_slab_panics_naming_its_capacity() {
        assert_eq!(Slab::<SLAB_CHUNKS>::CAPACITY, 1 << 24);
        let slab = Slab::<1>::new();
        for _ in 0..CHUNK_BLOCKS {
            slab.alloc(&Slots::EMPTY);
        }
        slab.alloc(&Slots::EMPTY);
    }

    #[test]
    fn unknown_vectors_hold_no_block_and_compare_equal() {
        let empty = LandmarkVector::from_rtts([]);
        let words = LandmarkVector::from_rtt_words([]);
        for v in [
            LandmarkVector::unknown(),
            LandmarkVector::default(),
            empty,
            words,
        ] {
            assert_eq!(v, LandmarkVector::unknown());
            assert!(v.is_empty());
            assert_eq!(v.block_bytes(), 0);
            assert!(!v.shares_storage(&v.clone()), "no block to share");
        }
        assert_ne!(
            LandmarkVector::unknown(),
            LandmarkVector::from_rtts([ms(1)])
        );
    }

    #[test]
    fn vectors_built_apart_with_equal_rtts_are_equal_and_estimate_alike() {
        let a = LandmarkVector::from_rtts([ms(10), ms(40), ms(70)]);
        let mut b = LandmarkVector::unknown();
        for (i, rtt) in [ms(10), ms(40), ms(70)].into_iter().enumerate() {
            b.set(i, rtt);
        }
        let c = LandmarkVector::from_rtt_words([10_000, 40_000, 70_000]);
        let probe = LandmarkVector::from_rtts([ms(25), ms(5)]);
        for v in [&b, &c] {
            assert!(!a.shares_storage(v));
            assert_eq!(&a, v);
            assert_eq!(a.estimate_rtt(&probe), v.estimate_rtt(&probe));
            assert_eq!(probe.estimate_rtt(&a), probe.estimate_rtt(v));
        }
    }

    #[test]
    fn rtt_words_restore_what_rtt_us_at_presents() {
        let mut v = LandmarkVector::unknown();
        v.set(0, ms(3));
        v.set(2, Duration::MAX);
        v.set_unmeasured(3);
        let words: Vec<u32> = (0..v.len()).map(|i| v.rtt_us_at(i)).collect();
        assert_eq!(words, [3_000, u32::MAX, MAX_RTT_US, u32::MAX]);
        assert_eq!(LandmarkVector::from_rtt_words(words), v);
        // A word too wide for a slot saturates to the largest measurement.
        let wide = LandmarkVector::from_rtt_words([UNMEASURED, u32::MAX - 1]);
        assert_eq!(wide.rtt_us_at(0), MAX_RTT_US);
        assert_eq!(wide.rtt_us_at(1), MAX_RTT_US);
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
