//! A fast, deterministic hasher for simulation-internal maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with per-process random
//! keys) is built to resist hash-flooding from untrusted input. Nothing in
//! the simulator hashes untrusted input — keys are small fixed-width ids
//! the simulation itself minted — so every protocol-side lookup and insert
//! was paying for collision resistance it cannot need. [`FxHasher`] is the
//! Firefox/rustc multiply-rotate hash: a couple of arithmetic instructions
//! per word, no per-process state, and therefore the same table layout on
//! every run (determinism by construction rather than by avoiding
//! iteration).
//!
//! Use the [`FxHashMap`]/[`FxHashSet`] aliases for any map on a hot path
//! keyed by node ids, message ids, or other simulation-minted integers.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc `FxHasher` (a 64-bit
/// golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher for simulation-minted keys.
///
/// Not resistant to crafted collisions; never use it on attacker-chosen
/// keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// The splitmix64 finalizer: the one counter hash, which turns a key the
/// simulation minted (a node pair, a seeded send count) into well-mixed
/// bits with no state to carry.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// `BuildHasher` for [`FxHasher`]; stateless, so every map starts from the
/// same table layout on every run.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn distinct_keys_hash_differently() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        // Not a collision-resistance claim; just a sanity check that the
        // mix actually mixes over a small dense key range.
        let hashes: std::collections::HashSet<u64> = (0..10_000).map(hash).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_stream_matches_regardless_of_chunking() {
        // write() folds 8-byte words; a short tail must still contribute.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 0]);
        // Zero-padded tails of different lengths are allowed to collide in
        // principle, but maps only ever hash fixed-width keys; this test
        // simply exercises the tail path.
        let _ = (a.finish(), b.finish());
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }
}
