//! A minimal re-implementation of the FxHash algorithm used by rustc.
//!
//! The workspace hashes small integer keys (packed attribute/value ids,
//! tuple encodings) inside hot loops — Apriori candidate lookup and the
//! Gibbs CPD cache. SipHash's per-hash setup cost dominates for such keys;
//! FxHash is a single multiply-xor round per word. Hand-rolling the ~40
//! lines keeps the build offline with no external crate (see the README's
//! "Offline, vendored dependencies").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc FxHash implementation
/// (64-bit variant): a randomly chosen odd number close to the golden ratio.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one `u64`, folded with multiply-rotate-xor per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with FxHash. Drop-in for `std::collections::HashMap`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with FxHash. Drop-in for `std::collections::HashSet`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"abcdefgh"), hash_of(b"abcdefgh"));
        assert_eq!(hash_of(b""), hash_of(b""));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(b"abcdefgh"), hash_of(b"abcdefgi"));
        assert_ne!(hash_of(&[0, 0, 0, 1]), hash_of(&[0, 0, 1, 0]));
    }

    #[test]
    fn empty_input_hashes_to_zero_state() {
        // FxHash folds nothing for empty input: state stays at default.
        assert_eq!(hash_of(b""), 0);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn set_deduplicates() {
        let mut s: FxHashSet<(u16, u16)> = FxHashSet::default();
        s.insert((1, 2));
        s.insert((1, 2));
        s.insert((2, 1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn build_hasher_produces_fresh_state() {
        let bh = FxBuildHasher::default();
        let mut a = bh.build_hasher();
        let mut b = bh.build_hasher();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn integer_writes_consistent_with_word_fold() {
        let mut a = FxHasher::default();
        a.write_u64(7);
        let mut b = FxHasher::default();
        b.write_u32(7);
        // u32 and u64 writes of the same small value fold identically
        // because both are widened to one u64 word.
        assert_eq!(a.finish(), b.finish());
    }
}
