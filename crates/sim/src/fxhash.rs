//! A tiny multiplicative hasher for the simulator's own indexes.
//!
//! The maps it serves are keyed by single small integers hashed on every
//! scheduler step or simulated memory access: the scheduler's wait-channel
//! lists, and the TLB's indexes keyed by pmap and virtual page number. The
//! standard library's default SipHash is DoS-resistant but costs more than
//! the whole lookup should; keys here come from the simulation itself, not
//! an adversary, so a word-at-a-time multiplicative hash (the Firefox/rustc
//! family) is the right trade.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier: 2^64 / phi, the usual Fibonacci-hashing constant.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiplicative hasher. Not DoS-resistant; only for keys
/// the simulation generates itself.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_apart() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1024 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1024);
        assert_eq!(m[&513], 1026);
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        use std::hash::Hash;
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        "abc".hash(&mut a);
        "abd".hash(&mut b);
        assert_ne!(a.finish(), b.finish());
    }
}
