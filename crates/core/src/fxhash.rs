//! A small, fast, non-cryptographic hasher for in-process tables keyed
//! by small `Copy` values (the BRISC compressor's candidate keys). It
//! is the multiply-rotate scheme of rustc's `FxHasher`: one rotate, xor
//! and multiply per word. It is not DoS-resistant, so keep it off maps
//! keyed by untrusted input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
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
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_and_small_keys_spread() {
        assert_eq!(hash_of((3u32, -7i32)), hash_of((3u32, -7i32)));
        let distinct: HashSet<u64> = (0u32..1000).map(hash_of).collect();
        assert_eq!(distinct.len(), 1000);
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    #[test]
    fn maps_work_with_the_builder() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..100 {
            *m.entry(i % 10).or_insert(0) += i;
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m[&3], (0..100).filter(|i| i % 10 == 3).sum::<u32>());
    }
}
