//! The fixed-key hasher behind the simulator's internal maps.
//!
//! The IOMMU, the allocators, D-KASAN's shadow and the provenance graph
//! key their maps by values the simulator itself produced (addresses,
//! page counts, site tags), never by bytes from outside the program, so
//! they need no protection against crafted collisions. [`DetHasher`] trades std's SipHash for an
//! FxHash-style rotate, xor and multiply per word, then a splitmix64
//! finish. The finish matters: the keys are page-aligned, so a bare
//! multiply leaves their low 12 bits zero, and hashbrown takes the bucket
//! index from the low bits. The key is fixed, so one key hashes alike in
//! every map and every run.

use crate::rng::mix64;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`DetHasher`]; build it with `default()`.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;
/// A `HashSet` hashed by [`DetHasher`]; build it with `default()`.
pub type DetHashSet<T> = HashSet<T, BuildHasherDefault<DetHasher>>;

/// FxHash's multiplier (an odd constant, so each step is a bijection).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, fixed-key [`Hasher`] for keys the simulator generates.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetHasher {
    hash: u64,
}

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
        mix64(self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeviceId;
    use crate::PAGE_SIZE;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<DetHasher>::default().hash_one(key)
    }

    fn low_bits_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        keys.map(|k| hash_of(&k) & 0xfff)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn page_aligned_keys_spread_over_the_low_bits() {
        // hashbrown picks buckets from the low bits; without the finish
        // every page-aligned key would land in one of 4,096 buckets.
        let pages = (0..4096u64).map(|i| 0xffff_8880_0000_0000 + i * PAGE_SIZE as u64);
        let distinct = low_bits_spread(pages);
        assert!(
            distinct >= 2000,
            "pages: {distinct} distinct low-bit values"
        );
        let tuples =
            (0..4096u64).map(|i| ((i % 3) as DeviceId, 0xfff0_0000 - i * PAGE_SIZE as u64));
        let distinct = low_bits_spread(tuples);
        assert!(
            distinct >= 2000,
            "tuples: {distinct} distinct low-bit values"
        );
    }

    #[test]
    fn the_key_is_fixed() {
        let key = (7 as DeviceId, 0xffee_d000u64);
        let a = BuildHasherDefault::<DetHasher>::default();
        let b = BuildHasherDefault::<DetHasher>::default();
        assert_eq!(a.hash_one(key), b.hash_one(key));
        assert_eq!(hash_of(&"kmalloc-512"), hash_of(&"kmalloc-512"));
        assert_ne!(hash_of(&"kmalloc-512"), hash_of(&"kmalloc-256"));
    }
}
