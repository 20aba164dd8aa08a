//! A fast, non-cryptographic hasher for dictionary-internal maps.
//!
//! The dictionary's term→id map is the hottest hash table in the loading
//! path; SipHash (std's default) is noticeably slower for this workload.
//! This is the well-known Fx multiply-xor construction (as used by rustc),
//! implemented locally to keep the crate dependency-free. HashDoS is not a
//! concern: keys come from our own generator or trusted benchmark files.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (Fx construction).
#[derive(Default, Clone)]
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
    /// The state folded through a full 64×64→128-bit multiply. Std's
    /// tables pick a bucket from a hash's low bits, and the low bits of
    /// the multiply-xor state depend only on the low bits of its input:
    /// unfolded, keys that differ only in their upper half (two ids
    /// packed into a `u64`) would all land in one bucket chain.
    #[inline]
    fn finish(&self) -> u64 {
        let folded = u128::from(self.hash) * u128::from(SEED);
        folded as u64 ^ (folded >> 64) as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("key500"), Some(&500));
    }

    #[test]
    fn hashes_differ_for_similar_keys() {
        fn h(s: &str) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(s.as_bytes());
            hasher.finish()
        }
        assert_ne!(h("http://a/1"), h("http://a/2"));
        assert_ne!(h("abc"), h("acb"));
    }

    /// What `finish` folds for: keys that differ only in their upper 32
    /// bits must not share their low 16 hash bits (unfolded, all 1 024
    /// below would).
    #[test]
    fn upper_bits_reach_the_low_hash_bits() {
        let low_bits: HashSet<u64> = (0..1024u64)
            .map(|i| {
                let mut hasher = FxHasher::default();
                hasher.write_u64(i << 32 | 7);
                hasher.finish() & 0xffff
            })
            .collect();
        assert!(low_bits.len() > 1000, "{} distinct", low_bits.len());
    }

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"hello world, this is a test");
        b.write(b"hello world, this is a test");
        assert_eq!(a.finish(), b.finish());
    }
}
