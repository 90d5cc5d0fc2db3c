//! A minimal, deterministic Fx-style hasher for hot-path integer keys.
//!
//! The scheduler's inner maps are keyed by [`TrialId`](crate::TrialId)s and
//! small tuples of integers. The standard library's default SipHash spends
//! more time hashing than the map spends probing for such keys, and its
//! per-process random seed buys nothing here: every map whose contents reach
//! serialization is sorted first (the determinism contract), so iteration
//! order is never observable. This multiplicative hasher (the `rustc-hash`
//! design) folds each 8-byte word with a rotate-xor-multiply, which is
//! enough diffusion for sequential trial ids and runs in a couple of cycles.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using `FxHasher` — for hot-path maps with integer keys.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`] — for hot-path sets with integer keys.
pub(crate) type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher behind [`FxHashMap`]/[`FxHashSet`]: deterministic (no random
/// state), word-at-a-time multiplicative mixing.
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
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn is_deterministic_across_builders() {
        let a = BuildHasherDefault::<FxHasher>::default();
        let b = BuildHasherDefault::<FxHasher>::default();
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
    }

    #[test]
    fn sequential_keys_spread() {
        // Sequential trial ids must not collapse onto a few buckets.
        let builder = BuildHasherDefault::<FxHasher>::default();
        let mut low_bits = std::collections::HashSet::new();
        for key in 0u64..256 {
            low_bits.insert(builder.hash_one(key) & 0xff);
        }
        assert!(
            low_bits.len() > 128,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn byte_slices_hash_by_word() {
        let mut h = FxHasher::default();
        h.write(b"trial-id-bytes");
        let full = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"trial-id-bytez");
        assert_ne!(full, h2.finish());
    }
}
