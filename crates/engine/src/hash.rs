//! Fast non-cryptographic hashing for join keys, grouping, and dedup.
//!
//! The default `HashMap` hasher (SipHash) is keyed and DoS-resistant but
//! costs a full keyed permutation per row — measurable on the join/dedup
//! hot paths where millions of small keys are hashed. [`FastHasher`] is an
//! FxHash-style multiply-mix: one rotate/xor/multiply per word. It is used
//! for *internal* row-index tables whose keys derive from data the engine
//! already materialised; none of these tables outlive a single operator
//! call, which bounds any adversarial-collision blowup to one query.

use std::hash::{BuildHasher, Hasher};

/// Multiplier from FxHash (a.k.a. Firefox's hash): odd, high-entropy.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiply-mix hasher.
#[derive(Debug, Clone, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix64 finalizer. The multiply-mix accumulator concentrates
        // entropy in the high bits (a product inherits its operand's
        // trailing zeros, and float bit patterns of small integers have
        // dozens of them), while hashmaps index buckets with the LOW bits
        // — without this avalanche, integer keys collapse into a handful
        // of buckets and probes degenerate to linear scans.
        let mut z = self.hash;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab" and "ab\0" differ.
            word[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (zero-sized; deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastBuildHasher;

impl BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// Hash one value with [`FastHasher`] (convenience for key pipelines).
#[inline]
pub fn fast_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FastHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinguishes() {
        assert_eq!(fast_hash_one(&42u64), fast_hash_one(&42u64));
        assert_ne!(fast_hash_one(&42u64), fast_hash_one(&43u64));
        assert_ne!(fast_hash_one(&"ab"), fast_hash_one(&"ab\0"));
    }

    #[test]
    fn map_works() {
        let mut m: FastMap<u64, usize> = FastMap::default();
        m.insert(7, 1);
        m.insert(7, 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn hash_matches_value_equality_for_numerics() {
        use crate::types::Value;
        // Int(1) == Float(1.0) must collide under any Hasher.
        assert_eq!(
            fast_hash_one(&Value::Int(1)),
            fast_hash_one(&Value::Float(1.0)),
        );
    }
}
