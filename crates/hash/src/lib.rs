//! FxHash-style hashing for the simulator hot paths.
//!
//! The epoch and cycle engines key almost every hot map by `u64` (cache-line
//! addresses, PCs, cycle stamps). `std`'s default SipHash is DoS-resistant
//! but costs tens of cycles per lookup; none of these maps are exposed to
//! untrusted input, so we use the Firefox/rustc "Fx" multiply-rotate hash
//! instead: one rotate, one xor, one multiply per word.
//!
//! Vendored rather than depending on `rustc-hash` because the build
//! environment has no network access to a crate registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash (a truncation of the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher. One `u64` of state; not DoS-resistant.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An empty [`FxHashMap`] with room for `cap` entries.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips_u64_keys() {
        let mut m: FxHashMap<u64, u64> = map_with_capacity(1024);
        for k in 0..10_000u64 {
            m.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
        }
        for k in 0..10_000u64 {
            assert_eq!(m.get(&k.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Some(&k));
        }
    }

    #[test]
    fn hash_depends_on_every_word() {
        use std::hash::Hasher;
        let h = |words: &[u64]| {
            let mut f = FxHasher::default();
            for &w in words {
                f.write_u64(w);
            }
            f.finish()
        };
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
        assert_ne!(h(&[1]), h(&[1, 1]));
    }

    #[test]
    fn byte_writes_cover_remainders() {
        use std::hash::Hasher;
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Different lengths with identical padding may collide or not; the
        // requirement is only that writes terminate and are deterministic.
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        assert_eq!(a.finish(), c.finish());
        let _ = b.finish();
    }
}
