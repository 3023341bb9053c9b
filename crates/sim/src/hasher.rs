//! Deterministic, fast hashing for hot-path maps.
//!
//! The standard library's default `HashMap` hasher (SipHash-1-3 with a
//! per-process random key) is designed to resist hash-flooding from
//! untrusted input. The simulator's maps are keyed by line addresses and
//! similar small integers produced by the simulation itself, so that
//! defence buys nothing here and costs a long dependency chain per lookup
//! in the directory and MSHR paths.
//!
//! [`FxHasher`] is a hand-rolled version of the Firefox/rustc "Fx" hash: a
//! single rotate-xor-multiply per machine word. It is fully deterministic
//! (no random state), which also keeps iteration-independent map *lookups*
//! reproducible across runs and platforms. Nothing in the simulator may
//! iterate one of these maps in hash order on a result-affecting path —
//! that contract predates this hasher (the default `RandomState` hasher
//! already randomised iteration order per process).
//!
//! [`Fnv64`], [`fnv1a_64`] and [`fnv1a_128`] are the FNV-1a hashes behind
//! the repo's content fingerprints: sweep-plan and cell fingerprints
//! (journal headers, result-cache file names) and the verifier's state
//! and trace dedup. Fingerprints that reach disk are a persistent format,
//! so these functions must never change their output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash (a truncation of π's golden-ratio relative,
/// as used by rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time rotate-xor-multiply hasher. Deterministic; not
/// flood-resistant — only for keys the simulator generates itself.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
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
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV64_OFFSET)
    }
}

impl Fnv64 {
    /// Hashes `bytes`.
    pub fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }

    /// Hashes `bytes` and then a `0xff` field separator, so a sequence of
    /// fields hashes differently from their plain concatenation.
    pub fn field(&mut self, bytes: &[u8]) {
        self.bytes(bytes.iter().copied());
        self.bytes([0xff]);
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = Fnv64::default();
    h.bytes(bytes);
    h.finish()
}

/// 128-bit FNV-1a over a byte stream.
pub fn fnv1a_128(bytes: impl IntoIterator<Item = u8>) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_64(*b""), FNV64_OFFSET);
        assert_eq!(fnv1a_64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_128(*b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
        let mut fields = Fnv64::default();
        fields.field(b"a");
        assert_eq!(fields.finish(), fnv1a_64(*b"a\xff"));
    }

    #[test]
    fn deterministic_across_instances() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut a = FxHasher::default();
        a.write(b"123456789"); // 8-byte chunk + 1-byte tail
        let mut b = FxHasher::default();
        b.write(b"123456788");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        m.insert(7 + (1 << 40), "aliased-high-bits");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&(7 + (1 << 40))), Some(&"aliased-high-bits"));
        assert_eq!(m.len(), 2);
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }

    #[test]
    fn nearby_line_addresses_spread() {
        // Consecutive small keys (typical line addresses) must not collide
        // in the low bits the table indexes by.
        let low_bits: std::collections::HashSet<u64> = (0u64..64)
            .map(|n| {
                let mut h = FxHasher::default();
                h.write_u64(n);
                h.finish() & 0x3f
            })
            .collect();
        assert!(
            low_bits.len() > 32,
            "only {} distinct buckets",
            low_bits.len()
        );
    }
}
