//! A fast, non-cryptographic hasher for address-keyed maps, and the
//! checksums and digests of the on-disk formats.
//!
//! Trace analysis and simulation perform tens of millions of hash-map
//! operations keyed by addresses; the standard SipHash dominates that
//! cost. [`FastHasher`] is the classic Fibonacci-multiply mixer (as used
//! by rustc's FxHash) specialized for integer keys. It is **not** DoS
//! resistant — keys here come from our own generators and simulators,
//! never from untrusted input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for composite keys.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(SEED);
        self.0 ^= self.0 >> 29;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// FNV-1a over a byte slice, the checksum of the sweep journal and the
/// digest behind fingerprints and cache keys. Stable across platforms
/// and releases: checksums written by one build must verify under
/// every other.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Starting state of [`checksum64`].
const CHECKSUM_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Multiplier of one [`checksum64`] step. It is odd, so multiplying by
/// it is a bijection of `u64`.
const CHECKSUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One word step of [`checksum64`]. For a fixed state it is a bijection
/// of the word, and for a fixed word a bijection of the state: xor,
/// multiplication by an odd constant and rotation are each invertible.
/// The rotation carries the high bits, which the multiply only moves
/// upwards, down into the next step's low bits.
#[inline(always)]
fn checksum_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(CHECKSUM_MUL).rotate_left(29)
}

/// The word-at-a-time checksum of the streaming trace format: chunk
/// payloads and the footer.
///
/// The bytes are read as little-endian 8-byte words, the last one
/// zero-padded, and each word goes through one [`checksum_step`]. The
/// payload length is xored in at the end and the state is finished by
/// the MurmurHash3 `fmix64` avalanche, itself a bijection. Because
/// every step is a bijection of the state, and of the word for a fixed
/// state, two inputs of one length that differ inside a single word
/// always get different checksums: every single-byte change is caught.
/// The length term separates inputs that differ only in trailing zero
/// bytes. It runs one multiply per 8 bytes where byte-serial FNV-1a
/// runs one per byte.
///
/// Stable across platforms and releases: a checksum written by one
/// build must verify under every other, so any change to this function
/// is a format change.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = CHECKSUM_SEED;
    for w in &mut words {
        h = checksum_step(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = checksum_step(h, u64::from_le_bytes(last));
    }
    let mut h = h ^ bytes.len() as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Incremental FNV-1a: [`fnv1a64`] fed piecewise, for fingerprinting
/// data too large (or too structured) to flatten into one slice first.
/// Feeding the same bytes in any chunking yields the same digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh digest (the FNV-1a offset basis).
    #[must_use]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian byte order, platform-stable).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The FNV-1a fingerprint of a whole program trace: name, thread
/// structure and every packed record, in order. Two traces fingerprint
/// equal exactly when they are byte-for-byte the same workload —
/// generation is deterministic in `(app, scale, seed)`, so the
/// placement service uses this as the trace half of its result-cache
/// key and as the cross-restart identity check in job results.
#[must_use]
pub fn program_fingerprint(prog: &crate::ProgramTrace) -> u64 {
    let mut h = Fnv64::new();
    h.update(prog.name().as_bytes());
    h.update_u64(prog.thread_count() as u64);
    for (_, thread) in prog.iter() {
        h.update_u64(thread.len() as u64);
        for r in thread.iter() {
            h.update_u64(r.pack());
        }
    }
    h.finish()
}

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` using [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut a = FastHasher::default();
        a.write_u64(1);
        let mut b = FastHasher::default();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn integer_widths_delegate() {
        let mut a = FastHasher::default();
        a.write_u32(7);
        let mut b = FastHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());

        let mut c = FastHasher::default();
        c.write_u16(7);
        assert_eq!(c.finish(), b.finish());

        let mut d = FastHasher::default();
        d.write_usize(7);
        assert_eq!(d.finish(), b.finish());
    }

    #[test]
    fn byte_fallback_mixes() {
        let mut h = FastHasher::default();
        h.write(&[1, 2, 3]);
        assert_ne!(h.finish(), 0);
    }

    /// Known answers: any change to `checksum64` changes these, and is
    /// a change of the streaming trace format.
    #[test]
    fn checksum64_known_answers() {
        let cases: [(&[u8], u64); 6] = [
            (b"", 0x7acd_bb98_b134_4213),
            (b"\0", 0x6e34_2729_d625_28db),
            (b"abc", 0xbd0e_4806_6839_ac55),
            (b"abc\0", 0xfb47_e984_43cb_486d),
            (b"placesim", 0x076a_c9bf_d977_f9e7),
            (b"placesim streaming chunk", 0xdd9c_0d3b_72b7_cc0e),
        ];
        for (bytes, want) in cases {
            assert_eq!(checksum64(bytes), want, "{bytes:?}");
        }
    }

    #[test]
    fn checksum64_separates_trailing_zero_bytes() {
        let zeros = [0u8; 17];
        let sums: Vec<u64> = (0..=zeros.len()).map(|n| checksum64(&zeros[..n])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(sums[i + 1..].iter().all(|b| b != a), "length {i}");
        }
    }

    #[test]
    fn incremental_fnv_matches_one_shot() {
        let data = b"placesim fingerprint bytes";
        let mut inc = Fnv64::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finish(), fnv1a64(data));
        assert_eq!(Fnv64::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn program_fingerprints_distinguish_traces() {
        use crate::{Address, MemRef, ProgramTrace, ThreadTrace};
        let t0: ThreadTrace = [MemRef::read(Address::new(0x10))].into_iter().collect();
        let t1: ThreadTrace = [MemRef::write(Address::new(0x10))].into_iter().collect();
        let a = ProgramTrace::new("demo", vec![t0.clone(), t1.clone()]);
        let b = ProgramTrace::new("demo", vec![t0.clone(), t1.clone()]);
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        // Different name, different thread order: different identity.
        let renamed = ProgramTrace::new("omed", vec![t0.clone(), t1.clone()]);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&renamed));
        let swapped = ProgramTrace::new("demo", vec![t1, t0]);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&swapped));
    }

    #[test]
    fn map_and_set_usable() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        m.insert(10, 1);
        assert_eq!(m.get(&10), Some(&1));
        let mut s: FastSet<u64> = FastSet::default();
        s.insert(10);
        assert!(s.contains(&10));
    }
}
