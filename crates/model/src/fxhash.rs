//! A fast, deterministic, non-cryptographic hasher.
//!
//! The validation hot path hashes millions of small keys (interned
//! symbols, tuple projections); SipHash's per-key setup cost dominates
//! there. This is the well-known `fx` word-at-a-time multiply-rotate
//! scheme (as used by rustc): deterministic across runs and platforms,
//! which also keeps [`crate::Relation`]'s hashed position map and every
//! index iteration reproducible.
//!
//! [`FxHasher::finish`] rotates the state left by 26 bits, as
//! rustc-hash 2 does. The state is the product of the last multiply:
//! its high bits mix every input bit, but its low bits see only the low
//! bits of each word hashed, plus five bits carried over per word.
//! hashbrown, behind std's `HashMap`, picks the home bucket from the
//! low bits of the hash and the control tag from its top 7 bits. A
//! string under 8 bytes is hashed as one word holding its bytes (first
//! byte lowest) plus the `0xff` terminator. Were the raw product the
//! hash, short keys sharing their first bytes (`id17`, `id42`, …) would
//! share home buckets — 100K `id{i}` keys land in 32 of 2^18 — and
//! every probe would walk a long collision run. The rotation moves the
//! well-mixed high half down into the bucket bits.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// How far [`FxHasher::finish`] rotates the product left: bits 38–63
/// land in the bucket bits, which spreads tables of up to 2^26 buckets.
const FINISH_ROTATE: u32 = 26;

/// The fx hasher state.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The tail's little-endian word, built byte by byte: copying
            // it into a zeroed `[u8; 8]` compiles to a `memcpy` call.
            let mut word = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            self.add_to_hash(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hashes one value with a fresh [`FxHasher`].
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_content_sensitive() {
        assert_eq!(fx_hash_one(&"abc"), fx_hash_one(&"abc"));
        assert_ne!(fx_hash_one(&"abc"), fx_hash_one(&"abd"));
        assert_eq!(fx_hash_one(&(1u64, 2u64)), fx_hash_one(&(1u64, 2u64)));
        assert_ne!(fx_hash_one(&(1u64, 2u64)), fx_hash_one(&(2u64, 1u64)));
    }

    /// The hash of every string of length 0 to 16, as the copy-based
    /// tail computed it: the golden digests of the online miner, repair
    /// and chase tests hash their dumps with `fx_hash_one`.
    #[test]
    fn string_hashes_are_pinned_for_every_tail_length() {
        const PINNED: [u64; 17] = [
            0xbfeb_a229_acad_13d5,
            0x16e3_88ab_fea9_130f,
            0xbec5_32fe_9ccc_9b9c,
            0x4f60_4b7d_9bf1_e676,
            0x5e8c_45f8_8597_ead5,
            0xcdfc_d3a7_ef8d_95f3,
            0x01ef_bdce_330d_c84d,
            0x1d0b_7c7b_9115_b016,
            0x76a6_71ab_ff70_8ca1,
            0x5359_e2e3_e575_491f,
            0x944c_8e62_e222_6d46,
            0x715e_f33e_a409_f696,
            0xad34_8bbd_a2ff_2888,
            0x9fa6_ac66_f2e1_3be2,
            0x357c_44e5_edda_b5f7,
            0x0189_5abf_aa31_de9e,
            0x9fa6_ac66_f2ed_5ce2,
        ];
        let text = "abcdefghijklmnop";
        for (n, &pinned) in PINNED.iter().enumerate() {
            assert_eq!(fx_hash_one(&&text[..n]), pinned, "length {n}");
        }
    }

    #[test]
    fn byte_tail_is_hashed() {
        // Inputs differing only in a non-multiple-of-8 tail must differ.
        assert_ne!(fx_hash_one(b"123456789"), fx_hash_one(b"123456780"));
    }

    /// Distinct `hash & mask` values of `keys` must reach 90% of what a
    /// random hash fills, `m·(1 − e^(−n/m))` of `m` buckets.
    fn assert_spreads(keys: impl Iterator<Item = String>, n: usize, bucket_bits: u32) {
        let mask = (1u64 << bucket_bits) - 1;
        let homes: std::collections::HashSet<u64> =
            keys.take(n).map(|k| fx_hash_one(&k) & mask).collect();
        let m = (mask + 1) as f64;
        let expected = m * (1.0 - (-(n as f64) / m).exp());
        assert!(
            homes.len() as f64 >= 0.9 * expected,
            "{n} keys fill {} of 2^{bucket_bits} buckets, a random hash fills {expected:.0}",
            homes.len()
        );
    }

    #[test]
    fn short_string_keys_spread_over_the_bucket_bits() {
        assert_spreads((0..).map(|i| format!("id{i}")), 100_000, 18);
        assert_spreads((0..).map(|i| format!("t{i}")), 200_000, 19);
    }

    #[test]
    fn works_in_a_hashmap() {
        let mut m: std::collections::HashMap<String, u32, FxBuildHasher> =
            std::collections::HashMap::default();
        m.insert("k".into(), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
