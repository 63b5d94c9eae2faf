//! A fast non-cryptographic hasher for in-process lookups.
//!
//! Schedule fingerprints and vocabulary token lookups sit on the scoring
//! hot path — a cold batch hashes every candidate's primitives for the
//! score-cache probe and looks up every name parameter during feature
//! extraction. Neither needs SipHash's DoS resistance (keys never cross a
//! trust boundary), so both use this multiply-rotate word hasher instead.
//!
//! [`splitmix64`] is the shared mixer for code that draws decisions from a
//! hash instead of an RNG stream. `tlp-nn` keeps its own copy because it
//! does not depend on this crate.

use std::hash::{BuildHasherDefault, Hasher};

/// The splitmix64 finalizer: a strong deterministic 64-bit mixer. Chaining
/// it over seeds and counters gives an independent uniform word per
/// decision without any RNG stream to perturb.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The rustc "Fx" recipe: fold each word in with a rotate, xor, and
/// multiply by a large odd constant. Word at a time over byte slices, so
/// hashing a string is a few multiplies instead of a SipHash round per
/// 8 bytes.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    pub(crate) fn add(&mut self, word: u64) {
        self.hash = fold(self.hash, word);
    }
}

/// One Fx step: `hash` with `word` folded in. An [`FxHasher`] is this
/// chain from 0 over the words it is given.
#[inline]
pub(crate) fn fold(hash: u64, word: u64) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// The words [`FxHasher`] folds for `bytes`, in order: each whole 8 bytes
/// little-endian, then the zero-padded tail tagged with its length.
#[inline]
pub(crate) fn byte_words(bytes: &[u8], mut word: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        word(u64::from_le_bytes(c.try_into().unwrap_or([0; 8]))); // length is 8 by construction
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // Tag the zero-padded tail with its length (byte 7 is unused:
        // the remainder is at most 7 bytes) so prefixes stay distinct.
        word(tail_word(rem) | ((rem.len() as u64) << 56));
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        byte_words(bytes, |word| self.add(word));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `tail` (1 to 7 bytes) as a zero-padded little-endian word, read in at
/// most three loads that may overlap instead of copied byte by byte: most
/// names a schedule hashes are shorter than a word.
#[inline]
fn tail_word(tail: &[u8]) -> u64 {
    let len = tail.len();
    if len >= 4 {
        let lo = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        let hi = u32::from_le_bytes([tail[len - 4], tail[len - 3], tail[len - 2], tail[len - 1]]);
        u64::from(lo) | u64::from(hi) << (8 * (len - 4))
    } else {
        u64::from(tail[0])
            | u64::from(tail[len / 2]) << (8 * (len / 2))
            | u64::from(tail[len - 1]) << (8 * (len - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_words_are_the_zero_padded_bytes() {
        let bytes = b"abcdefg";
        for len in 1..8 {
            let mut padded = [0u8; 8];
            padded[..len].copy_from_slice(&bytes[..len]);
            assert_eq!(
                tail_word(&bytes[..len]),
                u64::from_le_bytes(padded),
                "{len} bytes"
            );
        }
    }

    fn hash_bytes(b: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn distinguishes_lengths_and_content() {
        assert_ne!(hash_bytes(b"parallel"), hash_bytes(b"paralle"));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_eq!(hash_bytes(b"vectorize"), hash_bytes(b"vectorize"));
    }

    #[test]
    fn splitmix64_matches_reference_outputs() {
        // Reference splitmix64 stream from state 0: the mixer applied to
        // successive multiples of the golden-ratio increment.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }
}
