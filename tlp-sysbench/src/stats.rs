//! Exact order statistics and the result digest.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it. No interpolation, no buckets.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a over 64-bit words: the deterministic digest of a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest folded to 52 bits, so it survives a trip through a JSON
    /// number (an `f64`) exactly.
    pub fn as_f64(self) -> f64 {
        ((self.0 ^ (self.0 >> 52)) & ((1 << 52) - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // A value between buckets of a log2 histogram comes back untouched.
        assert_eq!(percentile(&[1500.0, 3000.0, 2900.0], 0.5), 2900.0);
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let of = |ws: &[u64]| {
            let mut d = Digest::new();
            ws.iter().for_each(|&w| d.word(w));
            d.as_f64()
        };
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 3, 2]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 2, 4]));
        assert_ne!(of(&[]), of(&[0]));
        let d = of(&[u64::MAX, 7]);
        assert!(d < (1u64 << 52) as f64 && d.fract() == 0.0);
    }
}
