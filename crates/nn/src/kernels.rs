//! Low-level `f32` compute kernels with a fixed operation-order contract.
//!
//! Every kernel in this module obeys one rule, which is what makes the
//! fast scoring path bit-identical to the autograd tape and to any other
//! build of this crate:
//!
//! > **Fixed accumulation order.** Each output element is a sum over the
//! > inner (`k`) dimension accumulated in ascending `k` order, one
//! > `mul` followed by one `add` per term, starting from `+0.0`. No FMA,
//! > no reassociation, no pairwise/tree reductions.
//!
//! Register blocking (the 2-row panels, 24, 16 or 8 columns wide, in
//! [`gemm`]) and leading dimensions ([`gemm_ld`]) change which output
//! elements are computed *together* and where they are stored, never the
//! order of operations *within* one element's accumulation chain, so
//! results are bitwise identical across block shapes and layouts —
//! including the scalar tails used for odd sizes. The autovectorizer keeps
//! IEEE semantics (Rust never enables FP contraction or reassociation), so
//! vector width does not affect bits either. Two consequences the fused
//! scoring path is built on: an output row depends only on its own input
//! row (so a row that occurs many times in a micro-batch is multiplied
//! once), and output columns are independent lanes (so the attention tile
//! sets every head's query lanes side by side, pads each head's lane count
//! to a multiple of the 8-wide panel with zero queries, and never reaches
//! the scalar column tail, which is left for genuinely odd widths such as
//! the one-column head).
//!
//! [`exp`] — softmax's, and so the only transcendental in the model
//! forward — is under the same contract in elementwise form: a fixed
//! sequence of `f32` `mul`/`add`/`sub`, compare-selects and integer
//! shift/add (no FMA, no table, no branch, no libm call), every lane a pure
//! function of its own input. It is therefore the same bits at any vector
//! width, on any target CPU, at any opt level — which `f32::exp`, platform
//! libm with unspecified precision, never promised. Accuracy: within 1 ulp
//! of the exact value (measured 0.982 ulp at worst over every `f32` in
//! `[-87.33654, -0.0]` and 0.991 over every one in `[0.0, 88.37626]`);
//! domain: inputs below that range give `+0.0`, inputs above it clamp to
//! its top, NaN gives NaN. `tests/reproduction_invariants.rs` pins a digest
//! of its outputs, so a build whose arithmetic differs fails tier-1.
//!
//! One deliberate divergence from the historical naive kernel: the old
//! loop skipped `a == 0.0` terms. For finite `b` this is bitwise
//! neutral — the skipped term contributes `±0.0`, accumulators never
//! become `-0.0` (they start at `+0.0`, `+0.0 + ±0.0 = +0.0`, and IEEE
//! round-to-nearest exact cancellation yields `+0.0`) — so
//! `acc + ±0.0 == acc` bit-for-bit. The property tests in this module
//! pin that equivalence on inputs with explicit zeros.

/// Panel widths: 24 (two cover the default hidden size, 48), then at most
/// one 16 (a whole 16-lane attention tile) and one 8, then scalar columns.
const NR24: usize = 24;
const NR16: usize = 16;
/// The narrowest panel. The fused attention path pads its query-lane count
/// to a multiple of it, so its matmuls never reach the scalar column tail.
pub(crate) const NR8: usize = 8;

/// `out[m,n] = a[m,k] × b[k,n]`, overwriting `out`.
///
/// Cache-blocked, autovectorization-friendly: 2-row register panels 24,
/// 16 or 8 columns wide, with the per-element accumulation chain in
/// ascending `k` order (see the module docs for the bit-identity contract).
/// The contiguous case of [`gemm_ld`] (`lda = k`, `ldb = ldc = n`), with
/// its own inlined copy of the one GEMM body.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m×k`, `k×n`, `m×n`.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm out length mismatch");
    Operands(a, b, out, [k, n, n, k]).run(m, n);
}

/// [`gemm`] over operands with leading dimensions:
/// `out[i·ldc + j] = Σ_l a[i·lda + l] × b[l·ldb + j]` for `i < m`, `j < n`.
/// Elements of `out` outside those `m` row windows of `n` are left
/// untouched, so several products can write side by side into one tile.
///
/// # Panics
///
/// Panics if a leading dimension is shorter than its row, or a slice ends
/// before its last row does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_ld(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(lda >= k && ldb >= n && ldc >= n, "gemm stride below row");
    assert!(m == 0 || a.len() >= (m - 1) * lda + k, "gemm a short");
    assert!(k == 0 || b.len() >= (k - 1) * ldb + n, "gemm b short");
    assert!(m == 0 || out.len() >= (m - 1) * ldc + n, "gemm out short");
    Operands(a, b, out, [lda, ldb, ldc, k]).run(m, n);
}

/// One GEMM's operands: `(a, b, out, [lda, ldb, ldc, k])`.
struct Operands<'a>(&'a [f32], &'a [f32], &'a mut [f32], [usize; 4]);

impl Operands<'_> {
    /// The one GEMM body: `m` rows of `n` columns, two rows at a time.
    #[inline(always)]
    fn run(mut self, m: usize, n: usize) {
        let mut i = 0;
        while i + 2 <= m {
            self.rows::<2>(i, n);
            i += 2;
        }
        if i < m {
            self.rows::<1>(i, n);
        }
    }

    /// The `R`-row band starting at row `i`, panel by panel.
    #[inline(always)]
    fn rows<const R: usize>(&mut self, i: usize, n: usize) {
        let mut j = 0;
        while j + NR24 <= n {
            self.panel::<R, NR24>(i, j);
            j += NR24;
        }
        if j + NR16 <= n {
            self.panel::<R, NR16>(i, j);
            j += NR16;
        }
        if j + NR8 <= n {
            self.panel::<R, NR8>(i, j);
            j += NR8;
        }
        while j < n {
            self.panel::<R, 1>(i, j);
            j += 1;
        }
    }

    /// The `R × W` output block at row `i`, column `j`, accumulated in
    /// registers over ascending `l`.
    #[inline(always)]
    fn panel<const R: usize, const W: usize>(&mut self, i: usize, j: usize) {
        // `out` (`self.2`) is only touched at the end: borrowing it here
        // costs the big GEMMs ~9 %.
        let Operands(a, b, _, [lda, ldb, ldc, k]) = *self;
        let mut acc = [[0.0f32; W]; R];
        for l in 0..k {
            let br = &b[l * ldb + j..l * ldb + j + W];
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = a[(i + r) * lda + l];
                for (o, &bv) in accr.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            self.2[(i + r) * ldc + j..(i + r) * ldc + j + W].copy_from_slice(accr);
        }
    }
}

/// Per-row epilogue applied after a GEMM accumulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Epilogue {
    /// `out = acc + bias` (bias broadcast over rows).
    Bias,
    /// `out = max(acc + bias, 0)` — the fused `Linear → ReLU` step.
    BiasRelu,
}

/// `out[m,n] = epilogue(a[m,k] × b[k,n] + bias[n])`, overwriting `out`.
///
/// Bitwise identical to `gemm` followed by a separate broadcast bias add
/// (and ReLU): the epilogue runs after each element's accumulation chain
/// completes, in the same `+ bias` / `max(x, 0)` order the unfused ops
/// use.
///
/// # Panics
///
/// Panics on slice length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    assert_eq!(bias.len(), n, "gemm_bias bias length mismatch");
    gemm(a, b, out, m, k, n);
    match ep {
        Epilogue::Bias => {
            for row in out.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
        Epilogue::BiasRelu => {
            for row in out.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o = (*o + bv).max(0.0);
                }
            }
        }
    }
}

/// Inputs below this flush to `+0.0`: the smallest `x` whose `e^x` is
/// still a normal `f32` (`ln 2⁻¹²⁶` rounded toward zero).
const EXP_LO: f32 = -87.336_54;
/// Inputs above this clamp to it: the largest `x` that still rounds
/// `x·log₂e` to 127, the top finite exponent.
const EXP_HI: f32 = 88.376_26;
/// `1.5·2²³`: adding it to a float of magnitude below `2²²` leaves the
/// round-to-nearest integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split in two: the high part has nine significant bits, so its
/// product with any exponent in range is exact.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` minimax coefficients of `(e^r - 1 - r) / r²` on
/// `|r| ≤ ln 2 / 2`, highest degree first.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    5.0e-1,
];

/// `e^x` by a fixed operation sequence — softmax's `exp` on the tape and on
/// the fused path (see the module docs for the contract).
///
/// Within 1 ulp of the exact value on `[EXP_LO, EXP_HI]`
/// (≈ `[-87.34, 88.38]`); `exp(0.0)` is exactly `1.0`. Inputs below the
/// range — `-inf` and an additive `-1e9` mask included — give `+0.0`,
/// inputs above it the value at its top (≈ `2.4e38`, finite), NaN gives NaN.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Compare-selects, not `f32::max`/`min`: those drop a NaN operand.
    let c = if x < EXP_LO { EXP_LO } else { x };
    let c = if c > EXP_HI { EXP_HI } else { c };
    // n = round(c·log₂e), as a float and in the low bits of `t`.
    let t = c * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = c - n * LN2_HI - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for &coef in &EXP_POLY[1..] {
        p = p * r + coef;
    }
    let y = p * (r * r) + r + 1.0;
    // 2ⁿ: `n` added into the exponent bits of 1.0 (the magic constant's own
    // bits fall off the top of the shift). A NaN makes garbage here and
    // still leaves through `y`.
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(1.0f32.to_bits()));
    if x < EXP_LO {
        0.0
    } else {
        y * scale
    }
}

/// In-place numerically-stable softmax of one row.
///
/// Shared by the tape [`Softmax`](crate::graph::Graph::softmax) op and the
/// fused inference path so both produce identical bits: subtract the row
/// max and exponentiate ([`exp`]; a pass of its own so it runs on whole
/// vectors), sum left to right, then multiply by the reciprocal.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for x in row.iter_mut() {
        *x = exp(*x - max);
    }
    let mut sum = 0.0;
    for &x in row.iter() {
        sum += x;
    }
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Fused scale-then-softmax over each `width`-sized row of `x`.
///
/// Bitwise identical to a full `x * s` elementwise pass followed by
/// [`softmax_row`] per row — the scale multiply per element happens
/// before any softmax arithmetic, exactly as the unfused op pair does.
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `width` (with `width > 0`).
pub fn scaled_softmax_rows(x: &mut [f32], width: usize, s: f32) {
    assert!(width > 0, "scaled_softmax_rows width must be positive");
    assert_eq!(
        x.len() % width,
        0,
        "scaled_softmax_rows length not a multiple of width"
    );
    for row in x.chunks_exact_mut(width) {
        for v in row.iter_mut() {
            *v *= s;
        }
        softmax_row(row);
    }
}

/// In-place layer normalization of one row with affine parameters.
///
/// Single source of truth for the arithmetic sequence (mean, biased
/// variance, `(x - mean) * inv * gamma + beta` left to right) shared by
/// the tape `LayerNorm` op and the fused inference path, so both produce
/// identical bits.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from the row length.
pub fn layer_norm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let d = row.len();
    assert_eq!(gamma.len(), d, "layer_norm gamma length mismatch");
    assert_eq!(beta.len(), d, "layer_norm beta length mismatch");
    let mean = row.iter().sum::<f32>() / d as f32;
    let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
    let inv = 1.0 / (var + eps).sqrt();
    for (i, x) in row.iter_mut().enumerate() {
        *x = (*x - mean) * inv * gamma[i] + beta[i];
    }
}

/// The historical naive `ikj` kernel, kept as the bit-identity reference:
/// `out[m,n] += a[m,k] × b[k,n]` over a zeroed `out`, with the `a == 0`
/// skip. Property tests assert [`gemm`] matches it bit-for-bit.
#[cfg(test)]
pub(crate) fn matmul_reference(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o = &mut out[i * n..(i + 1) * n];
        for (l, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[l * n..(l + 1) * n];
            for (oj, &bj) in o.iter_mut().zip(b_row) {
                *oj += av * bj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random finite values including exact zeros,
    /// so the reference kernel's zero-skip path is exercised.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(7) {
                    0.0
                } else {
                    ((state % 2048) as f32 - 1024.0) * 9.77e-3
                }
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gemm_matches_reference_on_model_shapes() {
        // The shapes the cost model actually runs: up1/up2/projections,
        // the half-width head, a single-column head, and tiny bmm slices.
        for &(m, k, n) in &[
            (832, 22, 48),
            (832, 48, 48),
            (832, 48, 24),
            (832, 24, 1),
            (25, 6, 25),
            (25, 25, 6),
            (1, 48, 48),
            (13, 16, 16),
        ] {
            let a = fill(m as u64 * 31 + n as u64, m * k);
            let b = fill(k as u64 * 17 + 3, k * n);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            gemm(&a, &b, &mut fast, m, k, n);
            matmul_reference(&a, &b, &mut slow, m, k, n);
            assert_bits_eq(&fast, &slow, &format!("gemm {m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_bias_matches_unfused() {
        let (m, k, n) = (37, 22, 48);
        let a = fill(1, m * k);
        let b = fill(2, k * n);
        let bias = fill(3, n);
        let mut unfused = vec![0.0f32; m * n];
        matmul_reference(&a, &b, &mut unfused, m, k, n);
        for row in unfused.chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(&bias) {
                *o += bv;
            }
        }
        let mut fused = vec![0.0f32; m * n];
        gemm_bias(&a, &b, &bias, &mut fused, m, k, n, Epilogue::Bias);
        assert_bits_eq(&fused, &unfused, "gemm_bias");

        for v in unfused.iter_mut() {
            *v = v.max(0.0);
        }
        gemm_bias(&a, &b, &bias, &mut fused, m, k, n, Epilogue::BiasRelu);
        assert_bits_eq(&fused, &unfused, "gemm_bias_relu");
    }

    #[test]
    fn scaled_softmax_matches_unfused() {
        let width = 25;
        let mut x = fill(9, 8 * width);
        let mut unfused = x.clone();
        let s = 1.0 / 6.0f32.sqrt();
        for v in unfused.iter_mut() {
            *v *= s;
        }
        for row in unfused.chunks_exact_mut(width) {
            softmax_row(row);
        }
        scaled_softmax_rows(&mut x, width, s);
        assert_bits_eq(&x, &unfused, "scaled_softmax");
    }

    /// Error of `exp(x)` against `f64::exp`, in ulps of the exact value.
    fn exp_ulp_error(x: f32) -> f64 {
        let exact = f64::from(x).exp();
        let nearest = exact as f32;
        let ulp = f64::from(f32::from_bits(nearest.to_bits() + 1)) - f64::from(nearest);
        (f64::from(exp(x)) - exact).abs() / ulp
    }

    #[test]
    fn exp_is_within_one_ulp_on_the_unflushed_negative_range() {
        // Every 257th `f32` from `-0.0` down to the flush threshold: the
        // range softmax feeds it (row element minus row max).
        let mut worst = (0.0f64, 0.0f32);
        for bits in ((-0.0f32).to_bits()..=EXP_LO.to_bits()).step_by(257) {
            let x = f32::from_bits(bits);
            let err = exp_ulp_error(x);
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(worst.0 <= 1.0, "{} ulp at x = {:?}", worst.0, worst.1);
    }

    #[test]
    fn exp_edges() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        let below = f32::from_bits(EXP_LO.to_bits() + 1);
        assert!(below < EXP_LO);
        for x in [below, -1000.0, -1e9, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x:?})");
        }
        // Any NaN, whatever its sign and payload.
        for bits in [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7fc0_0001,
            0xffc1_2345,
            0x7f80_0001,
        ] {
            assert!(exp(f32::from_bits(bits)).is_nan(), "exp(NaN {bits:#x})");
        }
        for x in [EXP_LO, -1.0, 1.0, EXP_HI, 1e9, f32::MAX, f32::INFINITY] {
            let y = exp(x);
            assert!(
                y.is_finite() && y >= f32::MIN_POSITIVE,
                "exp({x:?}) = {y:?}"
            );
        }
        assert_eq!(exp(f32::INFINITY).to_bits(), exp(EXP_HI).to_bits());
    }

    /// One `exp` pass over a slice — the loop shape the softmax kernels
    /// run, which the compiler turns into whole-vector code plus a tail.
    #[inline(never)]
    fn exp_pass(v: &mut [f32]) {
        for x in v.iter_mut() {
            *x = exp(*x);
        }
    }

    #[test]
    fn exp_lanes_are_independent() {
        for len in [1usize, 7, 8, 24, 25] {
            let src: Vec<f32> = fill(len as u64, len).iter().map(|v| v * 8.0).collect();
            let mut pass = src.clone();
            exp_pass(&mut pass);
            let single: Vec<f32> = src
                .iter()
                .map(|&x| {
                    let mut one = [x];
                    exp_pass(std::hint::black_box(&mut one));
                    one[0]
                })
                .collect();
            assert_bits_eq(&pass, &single, &format!("exp pass of {len}"));
        }
    }

    /// [`softmax_row`] as it was written before its `exp` and sum passes
    /// were split: same per-element operations, same sum order.
    fn softmax_row_one_loop(row: &mut [f32]) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = exp(*x - max);
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }

    proptest! {
        #[test]
        fn prop_exp_is_within_one_ulp_on_the_clamp_range(x in EXP_LO..EXP_HI) {
            let y = exp(x);
            prop_assert!(y.is_finite() && y > 0.0);
            prop_assert!(exp_ulp_error(x) <= 1.0, "{} ulp at {:?}", exp_ulp_error(x), x);
        }

        #[test]
        fn prop_split_softmax_row_bits_match_one_loop(
            width in 1usize..41,
            seed in 0u64..u64::MAX,
            s in -12.0f32..12.0,
        ) {
            let mut split: Vec<f32> = fill(seed, width).iter().map(|v| v * s).collect();
            let mut one_loop = split.clone();
            softmax_row(&mut split);
            softmax_row_one_loop(&mut one_loop);
            for (a, b) in split.iter().zip(&one_loop) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Satellite: blocked GEMM is bitwise-equal to the naive reference
        /// over random shapes and seeds (finite values with exact zeros).
        #[test]
        fn prop_gemm_bits_match_reference(
            m in 1usize..50,
            k in 1usize..50,
            n in 1usize..60,
            seed in 0u64..u64::MAX,
        ) {
            let a = fill(seed, m * k);
            let b = fill(seed ^ 0xdead_beef, k * n);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            gemm(&a, &b, &mut fast, m, k, n);
            matmul_reference(&a, &b, &mut slow, m, k, n);
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// `gemm_ld` over operands embedded in wider rows is bitwise-equal
        /// to the reference on the packed operands and writes nothing
        /// outside its `m` output windows. `a` and `b` end right after their
        /// last row, so a read past it panics; `n` up to 48 runs every panel
        /// combination (24, 16, 8, scalar tail).
        #[test]
        fn prop_gemm_ld_bits_match_reference_inside_its_windows(
            m in 1usize..20,
            k in 1usize..20,
            n in 1usize..49,
            pad_a in 1usize..9,
            pad_b in 1usize..9,
            pad_c in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let (lda, ldb, ldc) = (k + pad_a, n + pad_b, n + pad_c);
            let a = fill(seed, (m - 1) * lda + k);
            let b = fill(seed ^ 0xdead_beef, (k - 1) * ldb + n);
            let packed_a: Vec<f32> = a.chunks(lda).flat_map(|row| &row[..k]).copied().collect();
            let packed_b: Vec<f32> = b.chunks(ldb).flat_map(|row| &row[..n]).copied().collect();
            let mut want = vec![0.0f32; m * n];
            matmul_reference(&packed_a, &packed_b, &mut want, m, k, n);
            // A NaN payload no product of finite values produces.
            let sentinel = f32::from_bits(0x7fc0_1234);
            let mut out = vec![sentinel; m * ldc];
            gemm_ld(&a, lda, &b, ldb, &mut out, ldc, m, k, n);
            for (row, want_row) in out.chunks(ldc).zip(want.chunks(n)) {
                for (x, y) in row[..n].iter().zip(want_row) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                for x in &row[n..] {
                    prop_assert_eq!(x.to_bits(), sentinel.to_bits());
                }
            }
        }

        /// Satellite: fused scale+softmax is bitwise-equal to the unfused
        /// scale pass followed by the reference row softmax.
        #[test]
        fn prop_scaled_softmax_bits_match_reference(
            rows in 1usize..12,
            width in 1usize..40,
            seed in 0u64..u64::MAX,
            s in -4.0f32..4.0,
        ) {
            let mut x = fill(seed, rows * width);
            let mut unfused = x.clone();
            for v in unfused.iter_mut() { *v *= s; }
            for row in unfused.chunks_exact_mut(width) { softmax_row(row); }
            scaled_softmax_rows(&mut x, width, s);
            for (a, b) in x.iter().zip(&unfused) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
