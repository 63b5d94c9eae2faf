//! The tiny draft head used by draft-then-verify speculative search.
//!
//! A [`TinyHead`] is a small two-layer MLP: a *frozen* random-feature
//! hidden layer (`tanh(W₁x + b₁)`, deterministically initialized from a
//! hash — no RNG object anywhere) feeding a trained linear read-out that
//! also sees the raw features directly
//! (`score = w·x + w₂·tanh(W₁x + b₁) + b`). The hidden layer is what gives
//! the head *feature interactions*: a pure linear head cannot separate
//! candidates whose quality depends on the product of two schedule
//! properties (say, a tile size × a parallel annotation), which is where
//! the linear draft plateaued ~2% above the fully-scored search. Freezing
//! `W₁` keeps the trained part of the model linear in its parameters, so
//! the online margin-ranking update below stays convex, self-limiting and
//! cheap — random kitchen-sink features, not backprop through the hidden
//! layer.
//!
//! The head is distilled *online*: during search, every batch the full
//! model scores becomes a ranking target for one margin update, so the head
//! tracks whatever the full model currently believes — no offline training
//! pass, no labels.
//!
//! Determinism contract: the trained parameters are zero-initialized, the
//! frozen projection is a pure hash of its indices, the forward pass goes
//! through the fixed-accumulation-order [`gemm`](crate::kernels::gemm)
//! kernel, and the update path uses plain ascending-index loops, so two
//! heads fed the same `(features, targets)` stream are bitwise identical —
//! the property the search layer's RNG-neutrality discipline relies on.

use crate::kernels::gemm;

/// Batch count past which the distillation learning rate stops decaying
/// (effective floor: `base_lr / 8`). Keeps the head plastic against the
/// non-stationary full model it is distilled from.
const LR_DECAY_FLOOR_BATCHES: u64 = 15;

/// Minimum standardized-target gap (in per-batch SD units) for a pair to
/// participate in the margin-ranking update. Pairs closer than this are
/// noise-level ties the head should not burn capacity separating.
const RANK_GAP: f32 = 0.25;

/// Width of the frozen random-feature hidden layer.
const DRAFT_HIDDEN: usize = 16;

/// splitmix64 — the deterministic mixer behind the frozen projection. Same
/// bits as `tlp_schedule::hash::splitmix64`, which this crate cannot reach.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic pseudo-uniform draw in `[-1, 1)` for cell `(i, tag)`.
fn hash_unit(i: u64, tag: u64) -> f32 {
    let h = mix(mix(i ^ 0xD8AF_7ED0) ^ tag);
    ((h >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0) as f32
}

/// One [`TinyHead::forward`] over a feature batch: the scores the draft
/// ranks by and the hidden activations behind them, kept so that
/// [`TinyHead::distill`] over rows of the same batch recomputes neither.
/// Owned by the caller, so its buffers are reused from pass to pass.
#[derive(Clone, Debug, Default)]
pub struct DraftPass {
    scores: Vec<f32>,
    /// `tanh(x W₁ + b₁)`, `n × DRAFT_HIDDEN` row-major.
    hidden: Vec<f32>,
    /// `hidden · w₂` before it is folded into `scores`.
    interact: Vec<f32>,
    /// Distillation scratch: standardized targets and the violated pairs
    /// (as batch rows).
    z: Vec<f32>,
    violations: Vec<(usize, usize)>,
}

impl DraftPass {
    /// One score per row of the batch last passed to [`TinyHead::forward`]
    /// (empty once a distillation step has spent the pass).
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }
}

/// A two-layer draft scorer:
/// `score = w · x + w₂ · tanh(W₁ x + b₁) + b` over `dim`-wide features.
///
/// `W₁`/`b₁` are frozen (hash-initialized, never updated); `w`, `w₂` and
/// `b` are the trained read-out.
#[derive(Clone, Debug, PartialEq)]
pub struct TinyHead {
    /// Frozen random-feature projection, `dim × DRAFT_HIDDEN` row-major.
    w1: Vec<f32>,
    /// Frozen hidden biases.
    b1: Vec<f32>,
    /// Trained read-out over the hidden activations.
    w2: Vec<f32>,
    /// Trained direct linear path over the raw features.
    w: Vec<f32>,
    b: f32,
    /// Batches absorbed so far (drives learning-rate decay).
    updates: u64,
}

impl TinyHead {
    /// A head over `dim`-wide features. The trained read-out (`w`, `w₂`,
    /// `b`) is zero-initialized, so a fresh head scores every candidate
    /// identically — exactly the "know nothing" prior the warm-up gate
    /// expects before the first distillation batch. The frozen projection
    /// is a pure hash of its indices scaled by `1/√dim`, so two heads of
    /// the same width are identical without consuming any RNG.
    pub fn new(dim: usize) -> Self {
        let scale = 1.0 / (dim.max(1) as f32).sqrt();
        let w1 = (0..dim * DRAFT_HIDDEN)
            .map(|i| scale * hash_unit(i as u64, 0xA1))
            .collect();
        let b1 = (0..DRAFT_HIDDEN)
            .map(|i| 0.5 * hash_unit(i as u64, 0xB2))
            .collect();
        TinyHead {
            w1,
            b1,
            w2: vec![0.0; DRAFT_HIDDEN],
            w: vec![0.0; dim],
            b: 0.0,
            updates: 0,
        }
    }

    /// Distillation batches absorbed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Scores `n` candidates whose features are packed row-major in
    /// `features` (`n × dim`) into `pass`, replacing what it held.
    ///
    /// The direct path, the hidden layer and its read-out all run through
    /// the blocked [`gemm`] kernel, so drafting shares the full model's
    /// fixed-accumulation contract: a row's score does not depend on which
    /// other rows are in the batch.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n × dim`.
    pub fn forward(&self, features: &[f32], n: usize, pass: &mut DraftPass) {
        let dim = self.w.len();
        assert_eq!(
            features.len(),
            n * dim,
            "draft feature batch shape mismatch"
        );
        pass.scores.clear();
        pass.scores.resize(n, 0.0);
        gemm(features, &self.w, &mut pass.scores, n, dim, 1);
        pass.hidden.clear();
        pass.hidden.resize(n * DRAFT_HIDDEN, 0.0);
        gemm(features, &self.w1, &mut pass.hidden, n, dim, DRAFT_HIDDEN);
        for row in pass.hidden.chunks_exact_mut(DRAFT_HIDDEN) {
            for (v, &bias) in row.iter_mut().zip(&self.b1) {
                *v = (*v + bias).tanh();
            }
        }
        pass.interact.clear();
        pass.interact.resize(n, 0.0);
        gemm(
            &pass.hidden,
            &self.w2,
            &mut pass.interact,
            n,
            DRAFT_HIDDEN,
            1,
        );
        for (s, hi) in pass.scores.iter_mut().zip(&pass.interact) {
            *s += hi + self.b;
        }
    }

    /// One online distillation step: fits the head toward the full model's
    /// *ranking* of the batch rows `rows` (`targets[j]` is the full model's
    /// score for row `rows[j]`) with a pairwise margin update. `pass` must
    /// be this head's [`forward`](TinyHead::forward) over `features` at its
    /// current weights; the step spends it (the weights it was computed at
    /// are gone), leaving its scores empty.
    ///
    /// Targets are standardized per batch (zero mean, unit variance) first:
    /// raw transformer scores drift in scale as the model updates online,
    /// and only their order matters downstream. Every ordered pair whose
    /// standardized gap exceeds [`RANK_GAP`] and whose predicted gap is
    /// still inside the unit margin gets a hinge step — `w += lr·(xᵢ − xⱼ)`
    /// on the direct path and `w₂ += lr·(hᵢ − hⱼ)` on the hidden read-out
    /// (averaged over violated pairs). Because the hidden layer is frozen,
    /// the trained model is linear in `(w, w₂)` and the update stays the
    /// direct convex objective for a head whose only job is to put the
    /// right candidates on top. A batch with zero target variance (all
    /// candidates scored identically) is absorbed as a no-op on the
    /// weights. The margin makes the update self-limiting, so scores stay
    /// bounded without a regression anchor.
    ///
    /// The learning rate decays as `base / sqrt(1 + updates)`, floored at
    /// `base / sqrt(LR_DECAY_FLOOR_BATCHES)`: early batches move the head
    /// quickly, but the rate never vanishes — the distillation target is the
    /// *live* full model, which keeps training during search, so a head
    /// whose rate decayed to zero would stop tracking it.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `targets` differ in length, a row lies outside
    /// the pass, or the pass is spent or was not computed over `features`.
    pub fn distill(
        &mut self,
        features: &[f32],
        pass: &mut DraftPass,
        rows: &[usize],
        targets: &[f32],
        base_lr: f32,
    ) {
        let dim = self.w.len();
        let n = pass.scores.len();
        assert_eq!(
            features.len(),
            n * dim,
            "draft pass spent or over other features"
        );
        assert_eq!(targets.len(), rows.len(), "draft target batch shape");
        assert!(rows.iter().all(|&r| r < n), "draft row outside the pass");
        if rows.is_empty() {
            return;
        }
        // Standardize targets (ascending-index accumulation, deterministic).
        let count = rows.len() as f32;
        let mut mean = 0.0f32;
        for &t in targets {
            mean += t;
        }
        mean /= count;
        let mut var = 0.0f32;
        for &t in targets {
            let d = t - mean;
            var += d * d;
        }
        var /= count;
        let inv_sd = if var > 0.0 { 1.0 / var.sqrt() } else { 0.0 };
        pass.z.clear();
        pass.z.extend(targets.iter().map(|&t| (t - mean) * inv_sd));

        // Margin-violated pairs, ascending (i, j) order for determinism.
        let (z, pred) = (&pass.z, &pass.scores);
        pass.violations.clear();
        for (i, &ri) in rows.iter().enumerate() {
            for (j, &rj) in rows.iter().enumerate() {
                if z[i] > z[j] + RANK_GAP && pred[ri] - pred[rj] < 1.0 {
                    pass.violations.push((ri, rj));
                }
            }
        }
        let decay = (1.0 + self.updates.min(LR_DECAY_FLOOR_BATCHES) as f32).sqrt();
        let scale = (base_lr / decay) / pass.violations.len().max(1) as f32;
        let h = &pass.hidden;
        for &(hi, lo) in &pass.violations {
            let hi_x = &features[hi * dim..(hi + 1) * dim];
            let lo_x = &features[lo * dim..(lo + 1) * dim];
            for ((wk, &xh), &xl) in self.w.iter_mut().zip(hi_x).zip(lo_x) {
                *wk += scale * (xh - xl);
            }
            let hi_h = &h[hi * DRAFT_HIDDEN..(hi + 1) * DRAFT_HIDDEN];
            let lo_h = &h[lo * DRAFT_HIDDEN..(lo + 1) * DRAFT_HIDDEN];
            for ((wk, &ah), &al) in self.w2.iter_mut().zip(hi_h).zip(lo_h) {
                *wk += scale * (ah - al);
            }
        }
        self.updates += 1;
        pass.scores.clear();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn rows(n: usize, dim: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        (0..n * dim).map(|i| f(i / dim, i % dim)).collect()
    }

    fn predict(h: &TinyHead, feats: &[f32], n: usize) -> Vec<f32> {
        let mut pass = DraftPass::default();
        h.forward(feats, n, &mut pass);
        pass.scores().to_vec()
    }

    /// One forward + distillation step over every row of the batch.
    fn absorb(h: &mut TinyHead, feats: &[f32], targets: &[f32], lr: f32) {
        let rows: Vec<usize> = (0..targets.len()).collect();
        let mut pass = DraftPass::default();
        h.forward(feats, rows.len(), &mut pass);
        h.distill(feats, &mut pass, &rows, targets, lr);
    }

    /// Fraction of meaningfully-gapped pairs the head orders like `targets`.
    fn concordance(h: &TinyHead, feats: &[f32], targets: &[f32], n: usize) -> (u32, u32) {
        let pred = predict(h, feats, n);
        let (mut pairs, mut concordant) = (0u32, 0u32);
        for a in 0..n {
            for b in a + 1..n {
                if (targets[a] - targets[b]).abs() < 1e-3 {
                    continue;
                }
                pairs += 1;
                if (pred[a] - pred[b]) * (targets[a] - targets[b]) > 0.0 {
                    concordant += 1;
                }
            }
        }
        (pairs, concordant)
    }

    #[test]
    fn zero_head_scores_uniformly() {
        let h = TinyHead::new(4);
        let out = predict(&h, &rows(3, 4, |i, j| (i + j) as f32), 3);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn distillation_learns_a_linear_ranking() {
        // Target is a clean linear function of the features. The decayed-lr
        // online regime tracks *ranking* rather than exact regression, so
        // the head must get most meaningfully-gapped pairs in the right
        // order (chance is 50%) — not interpolate the targets.
        let dim = 6;
        let n = 16;
        let mut h = TinyHead::new(dim);
        // Knuth-hash the cell index for decorrelated pseudo-random features.
        let feats = rows(n, dim, |i, j| {
            ((i * dim + j) as u32).wrapping_mul(2654435761) as f32 / u32::MAX as f32
        });
        let targets: Vec<f32> = feats
            .chunks_exact(dim)
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(j, &x)| (j as f32 + 1.0) * x)
                    .sum()
            })
            .collect();
        for _ in 0..300 {
            absorb(&mut h, &feats, &targets, 0.5);
        }
        let (pairs, concordant) = concordance(&h, &feats, &targets, n);
        assert!(pairs > 50, "degenerate target spread ({pairs} pairs)");
        assert!(
            concordant * 5 >= pairs * 4,
            "head ranked only {concordant}/{pairs} pairs correctly"
        );
    }

    #[test]
    fn distillation_captures_feature_interactions() {
        // Target depends on the *product* of two features — invisible to
        // any purely linear scorer (each feature is marginally uninformative
        // by symmetry), but separable through the tanh hidden layer. The
        // MLP head must beat coin-flipping by a clear margin.
        let dim = 4;
        let n = 24;
        let feats = rows(n, dim, |i, j| {
            ((i * dim + j) as u32).wrapping_mul(2654435761) as f32 / u32::MAX as f32 * 2.0 - 1.0
        });
        let targets: Vec<f32> = feats.chunks_exact(dim).map(|r| r[0] * r[1]).collect();
        let mut h = TinyHead::new(dim);
        for _ in 0..600 {
            absorb(&mut h, &feats, &targets, 0.5);
        }
        let (pairs, concordant) = concordance(&h, &feats, &targets, n);
        assert!(pairs > 100, "degenerate target spread ({pairs} pairs)");
        assert!(
            concordant as f64 >= pairs as f64 * 0.65,
            "interaction ranking only {concordant}/{pairs} concordant"
        );
    }

    #[test]
    fn distilling_rows_of_a_pass_equals_distilling_the_gathered_batch() {
        // The search scores a whole pool once and distills from the rows
        // the full model verified. `gemm` fixes each row's accumulation
        // order, so that must move the weights exactly as gathering those
        // rows into a batch of their own does — which is what the digest,
        // captured at the commit where every step did gather and re-run
        // the forward, pins.
        let (n, dim) = (24, 7);
        let feats = rows(n, dim, |i, j| {
            ((i * dim + j) as u32).wrapping_mul(2654435761) as f32 / u32::MAX as f32 * 2.0 - 1.0
        });
        let mut shared = TinyHead::new(dim);
        let mut gathered = TinyHead::new(dim);
        let mut pass = DraftPass::default();
        for step in 0..12 {
            let kept: Vec<usize> = (step % 5..n).step_by(step % 3 + 2).collect();
            let targets: Vec<f32> = kept
                .iter()
                .map(|&r| feats[r * dim] * feats[r * dim + 1] + 0.05 * r as f32)
                .collect();
            shared.forward(&feats, n, &mut pass);
            shared.distill(&feats, &mut pass, &kept, &targets, 0.2);
            let batch: Vec<f32> = kept
                .iter()
                .flat_map(|&r| feats[r * dim..(r + 1) * dim].iter().copied())
                .collect();
            absorb(&mut gathered, &batch, &targets, 0.2);
        }
        assert_eq!(shared, gathered);
        assert_eq!(shared.updates(), 12);
        let digest = shared
            .w
            .iter()
            .chain(&shared.w2)
            .chain([&shared.b])
            .fold(0xcbf2_9ce4_8422_2325_u64, |d, v| {
                (d ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(digest, 0xdbb9_ae16_afd4_a6fd, "got {digest:#x}");
    }

    #[test]
    #[should_panic(expected = "draft pass spent")]
    fn a_pass_is_spent_by_the_step_it_feeds() {
        let feats = rows(4, 3, |i, j| (i * 3 + j) as f32);
        let mut h = TinyHead::new(3);
        let mut pass = DraftPass::default();
        h.forward(&feats, 4, &mut pass);
        h.distill(&feats, &mut pass, &[0, 2], &[1.0, 2.0], 0.1);
        // The scores in `pass` predate the update: reusing it is a bug.
        h.distill(&feats, &mut pass, &[0, 2], &[1.0, 2.0], 0.1);
    }

    #[test]
    fn constant_targets_are_a_weight_noop() {
        let dim = 3;
        let mut h = TinyHead::new(dim);
        let feats = rows(8, dim, |i, j| (i + j) as f32);
        absorb(&mut h, &feats, &[2.5; 8], 0.5);
        assert_eq!(
            predict(&h, &feats, 8),
            vec![0.0; 8],
            "zero-variance batch must not move w"
        );
        assert_eq!(h.updates(), 1);
    }

    #[test]
    fn frozen_projection_is_identical_across_heads() {
        // Two fresh heads of the same width share the hash-derived frozen
        // layer bitwise — the RNG-free init the determinism contract needs.
        let (a, b) = (TinyHead::new(7), TinyHead::new(7));
        assert_eq!(a, b);
        assert!(a.w1.iter().any(|&w| w != 0.0), "projection must be nonzero");
        assert!(a.w1.iter().all(|w| w.abs() <= 1.0));
    }
}
