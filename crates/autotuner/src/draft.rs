//! Draft-then-verify speculative scoring (Pruner-style, arXiv 2402.02361).
//!
//! The full cost model is the per-candidate bottleneck of every search
//! round: evolution scores `population × (generations + 1)` candidates with
//! the transformer even though most are nowhere near the top-k. This module
//! provides the near-free **draft** side of a two-stage pipeline:
//!
//! 1. a [`DraftScorer`] — a ~1K-parameter linear head
//!    ([`tlp_nn::TinyHead`]) over cheap per-candidate features — ranks the
//!    whole pool;
//! 2. only the top [`SpecConfig::draft_keep`] fraction is *verified* by the
//!    full [`CostModel`](crate::cost_model::CostModel); the rest inherit
//!    their draft ranks.
//!
//! The head is distilled online: every batch the full model does score
//! becomes a ranking target, so the draft tracks the live model with no
//! offline training. A pool's features are extracted once per ranking:
//! [`DraftScorer::score`] keeps the rows and the head's activations, and
//! [`DraftScorer::distill`] learns from the rows the full model verified.
//! The features are summary statistics read straight off the schedule
//! primitives.
//!
//! Everything here is RNG-free and deterministic: drafting never touches
//! the search RNG stream, so `draft_keep >= 1.0` — the full model verifies
//! every pool and no head is ever built — is the bit-exact
//! score-everything reference.

use crate::task::SearchTask;
use serde::{Deserialize, Serialize};
use tlp_nn::{DraftPass, TinyHead};
use tlp_schedule::{PrimitiveKind, ScheduleSequence};

/// Draft-then-verify knobs
/// ([`EvolutionConfig::speculative`](crate::evolutionary::EvolutionConfig::speculative)).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpecConfig {
    /// Fraction of each scored pool the full model verifies during
    /// generation rankings (clamped to at least one candidate); the final
    /// ranking verifies twice this fraction (see
    /// [`SpecConfig::final_keep_of`]). The remaining candidates inherit
    /// their draft ranks below every verified candidate. A pool verified
    /// whole involves no head, so at `>= 1.0` none is ever consulted, built
    /// or distilled: the score-everything reference.
    pub draft_keep: f64,
    /// Full-model batches the draft head must absorb *for the task being
    /// searched* before speculation starts. Until then every generation is
    /// fully scored (and distilled), so a fresh per-task head never ranks a
    /// pool it knows nothing about. The counts live in the [`DraftScorer`],
    /// so warm-up amortizes across search rounds that share one scorer.
    pub warmup_full_generations: u32,
}

impl SpecConfig {
    /// The given keep fraction with the default warm-up.
    pub fn keeping(draft_keep: f64) -> Self {
        SpecConfig {
            draft_keep,
            ..SpecConfig::default()
        }
    }

    /// The number of candidates the full model verifies out of a pool of
    /// `n` (at least 1, at most `n`) during generation rankings.
    pub fn keep_of(&self, n: usize) -> usize {
        Self::fraction_of(self.draft_keep, n)
    }

    /// The verification budget of the *final* ranking: twice the generation
    /// fraction (capped at the whole pool). The final ranking selects what
    /// gets measured on hardware, so a draft miss there wastes real trials
    /// instead of one evolution step — it earns a thicker verified slice.
    pub fn final_keep_of(&self, n: usize) -> usize {
        Self::fraction_of((self.draft_keep * 2.0).min(1.0), n)
    }

    fn fraction_of(fraction: f64, n: usize) -> usize {
        ((fraction * n as f64).ceil() as usize).clamp(1, n.max(1))
    }
}

impl Default for SpecConfig {
    /// A quarter of each pool verified after two full batches per task.
    fn default() -> Self {
        SpecConfig {
            draft_keep: 0.25,
            warmup_full_generations: 2,
        }
    }
}

/// Extra aggregate slots appended after the per-kind counts.
const STAT_EXTRAS: usize = 4;

/// Width of one draft feature row.
const STAT_DIM: usize = PrimitiveKind::ALL.len() + STAT_EXTRAS;

/// Appends one [`STAT_DIM`]-wide draft row per candidate of `pop` to `out`,
/// in pool order: summary statistics read straight off the schedule
/// primitives — per-kind step counts plus log-scaled numeric aggregates. No
/// lowering, no vocabulary, no allocation beyond the output rows.
fn stat_features_into(pop: &[ScheduleSequence], out: &mut Vec<f32>) {
    let kinds = PrimitiveKind::ALL.len();
    for seq in pop {
        let base = out.len();
        out.resize(base + STAT_DIM, 0.0);
        let row = &mut out[base..];
        let mut int_log_sum = 0.0f32;
        let mut int_log_max = 0.0f32;
        let mut loops = 0usize;
        for p in seq.iter() {
            row[p.kind.index()] += 1.0;
            loops += p.loop_vars.len();
            for &v in p.ints {
                let l = (1.0 + v.max(0) as f32).ln();
                int_log_sum += l;
                int_log_max = int_log_max.max(l);
            }
        }
        // Same ln(1+x) squashing the TLP extractor uses, so counts and
        // sums stay in comparable ranges for the linear head.
        for c in row[..kinds].iter_mut() {
            *c = (1.0 + *c).ln();
        }
        row[kinds] = (1.0 + seq.len() as f32).ln();
        row[kinds + 1] = (1.0 + loops as f32).ln();
        row[kinds + 2] = int_log_sum;
        row[kinds + 3] = int_log_max;
    }
}

/// Base learning rate of the online distillation step (decayed per batch
/// inside [`TinyHead::distill`]).
const DRAFT_BASE_LR: f32 = 0.2;

/// The draft side of draft-then-verify: one [`TinyHead`] *per task* over
/// schedule statistics, distilled online from full-model scores.
///
/// Heads are keyed by [`Subgraph::key`](tlp_workload::Subgraph::key) — the
/// task's structure, not its name, which networks reuse across shapes — and
/// created zero-initialized the first time a task's pool is scored. Per-task
/// heads matter: tasks have different feature geometry, and a single shared
/// head distilled round-robin across tasks is dragged away from each task's
/// ranking between its visits.
///
/// One scorer is meant to live across all rounds of a tuning run so the
/// warm-up and the distilled weights amortize; the searcher borrows it per
/// round via
/// [`Searcher::with_draft`](crate::evolutionary::Searcher::with_draft).
#[derive(Default)]
pub struct DraftScorer {
    heads: std::collections::BTreeMap<u64, TinyHead>,
    /// The pool last scored — its task's head key, its feature rows and the
    /// head's pass over them: what [`DraftScorer::distill`] learns from.
    scored: Option<u64>,
    feats: Vec<f32>,
    pass: DraftPass,
    rows: Vec<usize>,
    targets: Vec<f32>,
}

impl std::fmt::Debug for DraftScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DraftScorer")
            .field("tasks", &self.heads.len())
            .field("updates", &self.updates())
            .finish()
    }
}

impl DraftScorer {
    /// Full-model batches distilled so far, summed over all per-task heads.
    pub fn updates(&self) -> u64 {
        self.heads.values().map(TinyHead::updates).sum()
    }

    /// Whether the head for `task` has absorbed enough full-model batches
    /// to rank a pool on its own.
    pub fn warmed_up(&self, task: &SearchTask, warmup_full_generations: u32) -> bool {
        self.heads
            .get(&task.subgraph.key())
            .map_or(warmup_full_generations == 0, |h| {
                h.updates() >= warmup_full_generations as u64
            })
    }

    /// Draft-scores the whole pool with the task's head: one score per
    /// candidate, in pool order. This is the one feature extraction of a
    /// ranking — the rows stay behind for [`DraftScorer::distill`].
    /// Deterministic and RNG-free.
    pub fn score(&mut self, task: &SearchTask, pop: &[ScheduleSequence]) -> &[f32] {
        self.feats.clear();
        stat_features_into(pop, &mut self.feats);
        let key = task.subgraph.key();
        self.scored = Some(key);
        self.heads
            .entry(key)
            .or_insert_with(|| TinyHead::new(STAT_DIM))
            .forward(&self.feats, pop.len(), &mut self.pass);
        self.pass.scores()
    }

    /// Distills one full-model batch into the head that produced the last
    /// [`score`](DraftScorer::score): `scores[j]` is the full model's score
    /// for candidate `rows[j]` of that pool. Non-finite scores (unscoreable
    /// candidates) are dropped from the batch.
    ///
    /// # Panics
    ///
    /// Panics unless it follows a `score`, at most once per `score`.
    pub fn distill(&mut self, rows: &[usize], scores: &[f32]) {
        debug_assert_eq!(rows.len(), scores.len(), "draft distill shape");
        self.rows.clear();
        self.targets.clear();
        for (&i, &s) in rows.iter().zip(scores) {
            if s.is_finite() {
                self.rows.push(i);
                self.targets.push(s);
            }
        }
        let Some(head) = self.scored.and_then(|key| self.heads.get_mut(&key)) else {
            panic!("distill before any pool was scored");
        };
        head.distill(
            &self.feats,
            &mut self.pass,
            &self.rows,
            &self.targets,
            DRAFT_BASE_LR,
        );
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::sketch::{Candidate, SketchPolicy};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlp_hwsim::Platform;
    use tlp_workload::{AnchorOp, Subgraph};

    fn task() -> SearchTask {
        SearchTask::new(
            Subgraph::new(
                "d",
                AnchorOp::Dense {
                    m: 128,
                    n: 128,
                    k: 128,
                },
            ),
            Platform::i7_10510u(),
        )
    }

    fn pop(n: usize, seed: u64) -> Vec<ScheduleSequence> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = task();
        (0..n)
            .map(|_| Candidate::random(&SketchPolicy::cpu(), &t.subgraph, &mut rng).sequence)
            .collect()
    }

    #[test]
    fn keep_of_clamps_and_ceils() {
        let s = SpecConfig::keeping(0.25);
        assert_eq!(s.keep_of(16), 4);
        assert_eq!(s.keep_of(17), 5);
        assert_eq!(s.keep_of(1), 1);
        assert_eq!(SpecConfig::keeping(0.0).keep_of(8), 1);
        assert_eq!(SpecConfig::keeping(2.0).keep_of(8), 8);
        // The final ranking doubles the verified fraction, capped at n.
        assert_eq!(s.final_keep_of(16), 8);
        assert_eq!(SpecConfig::keeping(0.6).final_keep_of(10), 10);
        assert_eq!(SpecConfig::default(), s);
    }

    #[test]
    fn stat_features_are_deterministic_and_shaped() {
        let p = pop(6, 3);
        let mut a = Vec::new();
        let mut b = Vec::new();
        stat_features_into(&p, &mut a);
        stat_features_into(&p, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.len() * STAT_DIM);
        assert!(a.iter().all(|x| x.is_finite()));
        // Different schedules produce different rows.
        let d = STAT_DIM;
        assert!((0..p.len() - 1).any(|i| a[i * d..(i + 1) * d] != a[(i + 1) * d..(i + 2) * d]));
    }

    #[test]
    fn scorer_warms_up_after_distilled_batches() {
        let t = task();
        let p = pop(8, 5);
        let idx: Vec<usize> = (0..p.len()).collect();
        let scores: Vec<f32> = (0..p.len()).map(|i| i as f32).collect();
        let mut d = DraftScorer::default();
        assert!(d.warmed_up(&t, 0));
        assert!(!d.warmed_up(&t, 1));
        d.score(&t, &p);
        d.distill(&idx, &scores);
        assert!(d.warmed_up(&t, 1));
        assert_eq!(d.updates(), 1);
        // Warm-up is tracked per task: an unseen task starts cold, even one
        // that reuses the name (as MobileNet's `expand`/`project` layers do).
        let other = SearchTask::new(
            Subgraph::new("d", AnchorOp::Dense { m: 8, n: 8, k: 8 }),
            Platform::i7_10510u(),
        );
        assert!(!d.warmed_up(&other, 1));
        let out = d.score(&t, &p);
        assert_eq!(out.len(), p.len());
        assert!(out.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn non_finite_targets_are_dropped_from_distillation() {
        let t = task();
        let p = pop(4, 7);
        let mut d = DraftScorer::default();
        d.score(&t, &p);
        d.distill(&[0, 1, 2, 3], &[f32::NEG_INFINITY; 4]);
        assert_eq!(d.updates(), 0, "all-invalid batch must be a no-op");
        d.distill(&[0, 1, 2, 3], &[1.0, f32::NEG_INFINITY, 2.0, f32::NAN]);
        assert_eq!(d.updates(), 1);
    }
}
