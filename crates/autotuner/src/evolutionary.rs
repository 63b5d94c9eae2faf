//! Evolutionary search over schedule candidates, guided by a cost model.
//!
//! Mirrors Ansor's search: an initial random population is evolved for a few
//! generations with tile mutations and crossover; the cost model prunes the
//! population each generation; finally the top-k candidates are returned for
//! hardware measurement (ε-greedy: a fraction is random to keep exploring).
//!
//! The search entry point is the [`Searcher`]: build it from a task, sketch
//! policy, cost model and [`EvolutionConfig`], optionally lend it a
//! [`DraftScorer`] that outlives the run, and [`run`](Searcher::run) it for
//! a [`SearchOutcome`]. Ranking is draft-then-verify: once a task's draft
//! head is warmed up, the near-free head ranks every pool and only the top
//! [`SpecConfig::draft_keep`] slice is verified by the full model; the rest
//! inherit their draft ranks. Drafting is RNG-neutral — it never touches
//! the search RNG stream — and `draft_keep >= 1.0` is the score-everything
//! search, bit for bit, with no head built.
//!
//! A run compiles its task's [`Sketch`] once and evolves one population in
//! place: after each ranking the candidates are moved into ranked order, so
//! the elites lead, and every slot behind them takes an offspring — its
//! decision copied over the loser's (`clone_from` a parent, then mutate or
//! cross), its sequence written over the loser's
//! ([`Sketch::emit_into`]) — with the verify gate regenerating into the
//! same slot on a reject. The returned top-k are moved out of the
//! population, not cloned.

use crate::cost_model::{CostModel, ScoreRequest};
use crate::draft::{DraftScorer, SpecConfig};
use crate::sketch::{Candidate, ScheduleDecision, Sketch, SketchPolicy};
use crate::task::SearchTask;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tlp_schedule::ScheduleSequence;

/// Fraction of each new generation produced by mutation (the rest is
/// crossover).
const MUTATION_RATE: f64 = 0.85;

/// Evolutionary-search knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvolutionConfig {
    /// Population size per generation.
    pub population: usize,
    /// Number of evolution generations.
    pub generations: usize,
    /// Fraction of the returned top-k replaced with random candidates.
    pub epsilon: f64,
    /// Draft-then-verify scoring: how much of each pool the full model
    /// verifies. `draft_keep >= 1.0` scores everything.
    pub speculative: SpecConfig,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            population: 128,
            generations: 4,
            epsilon: 0.1,
            speculative: SpecConfig::default(),
        }
    }
}

/// Candidate-generation and scoring accounting for one [`Searcher::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Candidates generated (initial population + offspring + ε-greedy
    /// randoms), including ones later pruned.
    pub generated: u64,
    /// Candidates rejected by the static verifier before scoring.
    pub pruned: u64,
    /// Candidates scored by the full cost model (forward passes through the
    /// expensive path): whole pools while a draft head warms up or under
    /// `draft_keep >= 1.0`, verified slices otherwise.
    pub full_scored: u64,
    /// Candidates ranked by the draft head instead of the full model
    /// (draft-only: the verified slice counts under `full_scored`).
    pub draft_scored: u64,
    /// Across speculative rankings, how many of the full model's top-m
    /// verified candidates the draft had also ranked in its own top-m
    /// (m = the slice that matters downstream: elite size or final k).
    pub draft_accepted: u64,
    /// Total top-m slots checked for `draft_accepted` — the denominator of
    /// [`SearchStats::draft_acceptance`].
    pub draft_checked: u64,
}

impl SearchStats {
    /// The fraction of generated candidates pruned before scoring (0 with no
    /// candidates).
    pub fn pruned_fraction(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.pruned as f64 / self.generated as f64
        }
    }

    /// The draft-acceptance rate: of the top-m slots that mattered after
    /// each speculative ranking, the fraction where draft and full model
    /// agreed (0 when speculation never ran).
    pub fn draft_acceptance(&self) -> f64 {
        if self.draft_checked == 0 {
            0.0
        } else {
            self.draft_accepted as f64 / self.draft_checked as f64
        }
    }

    /// Accumulates another run's accounting into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.pruned += other.pruned;
        self.full_scored += other.full_scored;
        self.draft_scored += other.draft_scored;
        self.draft_accepted += other.draft_accepted;
        self.draft_checked += other.draft_checked;
    }
}

/// What one [`Searcher::run`] produced: the top-k candidates ranked
/// best-first, plus generation/scoring accounting.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The returned candidates, best-first by the cost model (with the
    /// ε-greedy tail replaced by random exploration).
    pub candidates: Vec<Candidate>,
    /// Candidate-generation and scoring accounting.
    pub stats: SearchStats,
}

/// How many times a single population slot is regenerated before the gate
/// gives up and admits the candidate anyway (the scorer and measurer still
/// reject it independently). Bounds search time when a policy emits mostly
/// invalid schedules.
const MAX_PRUNE_RETRIES: usize = 8;

/// One evolutionary-search run: task + policy + cost model + config, and
/// the draft scorer its rankings consult.
///
/// ```
/// use rand::SeedableRng;
/// use tlp_autotuner::{EvolutionConfig, RandomModel, Searcher, SearchTask, SketchPolicy};
/// use tlp_hwsim::Platform;
/// use tlp_workload::{AnchorOp, Subgraph};
///
/// let task = SearchTask::new(
///     Subgraph::new("d", AnchorOp::Dense { m: 64, n: 64, k: 64 }),
///     Platform::i7_10510u(),
/// );
/// let config = EvolutionConfig { population: 16, generations: 3, ..Default::default() };
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let outcome = Searcher::new(&task, &SketchPolicy::cpu(), &RandomModel::new(1), &config)
///     .run(4, &mut rng);
/// assert_eq!(outcome.candidates.len(), 4);
/// // Two warm-up pools in full, then a quarter, then half of the last one.
/// assert_eq!(outcome.stats.full_scored, 16 + 16 + 4 + 8);
/// ```
pub struct Searcher<'a> {
    task: &'a SearchTask,
    policy: &'a SketchPolicy,
    model: &'a dyn CostModel,
    config: &'a EvolutionConfig,
    /// What rankings draft with: `lent` if the caller lent one, else `own`.
    own: DraftScorer,
    lent: Option<&'a mut DraftScorer>,
}

impl<'a> Searcher<'a> {
    /// Builds a searcher that drafts with a head of its own, over the
    /// built-in schedule statistics: cold at the first ranking, gone with
    /// the searcher. A one-off search behaves like the first round
    /// [`tune_network`](crate::tuner::tune_network) gives a task — warm-up
    /// pools scored in full, verified slices after.
    pub fn new(
        task: &'a SearchTask,
        policy: &'a SketchPolicy,
        model: &'a dyn CostModel,
        config: &'a EvolutionConfig,
    ) -> Self {
        Searcher {
            task,
            policy,
            model,
            config,
            own: DraftScorer::default(),
            lent: None,
        }
    }

    /// Drafts with the caller's scorer instead. It outlives the searcher,
    /// so its distilled weights and warm-up progress carry across rounds.
    pub fn with_draft(mut self, draft: &'a mut DraftScorer) -> Self {
        self.lent = Some(draft);
        self
    }

    /// Runs the search, returning `k` candidates ranked best-first plus
    /// accounting.
    pub fn run(&mut self, k: usize, rng: &mut SmallRng) -> SearchOutcome {
        let config = self.config;
        let sketch = self.policy.compile(&self.task.subgraph);
        let mut gate = Gate::new(self.task, self.policy);
        let mut stats = SearchStats::default();
        let elite_target = (config.population / 4).max(2);

        let mut population = Population::default();
        for _ in 0..config.population {
            let mut candidate = Candidate::default();
            gate.admit_random(&mut stats, rng, &sketch, &mut candidate);
            population.push(candidate);
        }

        for generation in 0..config.generations {
            let ranked = self.rank(
                &mut population.sequences,
                generation as u32 + 1,
                elite_target,
                false,
                &mut stats,
            );
            // Elite survivors head the next generation, in ranked order;
            // every slot behind them is overwritten with an offspring of
            // that prefix.
            population.reorder(&ranked);
            let n_elite = elite_target.min(ranked.len());
            let (elite, offspring) = population.decisions.split_at_mut(n_elite);
            for (d, sequence) in offspring
                .iter_mut()
                .zip(&mut population.sequences[n_elite..])
            {
                gate.admit(&mut stats, rng, sequence, |rng, sequence| {
                    if rng.gen_bool(MUTATION_RATE) {
                        d.clone_from(&elite[rng.gen_range(0..elite.len())]);
                        sketch.mutate(d, rng);
                    } else {
                        let a = &elite[rng.gen_range(0..elite.len())];
                        let b = &elite[rng.gen_range(0..elite.len())];
                        d.clone_from(a);
                        Sketch::crossover(d, b, rng);
                    }
                    sketch.emit_into(d, sequence);
                });
            }
        }

        let ranked = self.rank(
            &mut population.sequences,
            config.generations as u32 + 1,
            k.max(1),
            true,
            &mut stats,
        );
        let mut picked: Vec<Candidate> = ranked
            .into_iter()
            .take(k)
            .map(|i| population.take(i))
            .collect();
        // ε-greedy exploration.
        let n_random = ((k as f64) * config.epsilon).round() as usize;
        for slot in picked.iter_mut().rev().take(n_random) {
            gate.admit_random(&mut stats, rng, &sketch, slot);
        }
        SearchOutcome {
            candidates: picked,
            stats,
        }
    }

    /// Ranks the population best-first: the draft head ranks the pool, the
    /// full model verifies `keep` of it. `m_target` is the size of the
    /// slice downstream consumers act on (elite size during evolution, `k`
    /// at the final ranking) — the scope of the draft-acceptance check. The
    /// final ranking (`is_final`) verifies twice the generation fraction: it
    /// decides what gets *measured*, where a draft miss costs real hardware
    /// trials instead of one evolution step.
    ///
    /// Never consumes search RNG. Where `keep` covers the pool there is
    /// nothing to draft and the head is left alone (so `draft_keep >= 1.0`
    /// never builds one); while the task's head is warming up the full
    /// model scores everything and the head learns from all of it. `pop` is
    /// only lent: it comes back as it was.
    fn rank(
        &mut self,
        pop: &mut [ScheduleSequence],
        generation: u32,
        m_target: usize,
        is_final: bool,
        stats: &mut SearchStats,
    ) -> Vec<usize> {
        let (task, model) = (self.task, self.model);
        let spec = &self.config.speculative;
        let n = pop.len();
        let keep = if is_final {
            spec.final_keep_of(n)
        } else {
            spec.keep_of(n)
        };
        if keep >= n {
            return rank_indices(&verify(model, task, pop, stats));
        }

        // 1. Draft: rank the whole pool with the tiny head. This is the one
        // pass over the pool's draft features; distillation reuses its rows.
        let draft = self.lent.as_deref_mut().unwrap_or(&mut self.own);
        let updates = draft.updates() as usize;
        let warm = draft.warmed_up(task, spec.warmup_full_generations);
        let draft_scores = draft.score(task, pop);
        if !warm {
            let scores = verify(model, task, pop, stats);
            let all: Vec<usize> = (0..n).collect();
            draft.distill(&all, &scores);
            return rank_indices(&scores);
        }
        stats.draft_scored += (n - keep) as u64;
        let draft_order = rank_indices(draft_scores);

        // 2. Verify: the verification budget is split between the draft's
        // top slice and a stratified sample of the rest — a quarter of the
        // budget spent on evenly spaced draft ranks. Without it the head is
        // only ever distilled on its own top picks, its calibration on the
        // rest of the pool collapses, and a winner the head mis-ranks can
        // never recover. Sampling is index-arithmetic only (RNG-free). The
        // slice goes to the model in ascending candidate order, so engine
        // batching sees a stable stream.
        let explore = (keep / 4).min(n - keep);
        let top = keep - explore;
        // After the first evolution step the leading population slots are
        // the previous generation's elites, in that ranking's best-first
        // order — and its prefix was *full-model* verified.
        // Anchoring the verified slice on the best of them costs nothing
        // extra and guarantees a draft miss on a known-good candidate can
        // never evict it from the elite (or, on the final ranking, from
        // measurement).
        let elite_carry = if generation >= 2 {
            (keep / 4).min((self.config.population / 4).max(2))
        } else {
            0
        };
        let mut in_kept = vec![false; n];
        let mut kept: Vec<usize> = Vec::with_capacity(keep);
        for (i, flag) in in_kept.iter_mut().enumerate().take(elite_carry) {
            kept.push(i);
            *flag = true;
        }
        for &i in draft_order.iter() {
            if kept.len() >= top {
                break;
            }
            if !in_kept[i] {
                kept.push(i);
                in_kept[i] = true;
            }
        }
        // Midpoint-of-stride positions spread over the draft's ranking of
        // the remainder, rotated by the scorer's distillation counter so
        // successive ranks sample different draft-rank positions: a program
        // the head persistently mis-ranks is still verified eventually
        // instead of being invisible forever. Adding a constant offset mod
        // `rest.len()` keeps the positions distinct (rest.len() >= explore).
        let rest: Vec<usize> = draft_order
            .iter()
            .copied()
            .filter(|&i| !in_kept[i])
            .collect();
        let explore = (keep - kept.len()).min(rest.len());
        if explore > 0 {
            let phase = updates % rest.len();
            for i in 0..explore {
                let pick = rest[(phase + (2 * i + 1) * rest.len() / (2 * explore)) % rest.len()];
                kept.push(pick);
                in_kept[pick] = true;
            }
        }
        kept.sort_unstable();
        // The model reads a contiguous slice, so the verified sequences
        // move out of the pool for the call and back after it.
        let lent: Vec<ScheduleSequence> =
            kept.iter().map(|&i| std::mem::take(&mut pop[i])).collect();
        let kept_scores = verify(model, task, &lent, stats);
        for (&i, sequence) in kept.iter().zip(lent) {
            pop[i] = sequence;
        }
        draft.distill(&kept, &kept_scores);

        // Verified slice ranked by the full model.
        let kept_order = rank_indices(&kept_scores);

        // 3. Acceptance accounting: did the draft's top-m match the full
        // model's top-m of the verified slice? (Capped at the draft-top part
        // of the slice — the stratified sample is exploration, not a draft
        // pick.)
        let m = m_target.min(top).max(1);
        let draft_top = &draft_order[..m];
        let accepted = kept_order[..m]
            .iter()
            .filter(|&&j| draft_top.contains(&kept[j]))
            .count();
        stats.draft_accepted += accepted as u64;
        stats.draft_checked += m as u64;

        // 4. Final order: verified candidates by full score, then the
        // draft-rejected tail inheriting its draft ranks.
        let mut order: Vec<usize> = kept_order.into_iter().map(|j| kept[j]).collect();
        order.extend(draft_order.into_iter().filter(|&i| !in_kept[i]));
        debug_assert_eq!(order.len(), n);
        order
    }
}

/// The full model's score for every one of `seqs`. Unscoreable candidates
/// rank last but stay in the population: a later mutation can repair them,
/// and the measurer independently rejects them.
fn verify(
    model: &dyn CostModel,
    task: &SearchTask,
    seqs: &[ScheduleSequence],
    stats: &mut SearchStats,
) -> Vec<f32> {
    let batch = model.predict(ScoreRequest::new(task, seqs));
    debug_assert_eq!(batch.len(), seqs.len(), "cost model batch shape");
    stats.full_scored += seqs.len() as u64;
    (0..seqs.len())
        .map(|i| batch.score_or(i, f32::NEG_INFINITY))
        .collect()
}

/// The candidates being evolved, decisions and emitted sequences side by
/// side (index `i` of each is one [`Candidate`]) so that ranking borrows the
/// sequences as one slice. One population lives through a whole run: its
/// slots are reordered and overwritten, never cloned.
#[derive(Default)]
struct Population {
    decisions: Vec<ScheduleDecision>,
    sequences: Vec<ScheduleSequence>,
}

impl Population {
    fn push(&mut self, c: Candidate) {
        self.decisions.push(c.decision);
        self.sequences.push(c.sequence);
    }

    /// Moves candidate `i` out, leaving an empty slot.
    fn take(&mut self, i: usize) -> Candidate {
        Candidate {
            decision: std::mem::take(&mut self.decisions[i]),
            sequence: std::mem::take(&mut self.sequences[i]),
        }
    }

    /// Moves the candidate in slot `order[j]` to slot `j`, for every `j`.
    /// `order` must be a permutation of the slots.
    fn reorder(&mut self, order: &[usize]) {
        use std::mem::take;
        debug_assert_eq!(order.len(), self.sequences.len());
        self.decisions = order
            .iter()
            .map(|&i| take(&mut self.decisions[i]))
            .collect();
        self.sequences = order
            .iter()
            .map(|&i| take(&mut self.sequences[i]))
            .collect();
    }
}

/// The static-verification gate in front of the scored population: every
/// candidate is verified (one [`tlp_verify::Verifier`] per task) before it
/// is scored, because pruning a doomed candidate costs one linear analyzer
/// pass instead of a cost-model forward pass plus a guaranteed lowering
/// rejection at measurement time.
struct Gate {
    verifier: tlp_verify::Verifier,
}

impl Gate {
    fn new(task: &SearchTask, policy: &SketchPolicy) -> Self {
        let opts = tlp_verify::VerifyOptions {
            gpu: Some(policy.gpu),
        };
        Gate {
            verifier: tlp_verify::Verifier::new(&task.subgraph, &opts),
        }
    }

    /// Has `generate` write a candidate's sequence into `slot` until one
    /// passes verification (or the retry budget runs out — then the last one
    /// stays and the downstream scorer/measurer deal with it).
    fn admit(
        &mut self,
        stats: &mut SearchStats,
        rng: &mut SmallRng,
        slot: &mut ScheduleSequence,
        mut generate: impl FnMut(&mut SmallRng, &mut ScheduleSequence),
    ) {
        generate(rng, slot);
        stats.generated += 1;
        let mut retries = 0;
        while self.verifier.check(slot).has_errors() {
            stats.pruned += 1;
            if retries >= MAX_PRUNE_RETRIES {
                break;
            }
            retries += 1;
            generate(rng, slot);
            stats.generated += 1;
        }
    }

    /// Admits a fresh random candidate into `slot`.
    fn admit_random(
        &mut self,
        stats: &mut SearchStats,
        rng: &mut SmallRng,
        sketch: &Sketch,
        slot: &mut Candidate,
    ) {
        let Candidate { decision, sequence } = slot;
        self.admit(stats, rng, sequence, |rng, sequence| {
            *decision = sketch.random_decision(rng);
            sketch.emit_into(decision, sequence);
        });
    }
}

/// Indices sorted by descending score.
fn rank_indices(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::cost_model::RandomModel;
    use crate::measure::Measurer;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use tlp_hwsim::Platform;
    use tlp_workload::{AnchorOp, Subgraph};

    fn task() -> SearchTask {
        SearchTask::new(
            Subgraph::new(
                "d",
                AnchorOp::Dense {
                    m: 256,
                    n: 256,
                    k: 256,
                },
            ),
            Platform::i7_10510u(),
        )
    }

    fn search(
        t: &SearchTask,
        model: &dyn CostModel,
        config: &EvolutionConfig,
        k: usize,
        seed: u64,
    ) -> SearchOutcome {
        let mut rng = SmallRng::seed_from_u64(seed);
        Searcher::new(t, &SketchPolicy::cpu(), model, config).run(k, &mut rng)
    }

    /// An "oracle" model that scores by true (negated) latency.
    struct Oracle;
    impl CostModel for Oracle {
        fn predict(&self, request: ScoreRequest<'_>) -> crate::cost_model::ScoreBatch {
            let mut m = Measurer::new(false);
            let scores = request
                .candidates
                .iter()
                .map(|s| {
                    m.measure(request.task, s)
                        .map(|l| -(l as f32))
                        .unwrap_or(f32::NEG_INFINITY)
                })
                .collect();
            crate::cost_model::ScoreBatch::dense(scores, crate::cost_model::PipelineCost::ZERO)
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    #[test]
    fn emitted_candidates_are_never_pruned() {
        // Everything the sketch policy emits is statically valid, so the
        // verification gate must be a no-op on an uncorrupted search.
        let t = task();
        let config = EvolutionConfig {
            population: 24,
            generations: 2,
            ..EvolutionConfig::default()
        };
        let outcome = search(&t, &RandomModel::new(3), &config, 6, 11);
        assert_eq!(outcome.candidates.len(), 6);
        assert_eq!(outcome.stats.pruned, 0);
        assert!(outcome.stats.generated >= 24);
        assert_eq!(outcome.stats.pruned_fraction(), 0.0);
        // No scorer lent: the searcher drafts with its own head, cold at
        // the start — two warm-up pools scored in full, then the final
        // ranking verifies half of its pool.
        assert_eq!(outcome.stats.full_scored, 24 + 24 + 12);
        assert_eq!(outcome.stats.draft_scored, 12);
        assert!(outcome.stats.draft_checked > 0);
    }

    #[test]
    fn gate_prunes_invalid_candidates_with_bounded_retries() {
        use tlp_schedule::{ConcretePrimitive, PrimitiveKind};

        let t = task();
        let policy = SketchPolicy::cpu();
        let mut gate = Gate::new(&t, &policy);
        let mut stats = SearchStats::default();
        let mut rng = SmallRng::seed_from_u64(17);
        // A generator that only ever produces invalid schedules (dangling
        // fuse operands): the gate must give up after the retry budget
        // instead of looping forever.
        let mut admitted = ScheduleSequence::new();
        gate.admit(&mut stats, &mut rng, &mut admitted, |rng, slot| {
            *slot = Candidate::random(&policy, &t.subgraph, rng).sequence;
            slot.push(
                ConcretePrimitive::new(PrimitiveKind::Fuse, "d").with_loops(["ghost_a", "ghost_b"]),
            );
        });
        assert_eq!(stats.generated, 1 + MAX_PRUNE_RETRIES as u64);
        assert_eq!(stats.pruned, stats.generated);
        assert!(stats.pruned_fraction() > 0.99);
        // The hopeless candidate is still admitted; downstream layers
        // (scorer masking, measurer) reject it independently.
        assert!(tlp_verify::verify(&t.subgraph, &admitted).has_errors());
    }

    #[test]
    fn oracle_guidance_beats_random_guidance() {
        let t = task();
        let config = EvolutionConfig {
            population: 48,
            generations: 3,
            epsilon: 0.0,
            ..EvolutionConfig::default()
        };
        let best_latency = |cands: &[Candidate]| {
            let mut m = Measurer::new(false);
            cands
                .iter()
                .filter_map(|c| m.measure(&t, &c.sequence).ok())
                .fold(f64::INFINITY, f64::min)
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let by_oracle = Searcher::new(&t, &SketchPolicy::cpu(), &Oracle, &config)
            .run(8, &mut rng)
            .candidates;
        let by_random = Searcher::new(&t, &SketchPolicy::cpu(), &RandomModel::new(5), &config)
            .run(8, &mut rng)
            .candidates;
        let lo = best_latency(&by_oracle);
        let lr = best_latency(&by_random);
        assert!(
            lo <= lr * 1.05,
            "oracle-guided {lo} should beat random-guided {lr}"
        );
    }

    /// Scores by schedule fingerprint and records what it was asked about.
    struct Recording(std::cell::RefCell<Vec<Vec<u64>>>);
    impl Recording {
        fn score(seq: &ScheduleSequence) -> f32 {
            (seq.fingerprint() % 1009) as f32
        }
    }
    impl CostModel for Recording {
        fn predict(&self, request: ScoreRequest<'_>) -> crate::cost_model::ScoreBatch {
            let asked = request.candidates.iter().map(|s| s.fingerprint()).collect();
            self.0.borrow_mut().push(asked);
            let scores = request.candidates.iter().map(Recording::score).collect();
            crate::cost_model::ScoreBatch::dense(scores, crate::cost_model::PipelineCost::ZERO)
        }
        fn name(&self) -> &str {
            "recording"
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What every consumer of a speculative ranking relies on, over
        /// random pools, keeps, generations and head states.
        #[test]
        fn speculative_rank_verifies_exactly_the_slice_it_ranks_first(
            n in 2usize..48,
            draft_keep in 0.02f64..0.98,
            generation in 1u32..5,
            is_final in 0u8..2,
            m_target in 1usize..48,
            prior_batches in 0usize..4,
            seed in 0u64..1000,
        ) {
            let t = task();
            let policy = SketchPolicy::cpu();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pop: Vec<ScheduleSequence> = (0..n)
                .map(|_| Candidate::random(&policy, &t.subgraph, &mut rng).sequence)
                .collect();
            let before = pop.clone();
            let config = EvolutionConfig {
                population: n,
                speculative: SpecConfig { draft_keep, warmup_full_generations: 0 },
                ..EvolutionConfig::default()
            };
            let spec = config.speculative;
            let is_final = is_final == 1;
            let keep = if is_final { spec.final_keep_of(n) } else { spec.keep_of(n) };
            if keep >= n {
                return Ok(()); // nothing left for the draft to rank
            }

            // A head with some history: its update count rotates the
            // stratified sample.
            let mut draft = DraftScorer::default();
            let all: Vec<usize> = (0..n).collect();
            let targets: Vec<f32> = pop.iter().map(Recording::score).collect();
            for _ in 0..prior_batches {
                draft.score(&t, &pop);
                draft.distill(&all, &targets);
            }

            let model = Recording(Default::default());
            let mut stats = SearchStats::default();
            let order = Searcher::new(&t, &policy, &model, &config)
                .with_draft(&mut draft)
                .rank(&mut pop, generation, m_target, is_final, &mut stats);

            // The pool was only lent.
            prop_assert_eq!(&pop, &before);
            // A permutation of the pool.
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, all);
            // One model call, over exactly `keep` candidates: the ones
            // ranked first, best-first by the model's own scores.
            let asked = model.0.into_inner();
            prop_assert_eq!(asked.len(), 1);
            prop_assert_eq!(stats.full_scored, keep as u64);
            prop_assert_eq!(stats.draft_scored, (n - keep) as u64);
            let verified = &order[..keep];
            let mut expected: Vec<u64> = verified.iter().map(|&i| pop[i].fingerprint()).collect();
            let mut got = asked[0].clone();
            expected.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
            prop_assert!(verified
                .windows(2)
                .all(|w| Recording::score(&pop[w[0]]) >= Recording::score(&pop[w[1]])));
            // Last generation's verified elites lead the pool and are
            // re-verified, so a draft miss cannot evict them.
            if generation >= 2 {
                let carried = (keep / 4).min((n / 4).max(2));
                prop_assert!((0..carried).all(|i| verified.contains(&i)));
            }
            // And the head learned from that one verified slice.
            prop_assert_eq!(draft.updates(), prior_batches as u64 + 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The move that heads a generation with its elites loses and
        /// duplicates nothing: slot `j` holds what `ranked[j]` held, so the
        /// elites lead in ranked order and every loser is still there to be
        /// overwritten.
        #[test]
        fn reordering_the_population_is_the_ranked_permutation(
            n in 1usize..48,
            seed in 0u64..1000,
        ) {
            let t = task();
            let sketch = SketchPolicy::cpu().compile(&t.subgraph);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut population = Population::default();
            for _ in 0..n {
                population.push(sketch.random_candidate(&mut rng));
            }
            let before: Vec<Candidate> = (0..n)
                .map(|i| Candidate {
                    decision: population.decisions[i].clone(),
                    sequence: population.sequences[i].clone(),
                })
                .collect();
            let scores: Vec<f32> = (0..n).map(|_| rng.gen_range(0..8) as f32).collect();
            let ranked = rank_indices(&scores);

            population.reorder(&ranked);

            prop_assert_eq!(population.decisions.len(), n);
            prop_assert_eq!(population.sequences.len(), n);
            for (j, &i) in ranked.iter().enumerate() {
                prop_assert_eq!(&population.decisions[j], &before[i].decision);
                prop_assert_eq!(&population.sequences[j], &before[i].sequence);
            }
            let mut sources = ranked.clone();
            sources.sort_unstable();
            prop_assert_eq!(sources, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seeded_search_reproduces_the_pinned_outcome() {
        // Literals captured at the commit before the population became
        // parallel decision/sequence vectors, and held since — through
        // extract-once drafting and the lent verified slice: same RNG
        // draws, same population order, same outcome, at full keep (the
        // score-everything search) and at a quarter.
        let t = task();
        let fp =
            |c: &[Candidate]| -> Vec<u64> { c.iter().map(|x| x.sequence.fingerprint()).collect() };
        let config = EvolutionConfig {
            population: 32,
            generations: 3,
            speculative: SpecConfig::keeping(1.0),
            ..EvolutionConfig::default()
        };
        let mut draft = DraftScorer::default();
        let mut rng = SmallRng::seed_from_u64(41);
        let plain = Searcher::new(&t, &SketchPolicy::cpu(), &RandomModel::new(3), &config)
            .with_draft(&mut draft)
            .run(6, &mut rng);
        assert_eq!(
            draft.updates(),
            0,
            "a head no ranking consults is not trained"
        );
        assert_eq!(
            fp(&plain.candidates),
            [
                9319024223050117701,
                15837938532055243337,
                11613326854033668019,
                6014688537553413492,
                1583579451771938141,
                2798450452828589298
            ]
        );
        assert_eq!(
            plain.stats,
            SearchStats {
                generated: 105,
                full_scored: 128,
                ..SearchStats::default()
            }
        );

        let spec_config = EvolutionConfig {
            speculative: SpecConfig {
                draft_keep: 0.25,
                warmup_full_generations: 1,
            },
            ..config
        };
        let mut draft = DraftScorer::default();
        let mut rng = SmallRng::seed_from_u64(41);
        let spec = Searcher::new(&t, &SketchPolicy::cpu(), &Oracle, &spec_config)
            .with_draft(&mut draft)
            .run(6, &mut rng);
        assert_eq!(
            fp(&spec.candidates),
            [
                16901305721431003364,
                16901305721431003364,
                16901305721431003364,
                16086051031070484097,
                8338107873360760071,
                2798450452828589298
            ]
        );
        assert_eq!(
            spec.stats,
            SearchStats {
                generated: 105,
                pruned: 0,
                full_scored: 64,
                draft_scored: 64,
                draft_accepted: 9,
                draft_checked: 18,
            }
        );
        assert_eq!(
            draft.updates(),
            4,
            "one warm-up pool, three verified slices"
        );
    }
}
