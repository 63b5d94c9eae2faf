//! The cost-model interface used by the search loop.
//!
//! A cost model scores candidate schedules; higher scores mean predicted
//! better (lower-latency) programs. Online models (Ansor's GBDT) learn from
//! measurements as tuning proceeds; offline models (TenSet MLP, TLP) are
//! pre-trained and may ignore updates.
//!
//! Scoring goes through a request/response pair rather than bare slices:
//! a [`ScoreRequest`] bundles the task and the candidate batch, and the
//! returned [`ScoreBatch`] carries per candidate scores *and* a validity
//! mask, the model's simulated [`PipelineCost`], and [`BatchStats`]
//! describing how the batch was actually executed (micro-batches, cache
//! hits, wall time). This lets engine-backed models surface
//! caching/parallelism accounting without a side channel, and lets
//! candidates that fail to lower be reported explicitly instead of
//! smuggled through sentinel scores.

use crate::task::SearchTask;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use tlp_schedule::ScheduleSequence;

/// A batch of candidate schedules to score for one task.
#[derive(Clone, Copy, Debug)]
pub struct ScoreRequest<'a> {
    /// The task the candidates belong to.
    pub task: &'a SearchTask,
    /// The candidate schedules to score, in request order.
    pub candidates: &'a [ScheduleSequence],
}

impl<'a> ScoreRequest<'a> {
    /// A request to score `candidates` for `task`.
    pub fn new(task: &'a SearchTask, candidates: &'a [ScheduleSequence]) -> Self {
        ScoreRequest { task, candidates }
    }

    /// Number of candidates in the request.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the request carries no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Simulated per-candidate pipeline cost (seconds), broken down by stage.
///
/// The tuner charges `per_candidate_s() × NOMINAL_POOL` of simulated wall
/// time per round on top of real inference time, reproducing the paper's
/// §6.3 observation that program-level feature models (Ansor, TenSet MLP)
/// pay for tensor-program generation on every candidate while TLP reads
/// schedule primitives directly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineCost {
    /// Generating the tensor program from the schedule (zero for TLP).
    pub program_gen_s: f64,
    /// Extracting model features from the program or schedule.
    pub feature_s: f64,
    /// Running batched model inference.
    pub inference_s: f64,
}

impl PipelineCost {
    /// A free pipeline (the random baseline).
    pub const ZERO: PipelineCost = PipelineCost::new(0.0, 0.0, 0.0);

    /// Builds a cost from its per-stage components.
    pub const fn new(program_gen_s: f64, feature_s: f64, inference_s: f64) -> Self {
        PipelineCost {
            program_gen_s,
            feature_s,
            inference_s,
        }
    }

    /// Total simulated seconds charged per candidate.
    pub fn per_candidate_s(&self) -> f64 {
        self.program_gen_s + self.feature_s + self.inference_s
    }
}

/// How a score batch was actually executed: micro-batching, cache traffic
/// and wall time, as reported by the inference engine (or synthesized by
/// models that score inline).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Micro-batches dispatched to score the cache misses.
    pub micro_batches: u32,
    /// Candidates served from the score cache.
    pub cache_hits: u32,
    /// Candidates the score cache did not answer (an engine runs inference
    /// once per distinct one).
    pub cache_misses: u32,
    /// Worker threads used for this batch.
    pub threads: u32,
    /// Real wall-clock seconds spent scoring the batch.
    pub wall_s: f64,
}

/// Scores for one [`ScoreRequest`], plus execution accounting.
///
/// The scores and `valid` mask are parallel to the request's candidates. A
/// candidate with `valid[i] == false` could not be scored (typically its
/// schedule failed to lower to a tensor program); its score slot holds
/// `f32::NEG_INFINITY` so naive consumers still rank it last. The raw score
/// storage is private — read through [`ScoreBatch::score_or`] (which
/// substitutes a fallback for unscoreable candidates) or iterate
/// [`ScoreBatch::scores`].
#[derive(Clone, Debug, Default)]
pub struct ScoreBatch {
    /// Predicted desirability per candidate (higher = better).
    scores: Vec<f32>,
    /// Whether each candidate was actually scored by the model.
    pub valid: Vec<bool>,
    /// The model's simulated per-candidate pipeline cost.
    pub cost: PipelineCost,
    /// How the batch was executed.
    pub stats: BatchStats,
}

impl ScoreBatch {
    /// A batch where every candidate scored successfully.
    pub fn dense(scores: Vec<f32>, cost: PipelineCost) -> Self {
        let n = scores.len();
        ScoreBatch {
            valid: vec![true; n],
            scores,
            cost,
            stats: BatchStats {
                micro_batches: 1,
                cache_misses: n as u32,
                threads: 1,
                ..BatchStats::default()
            },
        }
    }

    /// A batch from per-candidate optional scores; `None` marks candidates
    /// the model could not score.
    pub fn masked(scores: Vec<Option<f32>>, cost: PipelineCost) -> Self {
        let valid: Vec<bool> = scores.iter().map(Option::is_some).collect();
        let scores = scores
            .into_iter()
            .map(|s| s.unwrap_or(f32::NEG_INFINITY))
            .collect();
        ScoreBatch {
            scores,
            valid,
            cost,
            stats: BatchStats::default(),
        }
    }

    /// Number of candidates in the batch.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The stored scores in candidate order. Unscoreable candidates yield
    /// their `f32::NEG_INFINITY` sentinel; use [`ScoreBatch::score_or`] to
    /// substitute a different fallback per candidate.
    pub fn scores(&self) -> impl Iterator<Item = f32> + '_ {
        self.scores.iter().copied()
    }

    /// The score of candidate `i`, or `fallback` if it was not scoreable.
    pub fn score_or(&self, i: usize, fallback: f32) -> f32 {
        if self.valid[i] {
            self.scores[i]
        } else {
            fallback
        }
    }

    /// Count of candidates the model could not score.
    pub fn num_invalid(&self) -> usize {
        self.valid.iter().filter(|v| !**v).count()
    }
}

/// Why a cost-model update was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// `schedules` and `latencies` differ in length.
    LengthMismatch {
        /// Number of schedules offered.
        schedules: usize,
        /// Number of latencies offered.
        latencies: usize,
    },
    /// The model rejected the measurements (model-specific reason).
    Model(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::LengthMismatch {
                schedules,
                latencies,
            } => write!(
                f,
                "update shape mismatch: {schedules} schedules vs {latencies} latencies"
            ),
            UpdateError::Model(msg) => write!(f, "cost model rejected update: {msg}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Validates the shared shape precondition of [`CostModel::update`].
pub fn check_update_shape(
    schedules: &[ScheduleSequence],
    latencies: &[f64],
) -> Result<(), UpdateError> {
    if schedules.len() == latencies.len() {
        Ok(())
    } else {
        Err(UpdateError::LengthMismatch {
            schedules: schedules.len(),
            latencies: latencies.len(),
        })
    }
}

/// Scores schedule candidates for a search task.
pub trait CostModel {
    /// Scores a candidate batch. The returned batch is parallel to
    /// `request.candidates` and must have the same length.
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch;

    /// Feeds back measured latencies (seconds). Online models retrain here;
    /// offline models accept and ignore the data.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError::LengthMismatch`] when schedules and latencies
    /// disagree in length, or [`UpdateError::Model`] when the model rejects
    /// the measurements.
    fn update(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<(), UpdateError> {
        let _ = task;
        check_update_shape(schedules, latencies)
    }

    /// Model name for reports.
    fn name(&self) -> &str;

    /// Simulated per-candidate pipeline cost charged on top of the real
    /// inference time (paper §6.3, Fig. 10). Program-level feature
    /// extractors (Ansor, TenSet MLP) must generate the tensor program
    /// before extracting features; TLP reads schedule primitives directly.
    fn pipeline_cost(&self) -> PipelineCost {
        PipelineCost::ZERO
    }
}

// Boxed models are cost models too, so call sites that pick a backend at
// runtime (the CLI, serving clients) can pass `Box<dyn CostModel>` anywhere
// a concrete model is expected.
impl<T: CostModel + ?Sized> CostModel for Box<T> {
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        (**self).predict(request)
    }

    fn update(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<(), UpdateError> {
        (**self).update(task, schedules, latencies)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn pipeline_cost(&self) -> PipelineCost {
        (**self).pipeline_cost()
    }
}

/// A model that scores uniformly at random — the "no cost model" baseline.
///
/// The xorshift state lives in an [`AtomicU64`] so concurrent `predict`
/// calls from engine worker threads stay safe; sequential calls draw the
/// same stream a single-threaded xorshift64 would.
#[derive(Debug)]
pub struct RandomModel {
    state: AtomicU64,
}

impl Default for RandomModel {
    fn default() -> Self {
        RandomModel::new(0)
    }
}

impl RandomModel {
    /// Creates a random model with a fixed seed.
    pub fn new(seed: u64) -> Self {
        RandomModel {
            state: AtomicU64::new(seed | 1),
        }
    }

    /// Advances the shared xorshift64 state by one step and returns the new
    /// value. Lock-free: concurrent callers each observe a distinct state
    /// transition, so no draw is ever handed out twice.
    fn next(&self) -> u64 {
        let step = |mut x: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // The closure always returns Some, so both arms carry the prior
        // state; matching keeps the lock-free loop free of unwrap/expect.
        let prev = match self
            .state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(step(x)))
        {
            Ok(p) | Err(p) => p,
        };
        step(prev)
    }
}

impl CostModel for RandomModel {
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        let scores = request
            .candidates
            .iter()
            .map(|_| (self.next() >> 40) as f32 / (1u64 << 24) as f32)
            .collect();
        ScoreBatch::dense(scores, PipelineCost::ZERO)
    }

    fn name(&self) -> &str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp_hwsim::Platform;
    use tlp_workload::{AnchorOp, Subgraph};

    fn task() -> SearchTask {
        SearchTask::new(
            Subgraph::new("d", AnchorOp::Dense { m: 8, n: 8, k: 8 }),
            Platform::i7_10510u(),
        )
    }

    #[test]
    fn random_model_scores_every_candidate() {
        let task = task();
        let model = RandomModel::new(7);
        let seqs = vec![ScheduleSequence::new(); 5];
        let batch = model.predict(ScoreRequest::new(&task, &seqs));
        assert_eq!(batch.len(), 5);
        assert!(batch.valid.iter().all(|&v| v));
        assert_eq!(batch.num_invalid(), 0);
        // Not all equal.
        let scores: Vec<f32> = batch.scores().collect();
        assert!(scores.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn random_model_stream_matches_sequential_xorshift() {
        // The atomic refactor must preserve the original Cell-based stream.
        let model = RandomModel::new(7);
        let task = task();
        let seqs = vec![ScheduleSequence::new(); 3];
        let got: Vec<f32> = model
            .predict(ScoreRequest::new(&task, &seqs))
            .scores()
            .collect();
        let mut x: u64 = 7 | 1;
        let want: Vec<f32> = (0..3)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as f32 / (1u64 << 24) as f32
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn score_batch_masks_unscoreable_candidates() {
        let b = ScoreBatch::masked(vec![Some(1.0), None, Some(3.0)], PipelineCost::ZERO);
        assert_eq!(b.len(), 3);
        assert_eq!(b.num_invalid(), 1);
        assert!(!b.valid[1]);
        assert_eq!(b.scores().nth(1), Some(f32::NEG_INFINITY));
        assert_eq!(b.score_or(1, -1.0), -1.0);
        assert_eq!(b.score_or(0, -1.0), 1.0);
    }

    #[test]
    fn update_shape_checked_by_default() {
        let mut model = RandomModel::new(1);
        let t = task();
        let seqs = vec![ScheduleSequence::new(); 2];
        assert!(model.update(&t, &seqs, &[1e-3, 2e-3]).is_ok());
        let err = model.update(&t, &seqs, &[1e-3]).unwrap_err();
        assert_eq!(
            err,
            UpdateError::LengthMismatch {
                schedules: 2,
                latencies: 1
            }
        );
    }

    #[test]
    fn boxed_model_delegates() {
        let t = task();
        let seqs = vec![ScheduleSequence::new(); 4];
        let direct = RandomModel::new(9).predict(ScoreRequest::new(&t, &seqs));
        let mut boxed: Box<dyn CostModel> = Box::new(RandomModel::new(9));
        let via_box = boxed.predict(ScoreRequest::new(&t, &seqs));
        assert!(direct.scores().eq(via_box.scores()));
        assert_eq!(boxed.name(), "random");
        assert_eq!(boxed.pipeline_cost(), PipelineCost::ZERO);
        assert!(boxed.update(&t, &seqs, &[1e-3; 4]).is_ok());
        assert!(boxed.update(&t, &seqs, &[1e-3]).is_err());
    }

    #[test]
    fn pipeline_cost_totals_stages() {
        let c = PipelineCost::new(1.5e-3, 0.4e-3, 0.1e-3);
        assert!((c.per_candidate_s() - 2.0e-3).abs() < 1e-12);
        assert_eq!(PipelineCost::ZERO.per_candidate_s(), 0.0);
    }
}
