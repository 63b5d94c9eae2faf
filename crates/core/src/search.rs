//! Cost-model adapters plugging TLP and the baselines into the auto-tuner's
//! search loop (paper §6.3).
//!
//! All model families share one adapter: [`FeatureModel`] is the
//! `CostModel` view of an [`InferenceEngine`] (batching, threading and score
//! caching) that owns a [`ScheduleScorer`] (how this model family turns
//! schedules into scores), and implements the `CostModel` trait exactly
//! once; model families differ only in their scorer.

use crate::baselines::{program_features, AnsorOnlineModel, TenSetMlp, PROGRAM_FEATURE_DIM};
use crate::engine::{EngineConfig, InferenceEngine, Keys, ScheduleScorer, ScoreKeys};
use crate::features::{FeatureBuf, FeatureExtractor};
use crate::model::TlpModel;
use tlp_autotuner::{
    check_update_shape, BatchStats, CostModel, PipelineCost, ScoreBatch, ScoreRequest, SearchTask,
    UpdateError,
};
use tlp_nn::Workspace;
use tlp_schedule::ScheduleSequence;

/// Simulated per-candidate pipeline cost of program-feature models: generate
/// the tensor program, extract features, run inference. Stage split follows
/// the paper's §6.3 observation that five GA rounds take ~20 s with
/// TenSet-MLP over ~10k candidates — dominated by program generation.
pub const PROGRAM_GEN_COST: PipelineCost = PipelineCost::new(1.5e-3, 0.4e-3, 0.1e-3);

/// Simulated per-candidate pipeline cost of TLP models: feature extraction
/// straight from primitives plus batched inference — the same GA rounds take
/// ~6 s with no program generation at all (paper §6.3).
pub const TLP_PIPELINE_COST: PipelineCost = PipelineCost::new(0.0, 0.5e-3, 0.1e-3);

/// The `CostModel` view of an [`InferenceEngine`] — the only `CostModel`
/// implementation in the crate; every model family plugs in as the engine's
/// scorer.
#[derive(Debug)]
pub struct FeatureModel<S: ScheduleScorer>(InferenceEngine<S>);

impl<S: ScheduleScorer> FeatureModel<S> {
    /// Wraps `scorer` in a default-sized engine.
    pub fn from_scorer(scorer: S) -> Self {
        FeatureModel::with_engine(scorer, EngineConfig::default())
    }

    /// Wraps `scorer` in an explicitly sized engine.
    pub fn with_engine(scorer: S, config: EngineConfig) -> Self {
        FeatureModel(InferenceEngine::new(scorer, config))
    }

    /// The underlying scorer.
    pub fn scorer(&self) -> &S {
        self.0.scorer()
    }

    /// The engine (for cumulative statistics).
    pub fn engine(&self) -> &InferenceEngine<S> {
        &self.0
    }

    /// Unwraps the scorer, dropping the engine and its cache.
    pub fn into_scorer(self) -> S {
        self.0.into_scorer()
    }
}

impl<S: ScheduleScorer> CostModel for FeatureModel<S> {
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        let (scores, stats) = self.0.score(request.task, request.candidates);
        let mut batch = ScoreBatch::masked(scores, self.pipeline_cost());
        batch.stats = stats;
        batch
    }

    fn update(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<(), UpdateError> {
        check_update_shape(schedules, latencies)?;
        self.0.absorb(task, schedules, latencies)
    }

    fn name(&self) -> &str {
        self.scorer().name()
    }

    fn pipeline_cost(&self) -> PipelineCost {
        self.scorer().pipeline_cost()
    }
}

/// Per-thread scratch shared by the primitive-feature scorers: one autodiff
/// workspace, one engine-owned feature buffer, and one score buffer, all
/// reused across micro-batches — the steady-state scoring loop allocates
/// nothing.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    ws: Workspace,
    feats: FeatureBuf,
    scores: Vec<f32>,
}

impl FeatureScratch {
    /// Scores one micro-batch through head `head` of `model` — the path
    /// shared by [`TlpScorer`] (head 0) and [`MtlTlpScorer`] (any head):
    /// features come straight from the schedule primitives, so no program
    /// generation is charged.
    fn score_head(
        &mut self,
        model: &TlpModel,
        extractor: &FeatureExtractor,
        head: usize,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        extractor.extract_batch_into(idx.iter().map(|&i| &schedules[i]), &mut self.feats);
        self.predict(model, head, out);
    }

    /// [`FeatureScratch::score_head`] for candidates whose features were
    /// extracted already: gathers blocks `idx` of `feats`.
    fn score_gathered(
        &mut self,
        model: &TlpModel,
        head: usize,
        feats: &FeatureBuf,
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        self.feats.clear();
        self.feats.extend_from(feats, idx.iter().copied());
        self.predict(model, head, out);
    }

    /// The one predict call: the buffered features through head `head`.
    fn predict(&mut self, model: &TlpModel, head: usize, out: &mut Vec<Option<f32>>) {
        model.predict_task_into(&mut self.ws, &self.feats, head, &mut self.scores);
        out.extend(self.scores.iter().copied().map(Some));
    }
}

/// TLP scoring through the target-platform head (head 0) — the head-0 form
/// of [`MtlTlpScorer`].
#[derive(Debug)]
pub struct TlpScorer {
    /// The pre-trained model.
    pub model: TlpModel,
    /// The frozen feature extractor.
    pub extractor: FeatureExtractor,
}

impl ScheduleScorer for TlpScorer {
    type Scratch = FeatureScratch;

    fn name(&self) -> &str {
        "tlp"
    }

    fn pipeline_cost(&self) -> PipelineCost {
        TLP_PIPELINE_COST
    }

    fn score_micro_batch_into(
        &self,
        scratch: &mut FeatureScratch,
        _task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        scratch.score_head(&self.model, &self.extractor, 0, schedules, idx, out);
    }
}

/// TLP scoring through one selected platform head (0 = the target platform;
/// continual adaptation serves a newly grown head by index).
#[derive(Debug)]
pub struct MtlTlpScorer {
    /// The pre-trained model.
    pub model: TlpModel,
    /// The frozen feature extractor.
    pub extractor: FeatureExtractor,
    /// Head index every score goes through.
    pub head: usize,
}

impl MtlTlpScorer {
    /// A scorer over the target-platform head (head 0).
    pub fn new(model: TlpModel, extractor: FeatureExtractor) -> Self {
        MtlTlpScorer::for_head(model, extractor, 0)
    }

    /// A scorer over an explicit head index.
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range for `model`.
    pub fn for_head(model: TlpModel, extractor: FeatureExtractor, head: usize) -> Self {
        assert!(head < model.num_tasks(), "head index out of range");
        MtlTlpScorer {
            model,
            extractor,
            head,
        }
    }
}

impl ScheduleScorer for MtlTlpScorer {
    type Scratch = FeatureScratch;

    fn name(&self) -> &str {
        "mtl-tlp"
    }

    fn pipeline_cost(&self) -> PipelineCost {
        TLP_PIPELINE_COST
    }

    fn score_micro_batch_into(
        &self,
        scratch: &mut FeatureScratch,
        _task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        scratch.score_head(&self.model, &self.extractor, self.head, schedules, idx, out);
    }
}

impl InferenceEngine<MtlTlpScorer> {
    /// [`InferenceEngine::score_into`] for a request already turned into the
    /// model's input: `feats` holds one block per candidate, extracted by
    /// this scorer's extractor, and `keys` the request's [`ScoreKeys`].
    /// Nothing is hashed or extracted again; scores and stats are those
    /// `score_into` returns for the schedules `feats` came from.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `feats` count different candidates.
    pub fn score_features_into(
        &self,
        feats: &FeatureBuf,
        keys: &ScoreKeys,
        out: &mut Vec<Option<f32>>,
    ) -> BatchStats {
        assert_eq!(keys.len(), feats.len(), "one key per feature block");
        let MtlTlpScorer { model, head, .. } = self.scorer();
        self.run(Keys::Given(keys), out, |scratch, idx, mb_out| {
            scratch.score_gathered(model, *head, feats, idx, mb_out);
        })
    }
}

/// TenSet-MLP scoring: every candidate must lower to a tensor program before
/// feature extraction; candidates that fail to lower are reported as
/// unscoreable (`None`) rather than silently mis-ranked.
#[derive(Debug)]
pub struct TenSetMlpScorer {
    /// The pre-trained MLP.
    pub model: TenSetMlp,
}

/// Per-thread scratch for the program-feature baseline: one autodiff
/// workspace, the flat program-feature rows, and the per-candidate
/// lowering mask.
#[derive(Debug, Default)]
pub struct ProgramFeatureScratch {
    ws: Workspace,
    feats: Vec<f32>,
    lowered: Vec<bool>,
}

impl ScheduleScorer for TenSetMlpScorer {
    type Scratch = ProgramFeatureScratch;

    fn name(&self) -> &str {
        "tenset-mlp"
    }

    fn pipeline_cost(&self) -> PipelineCost {
        PROGRAM_GEN_COST
    }

    fn score_micro_batch_into(
        &self,
        scratch: &mut ProgramFeatureScratch,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        scratch.feats.clear();
        scratch.lowered.clear();
        for &i in idx {
            match program_features(&task.subgraph, &schedules[i]) {
                Some(f) => {
                    debug_assert_eq!(f.len(), PROGRAM_FEATURE_DIM);
                    scratch.feats.extend(f);
                    scratch.lowered.push(true);
                }
                None => scratch.lowered.push(false),
            }
        }
        let scores = self.model.predict_with(&mut scratch.ws, &scratch.feats);
        let mut it = scores.into_iter();
        out.extend(
            scratch
                .lowered
                .iter()
                .map(|&ok| if ok { it.next() } else { None }),
        );
    }
}

/// Ansor's online GBDT: learns during tuning, invalidating the score cache
/// on every refit.
#[derive(Debug, Default)]
pub struct AnsorScorer {
    /// The online model.
    pub model: AnsorOnlineModel,
}

impl ScheduleScorer for AnsorScorer {
    /// Clone buffer for gathering scattered candidates into one slice.
    type Scratch = Vec<ScheduleSequence>;

    fn name(&self) -> &str {
        "ansor"
    }

    fn pipeline_cost(&self) -> PipelineCost {
        PROGRAM_GEN_COST
    }

    fn score_micro_batch_into(
        &self,
        scratch: &mut Vec<ScheduleSequence>,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        scratch.clear();
        scratch.extend(idx.iter().map(|&i| schedules[i].clone()));
        out.extend(
            self.model
                .score(&task.subgraph, scratch)
                .into_iter()
                .map(Some),
        );
    }

    fn absorb(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<bool, UpdateError> {
        Ok(self.model.absorb(&task.subgraph, schedules, latencies))
    }
}

/// TLP (target head) as a search cost model.
pub type TlpCostModel = FeatureModel<TlpScorer>;

impl TlpCostModel {
    /// Wraps a pre-trained TLP model of any head count.
    pub fn new(model: TlpModel, extractor: FeatureExtractor) -> Self {
        FeatureModel::from_scorer(TlpScorer { model, extractor })
    }
}

/// TenSet-MLP as a search cost model.
pub type TenSetMlpCostModel = FeatureModel<TenSetMlpScorer>;

impl TenSetMlpCostModel {
    /// Wraps a pre-trained TenSet-MLP.
    pub fn new(model: TenSetMlp) -> Self {
        FeatureModel::from_scorer(TenSetMlpScorer { model })
    }
}

/// Ansor's online GBDT as a search cost model (learns during tuning only).
pub type AnsorCostModel = FeatureModel<AnsorScorer>;

impl AnsorCostModel {
    /// Creates an empty online model.
    pub fn new() -> Self {
        FeatureModel::from_scorer(AnsorScorer::default())
    }

    /// Number of measurements absorbed so far.
    pub fn num_records(&self) -> usize {
        self.scorer().model.num_records()
    }
}

impl Default for AnsorCostModel {
    fn default() -> Self {
        AnsorCostModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TlpConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlp_autotuner::SketchPolicy;
    use tlp_hwsim::Platform;
    use tlp_schedule::Vocabulary;
    use tlp_workload::{AnchorOp, Subgraph};

    fn task() -> SearchTask {
        SearchTask::new(
            Subgraph::new(
                "d",
                AnchorOp::Dense {
                    m: 64,
                    n: 64,
                    k: 64,
                },
            ),
            Platform::i7_10510u(),
        )
    }

    fn schedules(n: usize) -> Vec<ScheduleSequence> {
        let mut rng = SmallRng::seed_from_u64(4);
        let sketch = SketchPolicy::cpu().compile(&task().subgraph);
        (0..n)
            .map(|_| sketch.random_candidate(&mut rng).sequence)
            .collect()
    }

    #[test]
    fn tlp_pipeline_cheaper_than_program_gen() {
        let cfg = TlpConfig::test_scale();
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let m = TlpCostModel::new(TlpModel::new(cfg), ex);
        assert!(m.pipeline_cost().per_candidate_s() < PROGRAM_GEN_COST.per_candidate_s() / 2.0);
        assert_eq!(m.pipeline_cost().program_gen_s, 0.0);
        let t = task();
        let seqs = schedules(4);
        let batch = m.predict(ScoreRequest::new(&t, &seqs));
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.num_invalid(), 0);
    }

    #[test]
    fn tenset_model_charges_program_gen() {
        let m = TenSetMlpCostModel::new(TenSetMlp::new(TlpConfig::test_scale()));
        assert!(m.pipeline_cost().program_gen_s > 0.0);
        let t = task();
        let seqs = schedules(4);
        let batch = m.predict(ScoreRequest::new(&t, &seqs));
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn tenset_masks_unlowerable_candidates() {
        use tlp_schedule::{ConcretePrimitive, PrimitiveKind};
        let m = TenSetMlpCostModel::new(TenSetMlp::new(TlpConfig::test_scale()));
        let t = task();
        let mut seqs = schedules(3);
        // A schedule annotating a loop variable that does not exist fails
        // lowering; it must surface as invalid, not as a sneaky low score.
        seqs.insert(
            1,
            [ConcretePrimitive::new(PrimitiveKind::Annotation, "C")
                .with_loops(["no_such_loop"])
                .with_extras(["parallel"])]
            .into_iter()
            .collect(),
        );
        let batch = m.predict(ScoreRequest::new(&t, &seqs));
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.num_invalid(), 1);
        assert!(!batch.valid[1]);
        assert_eq!(batch.scores().nth(1), Some(f32::NEG_INFINITY));
        assert!(batch.valid[0] && batch.valid[2] && batch.valid[3]);
    }

    #[test]
    fn ansor_model_updates_online_and_invalidates_cache() {
        let mut m = AnsorCostModel::new();
        let t = task();
        let ss = schedules(12);
        let before = m.predict(ScoreRequest::new(&t, &ss));
        assert_eq!(before.len(), 12);
        let lats: Vec<f64> = (0..12).map(|i| 1e-3 * (i + 1) as f64).collect();
        m.update(&t, &ss, &lats).expect("update");
        assert!(m.num_records() > 0);
        // The refit invalidated the cache: the next predict re-scores.
        assert_eq!(m.engine().stats().invalidations, 1);
        let batch = m.predict(ScoreRequest::new(&t, &ss));
        assert_eq!(batch.stats.cache_hits, 0);
        assert_eq!(batch.stats.cache_misses, 12);
    }

    #[test]
    fn repeat_scoring_hits_cache() {
        let cfg = TlpConfig::test_scale();
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let mut m = TlpCostModel::new(TlpModel::new(cfg), ex);
        let t = task();
        let seqs = schedules(6);
        let first = m.predict(ScoreRequest::new(&t, &seqs));
        assert_eq!(first.stats.cache_misses, 6);
        let second = m.predict(ScoreRequest::new(&t, &seqs));
        assert_eq!(second.stats.cache_hits, 6);
        assert!(
            first.scores().eq(second.scores()),
            "cached scores bit-identical"
        );
        // An offline scorer's `absorb` changes nothing, so an update keeps
        // the cache.
        m.update(&t, &seqs, &[1e-3; 6]).expect("update");
        let third = m.predict(ScoreRequest::new(&t, &seqs));
        assert_eq!(third.stats.cache_hits, 6);
        assert_eq!(m.engine().stats().invalidations, 0);
    }
}
