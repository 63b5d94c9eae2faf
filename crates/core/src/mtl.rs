//! MTL-TLP: multi-task learning across hardware platforms (paper §5, Fig. 8).
//!
//! One shared backbone fits hardware-independent features; one head per
//! hardware platform fits hardware-dependent features. Task 1 (index 0) is
//! the target platform. A training tuple is
//! `(features, [label_1, …, label_n])`; absent labels simply contribute no
//! loss and no head gradient — realized here by drawing each mini-batch from
//! one platform's labelled pool.

use crate::config::TlpConfig;
use crate::features::FeatureBuf;
use crate::model::{fused_forward, TlpBackbone, TlpHead};
use crate::train::TrainData;
use crate::trainer::{
    gather_rows, scored_loss, split_group_indices, TrainOptions, TrainReport, Trainable, Trainer,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tlp_modelcheck::CoverageSpec;
use tlp_nn::{Binding, Fwd, Graph, ParamStore, Tensor, Var, Workspace};

/// The multi-task TLP cost model.
#[derive(Debug)]
pub struct MtlTlp {
    /// Model/training hyper-parameters (shared by all heads).
    pub config: TlpConfig,
    /// All learnable parameters (backbone + every head).
    pub store: ParamStore,
    backbone: TlpBackbone,
    heads: Vec<TlpHead>,
}

impl MtlTlp {
    /// Creates a model with `n_tasks` heads; head 0 is the target platform.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` is zero.
    pub fn new(config: TlpConfig, n_tasks: usize) -> Self {
        assert!(n_tasks > 0, "MTL needs at least one task");
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let backbone = TlpBackbone::new(&mut store, &mut rng, &config);
        let heads = (0..n_tasks)
            .map(|i| TlpHead::new(&mut store, &mut rng, &format!("head{i}"), &config))
            .collect();
        MtlTlp {
            config,
            store,
            backbone,
            heads,
        }
    }

    /// Number of tasks (heads).
    pub fn num_tasks(&self) -> usize {
        self.heads.len()
    }

    /// Returns a new model with one extra head appended (index
    /// [`MtlTlp::num_tasks`] of `self`) — the continual-learning entry
    /// point for adapting to a hardware platform the model has never seen.
    ///
    /// The shared trunk and every existing head are copied *bitwise* from
    /// `self` (parameters are matched by registered name), so the grown
    /// model scores old platforms exactly like the original. The new head
    /// gets a fresh deterministic initialization drawn from the model
    /// config's seed, so growing is reproducible.
    pub fn grow_head(&self) -> MtlTlp {
        let mut grown = MtlTlp::new(self.config.clone(), self.num_tasks() + 1);
        let old_by_name: std::collections::HashMap<&str, tlp_nn::ParamId> = self
            .store
            .ids()
            .map(|id| (self.store.name(id), id))
            .collect();
        let new_ids: Vec<tlp_nn::ParamId> = grown.store.ids().collect();
        for id in new_ids {
            let name = grown.store.name(id).to_string();
            if let Some(&old_id) = old_by_name.get(name.as_str()) {
                *grown.store.value_mut(id) = self.store.value(old_id).clone();
            }
        }
        grown
    }

    /// Like [`MtlTlp::grow_head`], but warm-starts the new head with a
    /// bitwise copy of head `src`'s parameters instead of a fresh random
    /// initialization.
    ///
    /// Before any adaptation the grown model therefore scores the new
    /// platform exactly as `src` scores its own — the head-level version of
    /// the paper's cross-hardware transfer: when the new device resembles a
    /// known one, fine-tuning from its head needs far fewer measurements
    /// than learning the head from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn grow_head_from(&self, src: usize) -> MtlTlp {
        assert!(src < self.num_tasks(), "source head out of range");
        let mut grown = self.grow_head();
        let new = self.num_tasks();
        let src_prefix = format!("head{src}.");
        let new_prefix = format!("head{new}.");
        let src_by_suffix: std::collections::HashMap<String, tlp_nn::ParamId> = self
            .head_param_ids(src)
            .into_iter()
            .map(|id| {
                let suffix = self.store.name(id)[src_prefix.len()..].to_string();
                (suffix, id)
            })
            .collect();
        for id in grown.head_param_ids(new) {
            let suffix = grown.store.name(id)[new_prefix.len()..].to_string();
            let src_id = *src_by_suffix
                .get(&suffix)
                .unwrap_or_else(|| panic!("head layout mismatch at {suffix}"));
            *grown.store.value_mut(id) = self.store.value(src_id).clone();
        }
        grown
    }

    /// Ids of the parameters belonging to head `task` (registered under the
    /// `head{task}.` name prefix).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn head_param_ids(&self, task: usize) -> Vec<tlp_nn::ParamId> {
        assert!(task < self.num_tasks(), "head index out of range");
        let prefix = format!("head{task}.");
        self.store
            .ids()
            .filter(|&id| self.store.name(id).starts_with(&prefix))
            .collect()
    }

    /// Ids of the shared-trunk parameters: everything not owned by any
    /// head. Together with [`MtlTlp::head_param_ids`] for every head this
    /// partitions the store — the invariant gradient-masking policies
    /// (frozen-trunk adaptation) rely on.
    pub fn trunk_param_ids(&self) -> Vec<tlp_nn::ParamId> {
        let prefixes: Vec<String> = (0..self.num_tasks()).map(|i| format!("head{i}.")).collect();
        self.store
            .ids()
            .filter(|&id| {
                let name = self.store.name(id);
                !prefixes.iter().any(|p| name.starts_with(p.as_str()))
            })
            .collect()
    }

    /// Forward pass through the shared backbone and head `task`.
    pub fn forward_task(
        &self,
        g: &mut Graph,
        bind: &mut Binding,
        features: &[f32],
        n: usize,
        task: usize,
    ) -> Var {
        let fs = self.config.seq_len * self.config.emb_size;
        assert_eq!(features.len(), n * fs, "feature batch shape mismatch");
        let x = g.constant(Tensor::from_vec(
            features.to_vec(),
            &[n, self.config.seq_len, self.config.emb_size],
        ));
        let mut f = Fwd::new(g, &self.store, bind);
        let h = self.backbone.forward(&mut f, x);
        self.heads[task].forward(&mut f, h)
    }

    /// Inference through head `task`.
    pub fn predict_task(&self, features: &[f32], task: usize) -> Vec<f32> {
        self.predict_task_with(&mut Workspace::new(), features, task)
    }

    /// Like [`MtlTlp::predict_task`], but reuses a caller-owned
    /// [`Workspace`] so repeated calls recycle the tape storage.
    pub fn predict_task_with(&self, ws: &mut Workspace, features: &[f32], task: usize) -> Vec<f32> {
        if features.is_empty() {
            return Vec::new();
        }
        let fs = self.config.seq_len * self.config.emb_size;
        let n = features.len() / fs;
        ws.reset();
        let scores = self.forward_task(&mut ws.graph, &mut ws.bind, features, n, task);
        ws.graph.value(scores).data().to_vec()
    }

    /// Inference through the target-platform head (task 0).
    pub fn predict(&self, features: &[f32]) -> Vec<f32> {
        self.predict_task(features, 0)
    }

    /// Scores a [`FeatureBuf`] batch through head `task` into a caller-owned
    /// output vector — the zero-copy counterpart of
    /// [`MtlTlp::predict_task_with`], bit-identical to it (fused tape-free
    /// pass for attention backbones, tape fallback otherwise).
    ///
    /// # Panics
    ///
    /// Panics if the buffer shape disagrees with the model config or `task`
    /// is out of range.
    pub fn predict_task_into(
        &self,
        ws: &mut Workspace,
        feats: &FeatureBuf,
        task: usize,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if feats.is_empty() {
            return;
        }
        assert_eq!(feats.seq_len(), self.config.seq_len, "seq_len mismatch");
        assert_eq!(feats.emb_size(), self.config.emb_size, "emb_size mismatch");
        match self.backbone.attention_module() {
            Some(attn) => {
                fused_forward(
                    &self.store,
                    &self.backbone,
                    attn,
                    &self.heads[task],
                    ws,
                    feats,
                    out,
                );
            }
            None => {
                ws.reset();
                let scores =
                    self.forward_task(&mut ws.graph, &mut ws.bind, feats.data(), feats.len(), task);
                out.extend_from_slice(ws.graph.value(scores).data());
            }
        }
    }
}

/// One micro-batch routed to a specific head.
#[derive(Clone, Debug)]
struct MtlBatch {
    feats: Vec<f32>,
    labels: Vec<f32>,
    task: usize,
}

/// [`Trainable`] adapter for MTL-TLP: `(task, group)` slots interleaved so
/// backbone gradients mix platforms, exactly like the historical `train_mtl`
/// loop. A validation split (when enabled) holds out groups of the *target*
/// task (head 0) — the platform whose ranking quality matters.
struct MtlTask<'a> {
    model: &'a mut MtlTlp,
    task_data: &'a [TrainData],
    /// Target-task group indices held out for validation.
    valid_target_groups: Vec<usize>,
    batch_size: usize,
}

impl MtlTask<'_> {
    fn group_batches(&self, ti: usize, gi: usize, order: &[usize], out: &mut Vec<MtlBatch>) {
        let data = &self.task_data[ti];
        let group = &data.groups[gi];
        for chunk in order.chunks(self.batch_size) {
            if chunk.len() < 2 {
                continue;
            }
            let (feats, labels) =
                gather_rows(&group.features, &group.labels, data.feature_size, chunk);
            out.push(MtlBatch {
                feats,
                labels,
                task: ti,
            });
        }
    }
}

impl Trainable for MtlTask<'_> {
    type Batch = MtlBatch;

    fn store(&self) -> &ParamStore {
        &self.model.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.model.store
    }

    fn epoch_batches(&self, _epoch: usize, rng: &mut SmallRng) -> Vec<Self::Batch> {
        // Interleave (task, group) pairs so backbone gradients mix platforms.
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for (ti, data) in self.task_data.iter().enumerate() {
            for gi in 0..data.groups.len() {
                if ti == 0 && self.valid_target_groups.binary_search(&gi).is_ok() {
                    continue;
                }
                slots.push((ti, gi));
            }
        }
        slots.shuffle(rng);
        let mut out = Vec::new();
        for (ti, gi) in slots {
            let n = self.task_data[ti].groups[gi].labels.len();
            if n < 2 {
                continue;
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            self.group_batches(ti, gi, &order, &mut out);
        }
        out
    }

    fn batch_samples(&self, batch: &Self::Batch) -> usize {
        batch.labels.len()
    }

    fn loss(&self, ws: &mut Workspace, batch: &Self::Batch) -> Var {
        let scores = self.model.forward_task(
            &mut ws.graph,
            &mut ws.bind,
            &batch.feats,
            batch.labels.len(),
            batch.task,
        );
        scored_loss(
            &mut ws.graph,
            scores,
            &batch.labels,
            self.model.config.loss,
            self.model.config.seq_len,
        )
    }

    fn valid_batches(&self) -> Vec<Self::Batch> {
        let mut out = Vec::new();
        for &gi in &self.valid_target_groups {
            let n = self.task_data[0].groups[gi].labels.len();
            if n < 2 {
                continue;
            }
            let order: Vec<usize> = (0..n).collect();
            self.group_batches(0, gi, &order, &mut out);
        }
        out
    }

    fn coverage(&self) -> Option<CoverageSpec> {
        // Every head draws micro-batches from its own platform's pool, so
        // the multi-task loss reaches all heads; nothing is masked.
        let prefixes = (0..self.model.num_tasks())
            .map(|i| format!("head{i}."))
            .collect();
        Some(CoverageSpec::full(prefixes))
    }
}

/// Trains MTL-TLP on per-task training sets (`task_data[i]` feeds head `i`)
/// with options derived from the model's config — the historical loop's
/// exact behaviour and batch stream. The per-epoch loss is the mean over all
/// heads' micro-batches (the paper's summed multi-task loss, normalized).
///
/// # Panics
///
/// Panics if `task_data.len()` differs from the model's head count.
pub fn train_mtl(model: &mut MtlTlp, task_data: &[TrainData]) -> TrainReport {
    let options = TrainOptions::from_config(&model.config).with_seed(model.config.seed ^ 0x171);
    train_mtl_with(model, task_data, &options)
}

/// Trains MTL-TLP with explicit [`TrainOptions`]. `valid_frac` holds out
/// target-task (head 0) groups for the validation metric.
///
/// # Panics
///
/// Panics if `task_data.len()` differs from the model's head count.
pub fn train_mtl_with(
    model: &mut MtlTlp,
    task_data: &[TrainData],
    options: &TrainOptions,
) -> TrainReport {
    assert_eq!(
        task_data.len(),
        model.num_tasks(),
        "one training set per head"
    );
    let (_, valid_target_groups) =
        split_group_indices(task_data[0].groups.len(), options.valid_frac, options.seed);
    let batch_size = options.batch_size.max(2);
    let mut task = MtlTask {
        model,
        task_data,
        valid_target_groups,
        batch_size,
    };
    Trainer::new(options.clone()).fit(&mut task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureExtractor;
    use tlp_dataset::{generate_dataset_for, DatasetConfig};
    use tlp_hwsim::Platform;
    use tlp_workload::bert_tiny;

    #[test]
    fn heads_share_backbone_but_differ() {
        let cfg = TlpConfig::test_scale();
        let model = MtlTlp::new(cfg.clone(), 2);
        let fs = cfg.seq_len * cfg.emb_size;
        let feats = vec![0.3f32; fs];
        let s0 = model.predict_task(&feats, 0);
        let s1 = model.predict_task(&feats, 1);
        // Different random head init → different outputs for same input.
        assert!((s0[0] - s1[0]).abs() > 1e-7);
    }

    #[test]
    fn predict_task_into_matches_tape_bitwise() {
        use tlp_nn::Workspace;
        use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary};
        let cfg = TlpConfig::test_scale();
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let seqs: Vec<ScheduleSequence> = (0..5usize)
            .map(|i| {
                (0..i + 1)
                    .map(|j| {
                        ConcretePrimitive::new(PrimitiveKind::Split, "d")
                            .with_loops(["i"])
                            .with_ints([j as i64 + 2, 4])
                    })
                    .collect()
            })
            .collect();
        let mut buf = crate::features::FeatureBuf::new();
        ex.extract_batch_into(&seqs, &mut buf);
        let model = MtlTlp::new(cfg, 2);
        let mut ws = Workspace::new();
        for task in 0..2 {
            let dense = model.predict_task_with(&mut ws, buf.data(), task);
            let mut fused = Vec::new();
            model.predict_task_into(&mut ws, &buf, task, &mut fused);
            assert_eq!(dense.len(), fused.len());
            for (a, b) in dense.iter().zip(&fused) {
                assert_eq!(a.to_bits(), b.to_bits(), "head {task} differs");
            }
        }
    }

    #[test]
    fn mtl_training_runs_and_reduces_loss() {
        let platforms = [Platform::i7_10510u(), Platform::e5_2673()];
        let ds = generate_dataset_for(
            &[bert_tiny(1, 64)],
            &[],
            &platforms,
            &DatasetConfig {
                programs_per_task: 16,
                refined_fraction: 0.25,
                seed: 9,
                ..DatasetConfig::default()
            },
        );
        let cfg = TlpConfig {
            epochs: 6,
            ..TlpConfig::test_scale()
        };
        let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
        let target = TrainData::from_dataset(&ds, &ex, 0).subsample(0.5, 1);
        let aux = TrainData::from_dataset(&ds, &ex, 1);
        let mut model = MtlTlp::new(cfg, 2);
        let losses = train_mtl(&mut model, &[target, aux]).epoch_losses();
        assert_eq!(losses.len(), 6);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn grow_head_preserves_old_heads_bitwise() {
        let cfg = TlpConfig::test_scale();
        let base = MtlTlp::new(cfg.clone(), 2);
        let grown = base.grow_head();
        assert_eq!(grown.num_tasks(), 3);
        let fs = cfg.seq_len * cfg.emb_size;
        let feats: Vec<f32> = (0..2 * fs).map(|i| (i % 13) as f32 * 0.05).collect();
        for task in 0..2 {
            let a = base.predict_task(&feats, task);
            let b = grown.predict_task(&feats, task);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "head {task} drifted");
            }
        }
        // The new head is freshly initialized, not a copy of head 0, and
        // growing is deterministic.
        let s0 = grown.predict_task(&feats, 0);
        let s2 = grown.predict_task(&feats, 2);
        assert!((s0[0] - s2[0]).abs() > 1e-7);
        let again = base.grow_head();
        let r2 = again.predict_task(&feats, 2);
        assert_eq!(s2[0].to_bits(), r2[0].to_bits());
    }

    #[test]
    fn grow_head_from_warm_starts_the_new_head() {
        let cfg = TlpConfig::test_scale();
        let base = MtlTlp::new(cfg.clone(), 2);
        let grown = base.grow_head_from(1);
        assert_eq!(grown.num_tasks(), 3);
        let fs = cfg.seq_len * cfg.emb_size;
        let feats: Vec<f32> = (0..2 * fs).map(|i| (i % 11) as f32 * 0.07).collect();
        // The new head scores exactly like its source head...
        let src = grown.predict_task(&feats, 1);
        let new = grown.predict_task(&feats, 2);
        for (x, y) in src.iter().zip(&new) {
            assert_eq!(x.to_bits(), y.to_bits(), "warm start is not bitwise");
        }
        // ...and old heads are untouched relative to the base model.
        for task in 0..2 {
            let a = base.predict_task(&feats, task);
            let b = grown.predict_task(&feats, task);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "head {task} drifted");
            }
        }
    }

    #[test]
    fn param_ids_partition_the_store() {
        // 11 heads so the `head1.` prefix must not swallow `head10.`.
        let model = MtlTlp::new(TlpConfig::test_scale(), 11);
        let mut seen = vec![0usize; model.store.len()];
        for id in model.trunk_param_ids() {
            seen[model.store.ids().position(|x| x == id).unwrap()] += 1;
        }
        for t in 0..model.num_tasks() {
            let ids = model.head_param_ids(t);
            assert!(!ids.is_empty(), "head {t} owns no parameters");
            for id in ids {
                seen[model.store.ids().position(|x| x == id).unwrap()] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "trunk/head ids must partition the store exactly once: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "one training set per head")]
    fn task_count_mismatch_panics() {
        let cfg = TlpConfig::test_scale();
        let mut model = MtlTlp::new(cfg, 2);
        let _ = train_mtl(
            &mut model,
            &[TrainData {
                feature_size: 1,
                groups: vec![],
            }],
        );
    }
}
