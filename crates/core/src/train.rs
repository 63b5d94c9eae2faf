//! Training harness for TLP models.
//!
//! Rank-loss training groups samples by tuning task: LambdaRank compares
//! programs of the *same* subgraph (their labels share a `min_latency`
//! normalizer), so each mini-batch is drawn from one task's programs.
//!
//! The actual epoch/step loop lives in [`crate::trainer`]; this module
//! contributes the task-grouped batch provider and the data containers.
//! One provider serves any head count and every caller: the TLP entry points
//! feed `task_data[i]` to head `i` (each panics unless there is exactly one
//! training set per head; `train_tlp`/`train_tlp_with` are the one-head
//! forms), and [`train_head`] trains one head on its own groups with
//! everything else frozen (continual adaptation).

use crate::features::FeatureExtractor;
use crate::model::TlpModel;
use crate::trainer::{
    fit, gather_rows, grouped_batches, scored_loss, TrainOptions, TrainReport, Trainable,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tlp_dataset::Dataset;
use tlp_nn::{ParamId, ParamStore, Var, Workspace};

/// One task's training samples: features and labels, row-aligned.
#[derive(Clone, Debug, Default)]
pub struct GroupData {
    /// Row-major features, `labels.len() × feature_size`.
    pub features: Vec<f32>,
    /// Normalized-latency labels in `(0, 1]`.
    pub labels: Vec<f32>,
}

/// A training set grouped by tuning task.
#[derive(Clone, Debug)]
pub struct TrainData {
    /// Features per sample.
    pub feature_size: usize,
    /// Per-task groups.
    pub groups: Vec<GroupData>,
}

impl TrainData {
    /// Extracts training data from a dataset's *training* tasks on platform
    /// `platform_idx`.
    pub fn from_dataset(ds: &Dataset, extractor: &FeatureExtractor, platform_idx: usize) -> Self {
        Self::from_tasks(
            ds.train_tasks().collect::<Vec<_>>().as_slice(),
            extractor,
            platform_idx,
        )
    }

    /// Extracts training data from explicit tasks.
    pub fn from_tasks(
        tasks: &[&tlp_dataset::TaskData],
        extractor: &FeatureExtractor,
        platform_idx: usize,
    ) -> Self {
        let mut buf = crate::features::FeatureBuf::new();
        let groups = tasks
            .iter()
            .filter(|t| !t.programs.is_empty())
            .map(|t| {
                extractor.extract_batch_into(t.programs.iter().map(|r| &r.schedule), &mut buf);
                GroupData {
                    features: buf.data().to_vec(),
                    labels: t.labels(platform_idx),
                }
            })
            .collect();
        TrainData {
            feature_size: extractor.feature_size(),
            groups,
        }
    }

    /// Total sample count.
    pub fn num_samples(&self) -> usize {
        self.groups.iter().map(|g| g.labels.len()).sum()
    }

    /// Keeps roughly `fraction` of the samples (per group), modelling the
    /// paper's limited target-platform collections (500K of ~8.6M ≈ 6%).
    pub fn subsample(&self, fraction: f64, seed: u64) -> TrainData {
        let mut rng = SmallRng::seed_from_u64(seed);
        let fs = self.feature_size;
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let n = g.labels.len();
                let keep = (((n as f64) * fraction).round() as usize).clamp(2.min(n), n);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(&mut rng);
                idx.truncate(keep);
                let mut features = Vec::with_capacity(keep * fs);
                let mut labels = Vec::with_capacity(keep);
                for &i in &idx {
                    features.extend_from_slice(&g.features[i * fs..(i + 1) * fs]);
                    labels.push(g.labels[i]);
                }
                GroupData { features, labels }
            })
            .filter(|g| !g.labels.is_empty())
            .collect();
        TrainData {
            feature_size: fs,
            groups,
        }
    }
}

/// One task-grouped micro-batch routed to a specific head.
#[derive(Clone, Debug)]
struct HeadBatch {
    feats: Vec<f32>,
    labels: Vec<f32>,
    head: usize,
}

/// The [`Trainable`] behind every TLP training loop: `(head, group)` slots
/// interleaved so backbone gradients mix platforms; each micro-batch comes
/// from one slot's labelled pool and trains that slot's head. With one head
/// and nothing frozen this is the plain shuffled-task-group stream.
struct HeadTask<'a> {
    model: &'a mut TlpModel,
    slots: Vec<(usize, &'a GroupData)>,
    /// The one head a [`train_head`] run trains, and the ids whose gradients
    /// it zeroes every step; `None` trains every head and freezes nothing.
    only: Option<(usize, Vec<ParamId>)>,
    batch_size: usize,
}

impl<'a> HeadTask<'a> {
    fn new(
        model: &'a mut TlpModel,
        slots: Vec<(usize, &'a GroupData)>,
        only: Option<(usize, Vec<ParamId>)>,
        options: &TrainOptions,
    ) -> Self {
        HeadTask {
            model,
            slots,
            only,
            batch_size: options.batch_size.max(2),
        }
    }
}

impl Trainable for HeadTask<'_> {
    type Batch = HeadBatch;

    fn store(&self) -> &ParamStore {
        &self.model.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.model.store
    }

    fn epoch_batches(&self, rng: &mut SmallRng) -> Vec<Self::Batch> {
        let fs = self.model.config.seq_len * self.model.config.emb_size;
        let lens: Vec<usize> = self.slots.iter().map(|(_, g)| g.labels.len()).collect();
        let mut out = Vec::new();
        grouped_batches(&lens, self.batch_size, rng, |slot, idx| {
            let (head, group) = self.slots[slot];
            let (feats, labels) = gather_rows(&group.features, &group.labels, fs, idx);
            out.push(HeadBatch {
                feats,
                labels,
                head,
            });
        });
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
            batch.head,
        );
        scored_loss(
            &mut ws.graph,
            scores,
            &batch.labels,
            self.model.config.loss,
            self.model.config.seq_len,
        )
    }

    fn postprocess_grads(&mut self) {
        let Some((_, frozen)) = &self.only else {
            return;
        };
        for &id in frozen {
            self.model.store.grad_mut(id).scale_assign(0.0);
        }
    }
}

/// Trains head `head` of `model` in place on `data`, one head's task groups,
/// with the trunk and every other head frozen: their gradients are zeroed
/// after every backward pass, and Adam takes a bitwise no-op step on a zero
/// gradient, so they stay bitwise unchanged. The group order fixes the
/// shuffle stream.
///
/// # Panics
///
/// Panics if `head` is out of range or `data`'s rows are not
/// `seq_len × emb_size` wide.
pub fn train_head(
    model: &mut TlpModel,
    head: usize,
    data: &TrainData,
    options: &TrainOptions,
) -> TrainReport {
    assert!(head < model.num_tasks(), "trained head out of range");
    assert_eq!(
        data.feature_size,
        model.config.seq_len * model.config.emb_size,
        "extractor shape must match model config"
    );
    let mut frozen = model.trunk_param_ids();
    for t in (0..model.num_tasks()).filter(|&t| t != head) {
        frozen.extend(model.head_param_ids(t));
    }
    let slots = data.groups.iter().map(|g| (head, g)).collect();
    let mut task = HeadTask::new(model, slots, Some((head, frozen)), options);
    fit(options, &mut task)
}

/// Trains a one-head TLP model in place with options derived from its
/// config (per-batch stepping, exponential LR decay).
pub fn train_tlp(model: &mut TlpModel, data: &TrainData) -> TrainReport {
    // The salt pins this entry point's shuffle stream.
    let options = TrainOptions::from_config(&model.config).with_seed(model.config.seed ^ 0x7e41);
    train_tlp_with(model, data, &options)
}

/// Trains a one-head TLP model in place with explicit [`TrainOptions`].
pub fn train_tlp_with(
    model: &mut TlpModel,
    data: &TrainData,
    options: &TrainOptions,
) -> TrainReport {
    train_mtl_with(model, std::slice::from_ref(data), options)
}

/// Trains every head of `model` on per-task training sets (`task_data[i]`
/// feeds head `i`) with options derived from the model's config. The per-epoch
/// loss is the mean over all heads' micro-batches (the paper's summed
/// multi-task loss, normalized).
pub fn train_mtl(model: &mut TlpModel, task_data: &[TrainData]) -> TrainReport {
    // The salt pins this entry point's shuffle stream.
    let options = TrainOptions::from_config(&model.config).with_seed(model.config.seed ^ 0x171);
    train_mtl_with(model, task_data, &options)
}

/// Trains every head of `model` with explicit [`TrainOptions`]: every group
/// of `task_data[i]` trains head `i`, nothing frozen.
pub fn train_mtl_with(
    model: &mut TlpModel,
    task_data: &[TrainData],
    options: &TrainOptions,
) -> TrainReport {
    assert_eq!(
        task_data.len(),
        model.num_tasks(),
        "one training set per head"
    );
    for data in task_data {
        assert_eq!(
            data.feature_size,
            model.config.seq_len * model.config.emb_size,
            "extractor shape must match model config"
        );
    }
    let slots = task_data
        .iter()
        .enumerate()
        .flat_map(|(head, data)| data.groups.iter().map(move |g| (head, g)))
        .collect();
    let mut task = HeadTask::new(model, slots, None, options);
    fit(options, &mut task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TlpConfig;
    use crate::features::FeatureExtractor;
    use tlp_dataset::{generate_dataset_for, DatasetConfig};
    use tlp_hwsim::Platform;
    use tlp_workload::bert_tiny;

    fn dataset(platforms: &[Platform], programs_per_task: usize, seed: u64) -> Dataset {
        generate_dataset_for(
            &[bert_tiny(1, 64)],
            &[],
            platforms,
            &DatasetConfig {
                programs_per_task,
                refined_fraction: 0.25,
                seed,
            },
        )
    }

    fn tiny_dataset() -> Dataset {
        dataset(&[Platform::i7_10510u()], 24, 5)
    }

    #[test]
    fn training_reduces_rank_loss() {
        let ds = tiny_dataset();
        let cfg = TlpConfig {
            epochs: 14,
            ..TlpConfig::test_scale()
        };
        let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
        let data = TrainData::from_dataset(&ds, &ex, 0);
        assert!(data.num_samples() > 50);
        let mut model = TlpModel::new(cfg);
        let losses = train_tlp(&mut model, &data).epoch_losses();
        // Single-epoch losses are noisy on a tiny set; compare the first and
        // last thirds.
        let head: f32 = losses[..3].iter().sum::<f32>() / 3.0;
        let tail: f32 = losses[losses.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(tail < head, "losses {losses:?}");
    }

    #[test]
    fn mtl_training_runs_and_reduces_loss() {
        let ds = dataset(&[Platform::i7_10510u(), Platform::e5_2673()], 16, 9);
        let cfg = TlpConfig {
            epochs: 6,
            ..TlpConfig::test_scale()
        };
        let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
        let target = TrainData::from_dataset(&ds, &ex, 0).subsample(0.5, 1);
        let aux = TrainData::from_dataset(&ds, &ex, 1);
        let mut model = TlpModel::with_heads(cfg, 2);
        let losses = train_mtl(&mut model, &[target, aux]).epoch_losses();
        assert_eq!(losses.len(), 6);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    #[should_panic(expected = "one training set per head")]
    fn task_count_mismatch_panics() {
        let cfg = TlpConfig::test_scale();
        let mut model = TlpModel::with_heads(cfg, 2);
        let _ = train_mtl(
            &mut model,
            &[TrainData {
                feature_size: 1,
                groups: vec![],
            }],
        );
    }

    /// Deterministic synthetic groups of `n` samples: features
    /// hash-derived, labels favor larger feature sums, shaped like
    /// normalized latencies in (0, 1].
    fn synth_data(cfg: &TlpConfig, tag: u64, groups: usize, n: usize) -> TrainData {
        let fs = cfg.seq_len * cfg.emb_size;
        let group = |tag: u64| {
            let mut g = GroupData::default();
            for i in 0..n {
                let mut sum = 0.0f32;
                for j in 0..fs {
                    let h = (tag
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((i * fs + j) as u64))
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    let v = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                    g.features.push(v);
                    sum += v;
                }
                let label = 0.5 + 0.4 * (sum / (fs as f32).sqrt()).tanh();
                g.labels.push(label.clamp(0.05, 1.0));
            }
            g
        };
        TrainData {
            feature_size: fs,
            groups: (0..groups).map(|g| group(tag * 1000 + g as u64)).collect(),
        }
    }

    fn param_bits(model: &TlpModel, ids: &[ParamId]) -> Vec<u32> {
        let values = ids.iter().flat_map(|&id| model.store.value(id).data());
        values.map(|v| v.to_bits()).collect()
    }

    fn head_options(cfg: &TlpConfig) -> TrainOptions {
        TrainOptions::from_config(cfg)
            .with_epochs(2)
            .with_batch_size(8)
            .with_seed(11)
    }

    #[test]
    fn train_head_moves_only_the_trained_head() {
        let cfg = TlpConfig::test_scale();
        let mut model = TlpModel::with_heads(cfg.clone(), 2).grow_head();
        let new_head = 2;
        let mut fixed = model.trunk_param_ids();
        fixed.extend(model.head_param_ids(0));
        fixed.extend(model.head_param_ids(1));
        let before = param_bits(&model, &fixed);
        let head_before = param_bits(&model, &model.head_param_ids(new_head));

        let data = synth_data(&cfg, 9, 3, 16);
        let report = train_head(&mut model, new_head, &data, &head_options(&cfg));
        // Every micro-batch is one of `data`'s: each epoch consumes exactly
        // its samples (16-sample groups split evenly at batch 8), so nothing
        // is routed through another head.
        assert_eq!(report.epochs.len(), 2);
        for epoch in &report.epochs {
            assert_eq!(epoch.samples, data.num_samples(), "{epoch:?}");
        }

        assert_eq!(param_bits(&model, &fixed), before, "frozen params moved");
        assert_ne!(
            param_bits(&model, &model.head_param_ids(new_head)),
            head_before,
            "trained head failed to learn"
        );
    }

    #[test]
    fn train_head_reproduces_the_pinned_digest() {
        let cfg = TlpConfig::test_scale();
        let data = synth_data(&cfg, 4, 3, 16);
        let run = || {
            let mut model = TlpModel::with_heads(cfg.clone(), 2).grow_head();
            train_head(&mut model, 2, &data, &head_options(&cfg));
            let all: Vec<ParamId> = model.store.ids().collect();
            param_bits(&model, &all)
        };
        let bits = run();
        assert_eq!(bits, run(), "a second run changed the result");
        // FNV-1a over the value bits (names excluded): the run's batch
        // stream and frozen set are held to this number. Re-captured when
        // continual adaptation stopped mixing other heads' groups into the
        // slot list (old → new in CHANGES.md).
        let digest = bits.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let want = 0x5644_bb83_b124_2ff9u64;
        assert_eq!(digest, want, "expected {want:#018x}, got {digest:#018x}");
    }

    #[test]
    fn subsample_preserves_shape() {
        let ds = tiny_dataset();
        let ex = FeatureExtractor::fit(&ds, 25, 22);
        let data = TrainData::from_dataset(&ds, &ex, 0);
        let total = data.num_samples();
        let sub = data.subsample(0.5, 2);
        let ratio = sub.num_samples() as f64 / total as f64;
        assert!((0.3..=0.7).contains(&ratio), "ratio {ratio}");
        for g in &sub.groups {
            assert_eq!(g.features.len(), g.labels.len() * sub.feature_size);
        }
    }
}
