//! Shared experiment plumbing for the evaluation harness (benches, examples).
//!
//! Every paper table/figure bench builds on the same pieces: a generated
//! dataset for a platform group, a fitted feature extractor, trained models,
//! and top-k evaluation. [`Scale`] centralizes the size knobs; the default is
//! sized for a single CPU core, and `TLP_SCALE=medium|paper` raises it.

use crate::baselines::{program_feature_data, TenSetMlp};
use crate::config::TlpConfig;
use crate::features::FeatureExtractor;
use crate::metrics::top_k_scores;
use crate::model::TlpModel;
use crate::train::{train_mtl, train_tlp, TrainData};
use tlp_dataset::{generate_dataset_for, Dataset, DatasetConfig, TaskData};
use tlp_hwsim::Platform;
use tlp_nn::Workspace;
use tlp_workload::{test_networks, training_networks, Network};

/// Experiment size knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Programs sampled per subgraph.
    pub programs_per_task: usize,
    /// Cap on training-pool tasks used for model training.
    pub max_train_tasks: usize,
    /// Cap on training-pool networks used for dataset generation.
    pub max_train_networks: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Model hidden width.
    pub hidden: usize,
}

impl Scale {
    /// Tiny scale for unit tests.
    pub fn test() -> Scale {
        Scale {
            programs_per_task: 16,
            max_train_tasks: 24,
            max_train_networks: 2,
            epochs: 3,
            hidden: 24,
        }
    }

    /// Default bench scale (minutes per table on one core).
    pub fn small() -> Scale {
        Scale {
            programs_per_task: 48,
            max_train_tasks: 90,
            max_train_networks: 8,
            epochs: 6,
            hidden: 48,
        }
    }

    /// Larger bench scale.
    pub fn medium() -> Scale {
        Scale {
            programs_per_task: 96,
            max_train_tasks: 200,
            max_train_networks: 16,
            epochs: 10,
            hidden: 64,
        }
    }

    /// The paper's architecture scale (hours of training).
    pub fn paper() -> Scale {
        Scale {
            programs_per_task: 512,
            max_train_tasks: usize::MAX,
            max_train_networks: usize::MAX,
            epochs: 30,
            hidden: 256,
        }
    }

    /// Reads `TLP_SCALE` (`test`/`small`/`medium`/`paper`); defaults to small.
    pub fn from_env() -> Scale {
        match std::env::var("TLP_SCALE").as_deref() {
            Ok("test") => Scale::test(),
            Ok("medium") => Scale::medium(),
            Ok("paper") => Scale::paper(),
            _ => Scale::small(),
        }
    }

    /// A [`TlpConfig`] matching this scale.
    pub fn tlp_config(&self) -> TlpConfig {
        TlpConfig {
            hidden: self.hidden,
            epochs: self.epochs,
            ..TlpConfig::default()
        }
    }

    /// Dataset-generation config matching this scale.
    pub fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            programs_per_task: self.programs_per_task,
            ..DatasetConfig::default()
        }
    }

    fn training_pool(&self) -> Vec<Network> {
        let mut pool = training_networks();
        pool.truncate(self.max_train_networks.max(1));
        pool
    }

    /// Generates the CPU dataset (5 platforms of Table 5).
    pub fn cpu_dataset(&self) -> Dataset {
        generate_dataset_for(
            &self.training_pool(),
            &test_networks(),
            &Platform::all_cpus(),
            &self.dataset_config(),
        )
    }

    /// Generates the GPU dataset (2 platforms of Table 5).
    pub fn gpu_dataset(&self) -> Dataset {
        generate_dataset_for(
            &self.training_pool(),
            &test_networks(),
            &Platform::all_gpus(),
            &self.dataset_config(),
        )
    }
}

/// The training tasks of a dataset, capped at `max_tasks`.
///
/// When capping, tasks are stride-sampled across the whole pool rather than
/// truncated, so the kept set spans all network families.
pub fn capped_train_tasks(ds: &Dataset, max_tasks: usize) -> Vec<&TaskData> {
    let all: Vec<&TaskData> = ds.train_tasks().collect();
    if all.len() <= max_tasks {
        return all;
    }
    let stride = all.len() as f64 / max_tasks as f64;
    (0..max_tasks)
        .map(|i| all[(i as f64 * stride) as usize])
        .collect()
}

/// Trains a TLP model for one platform of a dataset and reports its top-k.
///
/// Returns `(model, extractor, top1, top5)`. `subsample` keeps a fraction of
/// the target-platform training samples (1.0 = all).
pub fn train_and_eval_tlp(
    ds: &Dataset,
    platform_idx: usize,
    config: TlpConfig,
    scale: &Scale,
    subsample: f64,
) -> (TlpModel, FeatureExtractor, f64, f64) {
    let extractor = FeatureExtractor::fit(ds, config.seq_len, config.emb_size);
    let tasks = capped_train_tasks(ds, scale.max_train_tasks);
    let mut data = TrainData::from_tasks(&tasks, &extractor, platform_idx);
    if subsample < 1.0 {
        data = data.subsample(subsample, config.seed);
    }
    let mut model = TlpModel::new(config);
    train_tlp(&mut model, &data);
    let (top1, top5) = eval_tlp(&model, &extractor, ds, platform_idx);
    (model, extractor, top1, top5)
}

/// Top-1/top-5 of a trained TLP model (target head) on a dataset's test
/// tasks.
pub fn eval_tlp(
    model: &TlpModel,
    extractor: &FeatureExtractor,
    ds: &Dataset,
    platform_idx: usize,
) -> (f64, f64) {
    eval_head(model, extractor, ds, platform_idx, 0)
}

/// Top-1/top-5 of one head on test tasks, scored against platform column
/// `platform_idx`. Continual adaptation uses this both for the new-platform
/// head and to watch old heads for forgetting.
pub fn eval_head(
    model: &TlpModel,
    extractor: &FeatureExtractor,
    ds: &Dataset,
    platform_idx: usize,
    head: usize,
) -> (f64, f64) {
    // One workspace + feature buffer reused across every test task; features
    // are extracted straight into the buffer instead of cloning each
    // schedule first.
    let mut ws = Workspace::new();
    let mut feats = crate::features::FeatureBuf::new();
    let [top1, top5] = top_k_scores(ds, platform_idx, [1, 5], |t| {
        extractor.extract_batch_into(t.programs.iter().map(|r| &r.schedule), &mut feats);
        let mut out = Vec::new();
        model.predict_task_into(&mut ws, &feats, head, &mut out);
        out
    });
    (top1, top5)
}

/// Trains MTL-TLP with a small slice of target-platform data (head 0) plus
/// full auxiliary-platform datasets (heads 1..), returning `(model,
/// extractor, top1, top5)` on the target platform's test tasks.
pub fn train_and_eval_with_aux(
    ds: &Dataset,
    target_idx: usize,
    aux_idxs: &[usize],
    config: TlpConfig,
    scale: &Scale,
    target_fraction: f64,
) -> (TlpModel, FeatureExtractor, f64, f64) {
    let extractor = FeatureExtractor::fit(ds, config.seq_len, config.emb_size);
    let tasks = capped_train_tasks(ds, scale.max_train_tasks);
    let mut task_data = Vec::with_capacity(1 + aux_idxs.len());
    task_data.push(
        TrainData::from_tasks(&tasks, &extractor, target_idx)
            .subsample(target_fraction, config.seed),
    );
    for &aux in aux_idxs {
        task_data.push(TrainData::from_tasks(&tasks, &extractor, aux));
    }
    let mut model = TlpModel::with_heads(config, task_data.len());
    train_mtl(&mut model, &task_data);
    let (top1, top5) = eval_tlp(&model, &extractor, ds, target_idx);
    (model, extractor, top1, top5)
}

/// Trains the TenSet-MLP baseline for one platform and reports its top-k.
pub fn train_and_eval_tenset_mlp(
    ds: &Dataset,
    platform_idx: usize,
    config: TlpConfig,
    scale: &Scale,
) -> (TenSetMlp, f64, f64) {
    let tasks = capped_train_tasks(ds, scale.max_train_tasks);
    let data = program_feature_data(ds, &tasks, platform_idx);
    let mut model = TenSetMlp::new(config);
    model.train(&data);
    let (top1, top5) = eval_tenset_mlp(&model, ds, platform_idx);
    (model, top1, top5)
}

/// Top-1/top-5 of a trained TenSet-MLP on test tasks.
pub fn eval_tenset_mlp(model: &TenSetMlp, ds: &Dataset, platform_idx: usize) -> (f64, f64) {
    let mut ws = Workspace::new();
    let [top1, top5] = top_k_scores(ds, platform_idx, [1, 5], |t| {
        t.programs
            .iter()
            .map(|r| {
                crate::baselines::program_features(&t.subgraph, &r.schedule)
                    .map(|f| model.predict_with(&mut ws, &f)[0])
                    .unwrap_or(f32::NEG_INFINITY)
            })
            .collect()
    });
    (top1, top5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_small() {
        // The test environment does not set TLP_SCALE.
        if std::env::var("TLP_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::small());
        }
    }

    #[test]
    fn end_to_end_tlp_beats_random_ranking() {
        let ds = {
            let pool = [
                tlp_workload::bert("bert-train-a", 1, 64, 2, 128, 2),
                tlp_workload::bert("bert-train-b", 1, 64, 4, 256, 4),
            ];
            let tests = [tlp_workload::bert_tiny(1, 64)];
            let cfg = DatasetConfig {
                programs_per_task: 40,
                ..DatasetConfig::default()
            };
            generate_dataset_for(&pool, &tests, &[Platform::i7_10510u()], &cfg)
        };
        let mut cfg = crate::config::TlpConfig::test_scale();
        cfg.epochs = 12;
        cfg.hidden = 32;
        let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
        let tasks = capped_train_tasks(&ds, usize::MAX);
        let data = TrainData::from_tasks(&tasks, &extractor, 0);
        let mut model = TlpModel::new(cfg);
        train_tlp(&mut model, &data);
        let (top1, top5) = eval_tlp(&model, &extractor, &ds, 0);

        // Reference: a deterministic pseudo-random ranker.
        let mut x = 0x9E3779B97F4A7C15u64;
        let rnd = |t: &TaskData| -> Vec<f32> {
            t.programs
                .iter()
                .map(|_| {
                    let mut y = x;
                    y ^= y << 13;
                    y ^= y >> 7;
                    y ^= y << 17;
                    x = y;
                    (y >> 40) as f32
                })
                .collect()
        };
        let rnd_top1 = crate::metrics::top_k_score(&ds, 0, 1, rnd);

        assert!(top5 >= top1);
        assert!(
            top1 > rnd_top1,
            "trained top1 {top1} must beat random {rnd_top1}"
        );
        assert!(top5 > 0.6, "top5 {top5}");
    }
}
