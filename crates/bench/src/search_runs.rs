//! Shared end-to-end search runs for the search-based benches (Figs. 10–13).
//!
//! The paper's §6.3 setup: tune the five test networks on the CPU
//! (i7-10510U) and GPU (Tesla T4) with four cost models — Ansor (online),
//! TenSet-MLP, TLP, and MTL-TLP-500K (target data + one auxiliary platform:
//! Platinum-8272 for CPU, K80 for GPU). Running the full suite is expensive,
//! so results are cached as JSON and reused by the figure benches.

use serde::{Deserialize, Serialize};
use tlp::experiments::{capped_train_tasks, Scale};
use tlp::features::FeatureExtractor;
use tlp::search::{AnsorCostModel, MtlTlpScorer, TenSetMlpCostModel, TlpCostModel};
use tlp::train::{train_mtl, train_tlp, TrainData};
use tlp::{FeatureModel, TlpModel};
use tlp_autotuner::{
    tune_network, CostModel, EvolutionConfig, SpecConfig, TuningOptions, TuningReport,
};
use tlp_hwsim::Platform;
use tlp_workload::test_networks;

/// The fraction of target-platform data MTL-TLP uses (paper: 500K ≈ 7% of a
/// full platform collection).
pub const MTL_TARGET_FRACTION: f64 = 0.08;

/// All search runs of one device class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchSuite {
    /// `"cpu"` or `"gpu"`.
    pub device: String,
    /// Target platform name.
    pub platform: String,
    /// One report per (network × cost model).
    pub runs: Vec<TuningReport>,
}

impl SearchSuite {
    /// The report for a given network and model, if present.
    pub fn get(&self, network: &str, model: &str) -> Option<&TuningReport> {
        self.runs
            .iter()
            .find(|r| r.network == network && r.model_name == model)
    }

    /// Network names present in the suite.
    pub fn networks(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.network) {
                names.push(r.network.clone());
            }
        }
        names
    }
}

fn tuning_options(num_tasks: usize) -> TuningOptions {
    TuningOptions {
        rounds: (num_tasks * 2).max(num_tasks + 4),
        programs_per_round: 10,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            // Figs. 10–13 compare cost models, so every candidate is scored
            // by the model under test: the score-everything reference.
            speculative: SpecConfig::keeping(1.0),
            ..EvolutionConfig::default()
        },
        seed: 0x5EA,
        ..TuningOptions::default()
    }
}

/// Runs the full suite for one device class.
pub fn run_search_suite(scale: &Scale, gpu: bool) -> SearchSuite {
    let (dataset, target, aux) = if gpu {
        (
            scale.gpu_dataset(),
            Platform::tesla_t4(),
            Platform::tesla_k80(),
        )
    } else {
        (
            scale.cpu_dataset(),
            Platform::i7_10510u(),
            Platform::platinum_8272(),
        )
    };
    let target_idx = dataset
        .platform_index(&target.name)
        .expect("target platform in dataset");
    let aux_idx = dataset
        .platform_index(&aux.name)
        .expect("aux platform in dataset");

    let config = scale.tlp_config();
    eprintln!(
        "[search] pre-training models for {} ({} programs)…",
        target.name,
        dataset.num_programs()
    );
    let extractor = FeatureExtractor::fit(&dataset, config.seq_len, config.emb_size);
    let tasks = capped_train_tasks(&dataset, scale.max_train_tasks);

    // TLP: all target-platform data.
    let tlp_data = TrainData::from_tasks(&tasks, &extractor, target_idx);
    let mut tlp_model = TlpModel::new(config.clone());
    train_tlp(&mut tlp_model, &tlp_data);

    // MTL-TLP: small target slice + all auxiliary data.
    let mtl_target = tlp_data.subsample(MTL_TARGET_FRACTION, config.seed);
    let mtl_aux = TrainData::from_tasks(&tasks, &extractor, aux_idx);
    let mut mtl_model = TlpModel::with_heads(config.clone(), 2);
    train_mtl(&mut mtl_model, &[mtl_target, mtl_aux]);

    // TenSet-MLP: all target-platform data over program features.
    let tenset_data = tlp::baselines::program_feature_data(&dataset, &tasks, target_idx);
    let mut tenset_model = tlp::baselines::TenSetMlp::new(config.clone());
    tenset_model.train(&tenset_data);

    let mut runs = Vec::new();
    for net in test_networks() {
        let opts = tuning_options(net.num_tasks());
        eprintln!(
            "[search] tuning {} ({} tasks, {} rounds) on {}…",
            net.name,
            net.num_tasks(),
            opts.rounds,
            target.name
        );
        let mut models: Vec<Box<dyn CostModel>> = vec![
            Box::new(AnsorCostModel::new()),
            Box::new(TenSetMlpCostModel::new(clone_tenset(&tenset_model))),
            Box::new(TlpCostModel::new(tlp_model.clone(), extractor.clone())),
            Box::new(FeatureModel::from_scorer(MtlTlpScorer::new(
                mtl_model.clone(),
                extractor.clone(),
            ))),
        ];
        for model in models.iter_mut() {
            let mut report = tune_network(&net, &target, model.as_mut(), &opts);
            report.records.clear(); // keep the cached JSON small
            runs.push(report);
        }
    }
    SearchSuite {
        device: if gpu { "gpu" } else { "cpu" }.to_string(),
        platform: target.name,
        runs,
    }
}

// The model owns a ParamStore; cloning re-binds the trained weights into a
// fresh instance so each tuning run starts from the same pre-trained state.
fn clone_tenset(m: &tlp::baselines::TenSetMlp) -> tlp::baselines::TenSetMlp {
    let mut c = tlp::baselines::TenSetMlp::new(m.config.clone());
    c.store = m.store.clone();
    c
}

/// Loads the cached suite for a device, or runs it and caches the result.
pub fn load_or_run(scale: &Scale, gpu: bool) -> SearchSuite {
    let name = if gpu {
        "search_suite_gpu"
    } else {
        "search_suite_cpu"
    };
    if let Some(suite) = crate::read_json::<SearchSuite>(name) {
        eprintln!("[search] using cached {name}.json (delete it to re-run)");
        return suite;
    }
    let suite = run_search_suite(scale, gpu);
    crate::write_json(name, &suite);
    suite
}
