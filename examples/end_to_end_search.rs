//! End-to-end tensor-program tuning (paper §6.3): tune a workload with the
//! Ansor-like search framework under different cost models and compare
//! search time and final quality.
//!
//! Run with `cargo run --release --example end_to_end_search`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp::experiments::{capped_train_tasks, Scale};
use tlp::features::FeatureExtractor;
use tlp::search::{AnsorCostModel, TlpCostModel};
use tlp::train::{train_tlp, TrainData};
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{
    tune_network, CostModel, EvolutionConfig, RandomModel, TuningOptions, TuningReport,
};
use tlp_dataset::generate_dataset_for;
use tlp_hwsim::Platform;
use tlp_workload::{bert, bert_tiny};

fn run(
    name: &str,
    net: &tlp_workload::Network,
    platform: &Platform,
    model: &mut dyn CostModel,
) -> TuningReport {
    let opts = TuningOptions {
        rounds: net.num_tasks() * 2,
        programs_per_round: 4,
        evolution: EvolutionConfig {
            population: 32,
            generations: 2,
            ..EvolutionConfig::default()
        },
        seed: 0xE2E,
        ..TuningOptions::default()
    };
    let report = tune_network(net, platform, model, &opts);
    println!(
        "{name:<12} search {:>8.1}s (simulated+real)  workload latency {:.3} ms  ({} measurements)",
        report.total_search_time_s(),
        report.final_latency_s() * 1e3,
        report.measurements
    );
    report
}

fn main() {
    let platform = Platform::i7_10510u();
    let workload = bert_tiny(1, 64);
    println!(
        "tuning {} ({} tasks) on {}",
        workload.name,
        workload.num_tasks(),
        platform.name
    );

    // Pre-train TLP offline on a different network pool (no test leakage).
    let scale = Scale::test();
    let pool = [
        bert("bert-train-a", 1, 64, 2, 128, 2),
        bert("bert-train-b", 1, 64, 4, 256, 4),
    ];
    let ds = generate_dataset_for(
        &pool,
        &[],
        std::slice::from_ref(&platform),
        &scale.dataset_config(),
    );
    let config = TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, config.seq_len, config.emb_size);
    let data = TrainData::from_tasks(
        &capped_train_tasks(&ds, scale.max_train_tasks),
        &extractor,
        0,
    );
    let mut tlp_model = TlpModel::new(config);
    train_tlp(&mut tlp_model, &data);
    println!("TLP pre-trained on {} samples\n", data.num_samples());

    // Compare three cost models inside the same tuner.
    let mut random = RandomModel::new(3);
    let r_random = run("random", &workload, &platform, &mut random);

    let mut ansor = AnsorCostModel::new();
    let r_ansor = run("ansor-online", &workload, &platform, &mut ansor);

    let mut tlp_cm = TlpCostModel::new(tlp_model, extractor);
    let r_tlp = run("tlp-offline", &workload, &platform, &mut tlp_cm);

    // TLP should reach the random searcher's final quality sooner.
    let target = r_random.final_latency_s();
    if let Some(t) = r_tlp.time_to_reach(target) {
        println!(
            "\nTLP reached random's final quality after {:.1}s of search ({:.1}x speed-up)",
            t,
            r_random.total_search_time_s() / t.max(1e-9)
        );
    }
    let _ = r_ansor;
}
