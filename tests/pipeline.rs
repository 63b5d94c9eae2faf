//! End-to-end integration tests spanning every crate: workloads → dataset →
//! feature extraction → model training → metrics → search.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp::experiments::{capped_train_tasks, eval_tlp, Scale};
use tlp::features::FeatureExtractor;
use tlp::search::TlpCostModel;
use tlp::train::{train_mtl, train_tlp, TrainData};
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{tune_network, EvolutionConfig, RandomModel, TuningOptions};
use tlp_dataset::generate_dataset_for;
use tlp_hwsim::Platform;
use tlp_workload::{bert, bert_tiny};

fn toy_dataset(platforms: &[Platform]) -> tlp_dataset::Dataset {
    let pool = [
        bert("bert-train-a", 1, 64, 2, 128, 2),
        bert("bert-train-b", 1, 64, 4, 256, 4),
    ];
    generate_dataset_for(
        &pool,
        &[bert_tiny(1, 64)],
        platforms,
        &Scale::test().dataset_config(),
    )
}

#[test]
fn full_pipeline_cpu() {
    let ds = toy_dataset(&[Platform::i7_10510u()]);
    let cfg = TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_tasks(&capped_train_tasks(&ds, 50), &extractor, 0);
    let mut model = TlpModel::new(cfg);
    let report = train_tlp(&mut model, &data);
    assert!(report.final_loss().is_finite());
    assert_eq!(report.epochs.len(), 6);
    assert_eq!(report.stop, tlp::StopReason::Completed);
    let (top1, top5) = eval_tlp(&model, &extractor, &ds, 0);
    assert!(top1 > 0.0 && top1 <= 1.0 + 1e-9);
    assert!(top5 >= top1);
}

#[test]
fn full_pipeline_gpu() {
    let ds = toy_dataset(&[Platform::tesla_t4()]);
    let cfg = TlpConfig {
        epochs: 4,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_tasks(&capped_train_tasks(&ds, 50), &extractor, 0);
    let mut model = TlpModel::new(cfg);
    train_tlp(&mut model, &data);
    let (top1, top5) = eval_tlp(&model, &extractor, &ds, 0);
    assert!(
        top1 > 0.0,
        "GPU pipeline produces a usable model, top1 {top1}"
    );
    assert!(top5 >= top1);
}

#[test]
fn trained_tlp_guides_search_at_least_as_well_as_random() {
    let platform = Platform::i7_10510u();
    let ds = toy_dataset(std::slice::from_ref(&platform));
    let cfg = TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_tasks(&capped_train_tasks(&ds, 50), &extractor, 0);
    let mut model = TlpModel::new(cfg);
    train_tlp(&mut model, &data);

    let workload = bert_tiny(1, 64);
    let opts = TuningOptions {
        rounds: workload.num_tasks() * 2,
        programs_per_round: 4,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            epsilon: 0.0,
            ..EvolutionConfig::default()
        },
        seed: 99,
        ..TuningOptions::default()
    };
    let mut tlp_cm = TlpCostModel::new(model, extractor);
    let tlp_report = tune_network(&workload, &platform, &mut tlp_cm, &opts);
    let mut random = RandomModel::new(5);
    let rand_report = tune_network(&workload, &platform, &mut random, &opts);
    // At this toy budget the comparison is noisy (the real comparison is the
    // fig12/fig13 benches at a larger scale); assert a smoke-level bound and
    // that TLP's search actually converged.
    assert!(
        tlp_report.final_latency_s() <= rand_report.final_latency_s() * 2.0,
        "tlp {} vs random {}",
        tlp_report.final_latency_s(),
        rand_report.final_latency_s()
    );
    let seeded = tlp_report.rounds[workload.num_tasks() - 1].workload_latency_s;
    assert!(tlp_report.final_latency_s() <= seeded + 1e-12);
}

#[test]
fn multi_platform_dataset_feeds_mtl() {
    let ds = toy_dataset(&[Platform::i7_10510u(), Platform::e5_2673()]);
    let cfg = TlpConfig {
        epochs: 4,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let tasks = capped_train_tasks(&ds, 50);
    let target = TrainData::from_tasks(&tasks, &extractor, 0).subsample(0.3, 3);
    let aux = TrainData::from_tasks(&tasks, &extractor, 1);
    let mut mtl = TlpModel::with_heads(cfg, 2);
    let losses = train_mtl(&mut mtl, &[target, aux]).epoch_losses();
    assert!(losses.iter().all(|l| l.is_finite()));
    let (t1, t5) = eval_tlp(&mtl, &extractor, &ds, 0);
    assert!(t1 > 0.0 && t5 >= t1);
}
