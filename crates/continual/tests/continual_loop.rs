//! End-to-end tests of the continual-learning loop: measured adaptation
//! under fault injection, zero forgetting under the frozen trunk, canary
//! rollback, and bit-reproducibility.

#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use tlp::experiments::eval_head;
use tlp::persist::PersistError;
use tlp::{train_mtl_with, FeatureExtractor, TlpConfig, TlpModel, TrainData, TrainOptions};
use tlp_continual::{run_continual, CanarySet, ContinualConfig, PublishOutcome, SnapshotPublisher};
use tlp_dataset::{generate_dataset_for, Dataset, DatasetConfig};
use tlp_hwsim::Platform;
use tlp_serve::ModelRegistry;
use tlp_workload::bert_tiny;

/// A small dataset over two old CPUs plus the continual target as the last
/// platform column.
fn continual_dataset() -> Dataset {
    generate_dataset_for(
        &[bert_tiny(1, 64)],
        &[bert_tiny(1, 128)],
        &[
            Platform::i7_10510u(),
            Platform::e5_2673(),
            Platform::ryzen_3950x(),
        ],
        &DatasetConfig {
            programs_per_task: 16,
            refined_fraction: 0.25,
            seed: 41,
        },
    )
}

/// Trains a 2-head MTL model on the old platforms, then grows the new head.
fn grown_model(ds: &Dataset, ex: &FeatureExtractor) -> TlpModel {
    let cfg = TlpConfig {
        epochs: 4,
        ..TlpConfig::test_scale()
    };
    let mut base = TlpModel::with_heads(cfg.clone(), 2);
    let data = [
        TrainData::from_dataset(ds, ex, 0),
        TrainData::from_dataset(ds, ex, 1),
    ];
    let options = TrainOptions::from_config(&cfg).with_seed(77);
    train_mtl_with(&mut base, &data, &options);
    base.grow_head()
}

fn loop_config() -> ContinualConfig {
    let cfg = TlpConfig::test_scale();
    ContinualConfig {
        rounds: 3,
        per_task_candidates: 4,
        max_tasks: 3,
        adapt: TrainOptions::from_config(&cfg)
            .with_epochs(2)
            .with_batch_size(8)
            .with_seed(5),
        seed: 99,
    }
}

fn store_bits(model: &TlpModel) -> Vec<u32> {
    model
        .store
        .ids()
        .flat_map(|id| model.store.value(id).data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn frozen_loop_learns_without_forgetting_and_publishes() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    let config = loop_config();

    let registry = Arc::new(ModelRegistry::default());
    let canaries = CanarySet::from_dataset(&ds, 2, 2);
    assert!(!canaries.is_empty(), "dataset has canary tasks");
    let mut publisher = SnapshotPublisher::new(registry.clone(), "ryzen-3950x", 2, canaries);

    let baseline: Vec<f64> = (0..2)
        .map(|i| eval_head(&model, &ex, &ds, i, i).0)
        .collect();
    let report =
        run_continual(&mut model, &ex, &ds, &config, Some(&mut publisher)).expect("loop runs");

    assert_eq!(report.rounds.len(), 3);
    assert!(report.measurements > 0, "loop measured something");
    assert!(
        report.measurements_ok > 0,
        "some measurements survived chaos: {report:?}"
    );
    assert_eq!(
        report.measurements_ok + report.measurements_failed,
        report.measurements
    );
    // Frozen trunk: old platforms are bitwise untouched, so measured
    // forgetting is exactly zero.
    assert_eq!(report.forgetting_points, 0.0, "{report:?}");
    assert_eq!(report.baseline_old_top1, baseline);
    assert_eq!(report.final_old_top1, baseline);
    // Every round went through the canary gate, and the registry is left
    // serving the last candidate that passed it.
    assert_eq!(report.published + report.rolled_back, 3);
    assert!(report.published >= 1, "the first candidate has no rival");
    let version = registry.resolve("ryzen-3950x").expect("model installed");
    let last_good = match publisher.events().last().expect("three outcomes") {
        PublishOutcome::Published { version, .. } => *version,
        PublishOutcome::RolledBack {
            restored_version, ..
        } => *restored_version,
        other => panic!("round neither published nor rolled back: {other:?}"),
    };
    assert_eq!(version.version(), last_good);
    // The exact split, pinned. Canary accuracies of this test-scale model
    // sit at chance (0.4833, 0.4750, then 0.4625 against the 0.02
    // tolerance), so the split follows the last bit of training: it was 2/1
    // while adaptation mixed other heads' groups into its batch stream, and
    // is re-pinned whenever training arithmetic changes on purpose.
    assert_eq!(
        (report.published, report.rolled_back),
        (3, 0),
        "{:?}",
        publisher.events()
    );
    // Scoring works end to end through the served model.
    let canary = &CanarySet::from_dataset(&ds, 2, 1)[0];
    let (scores, _) = version.score(&canary.task, &canary.schedules);
    assert!(scores.iter().any(|s| s.is_some()), "served scores flow");
}

#[test]
fn continual_loop_is_bit_reproducible() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let config = loop_config();
    let run = || {
        let mut model = grown_model(&ds, &ex);
        let report = run_continual(&mut model, &ex, &ds, &config, None).expect("loop runs");
        (store_bits(&model), report)
    };
    let (bits_a, report_a) = run();
    let (bits_b, report_b) = run();
    assert_eq!(bits_a, bits_b, "parameters diverged across identical runs");
    // FNV-1a over the value bits (train → grow → 3 frozen rounds).
    // Re-captured when adaptation stopped mixing other heads' groups into
    // its batch stream (old → new in CHANGES.md).
    let digest = bits_a.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let want = 0xf70d_3f1e_6731_9182u64;
    assert_eq!(digest, want, "expected {want:#018x}, got {digest:#018x}");
    assert_eq!(
        serde_json::to_string(&report_a).expect("serialize"),
        serde_json::to_string(&report_b).expect("serialize"),
        "report diverged across identical runs"
    );
}

#[test]
fn canary_gate_rolls_back_a_regressed_candidate() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    let config = loop_config();
    // Adapt once so the published model actually ranks canaries.
    run_continual(&mut model, &ex, &ds, &config, None).expect("loop runs");

    let registry = Arc::new(ModelRegistry::default());
    let canaries = CanarySet::from_dataset(&ds, 2, 0);
    let mut publisher = SnapshotPublisher::new(registry.clone(), "gate", 2, canaries);
    let good = publisher.publish(&model, &ex).expect("publish good");
    let PublishOutcome::Published {
        version: good_version,
        accuracy: good_acc,
    } = good
    else {
        panic!("first publish must be accepted, got {good:?}");
    };

    // Sabotage the served head: negating its final linear layer negates
    // every score, inverting every ranking — a guaranteed canary
    // regression.
    let mut bad = model.grow_head();
    for id in bad.head_param_ids(2) {
        if bad.store.name(id).contains("out2") {
            bad.store.value_mut(id).scale_assign(-1.0);
        }
    }
    let outcome = publisher.publish(&bad, &ex).expect("gate runs");
    let PublishOutcome::RolledBack {
        rejected_accuracy,
        restored_version,
        good_accuracy,
    } = outcome
    else {
        panic!("regressed candidate must roll back, got {outcome:?}");
    };
    assert!(rejected_accuracy < good_acc, "negation regressed accuracy");
    assert_eq!(good_accuracy, good_acc);
    assert!(restored_version > good_version, "rollback reinstalls anew");
    // The registry serves the restored good model: canary accuracy through
    // the live version matches the good snapshot's score.
    let version = registry.resolve("gate").expect("still installed");
    assert_eq!(version.version(), restored_version);
    assert_eq!(publisher.published(), 1);
    assert_eq!(publisher.rolled_back(), 1);
}

#[test]
fn entry_audit_rejects_nan_grown_model() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    // Corrupt one trunk weight: the M3xx numeric pass must catch it before
    // the loop spends any measurement budget.
    let id = model
        .store
        .ids()
        .find(|&id| model.store.name(id).starts_with("backbone."))
        .expect("trunk param");
    model.store.value_mut(id).data_mut()[0] = f32::NAN;

    let config = loop_config();
    let err = run_continual(&mut model, &ex, &ds, &config, None)
        .expect_err("NaN model must be rejected at entry");
    let PersistError::Invalid { diagnostics } = err else {
        panic!("expected Invalid, got {err:?}");
    };
    assert!(
        diagnostics.iter().any(|d| d.code.as_str() == "M301"),
        "expected M301 NonFiniteValue, got {diagnostics:?}"
    );
}

#[test]
fn publisher_rejects_invalid_candidate_and_keeps_last_good_serving() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);

    let registry = Arc::new(ModelRegistry::default());
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "gate",
        2,
        CanarySet::from_dataset(&ds, 2, 0),
    );
    let good = publisher.publish(&model, &ex).expect("publish good");
    let PublishOutcome::Published {
        version: good_version,
        ..
    } = good
    else {
        panic!("first publish must be accepted, got {good:?}");
    };

    let id = model
        .store
        .ids()
        .find(|&id| model.store.name(id).starts_with("head2."))
        .expect("new-head param");
    model.store.value_mut(id).data_mut()[0] = f32::INFINITY;
    let outcome = publisher
        .publish(&model, &ex)
        .expect("an audit rejection is an outcome, not an error");
    let PublishOutcome::RejectedInvalid { codes } = outcome else {
        panic!("expected RejectedInvalid, got {outcome:?}");
    };
    assert!(codes.contains(&"M301".to_string()), "codes: {codes:?}");
    assert_eq!(publisher.rejected_invalid(), 1);
    assert_eq!(publisher.published(), 1);
    // The broken candidate never became resolvable: the last good version
    // is still the one serving.
    let serving = registry.resolve("gate").expect("last good still installed");
    assert_eq!(serving.version(), good_version);
}
