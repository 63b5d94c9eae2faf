//! Deployment flow: train a TLP cost model once, snapshot it to disk, and
//! reload it later to guide tuning without retraining — the offline-model
//! lifecycle the paper targets.
//!
//! Run with `cargo run --release --example save_and_reuse`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp::experiments::{capped_train_tasks, eval_tlp, Scale};
use tlp::features::FeatureExtractor;
use tlp::persist::{snapshot, SavedTlp};
use tlp::train::{train_tlp, TrainData};
use tlp::{TlpConfig, TlpModel};
use tlp_dataset::generate_dataset_for;
use tlp_hwsim::Platform;
use tlp_workload::{bert, bert_tiny};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::i7_10510u();
    let pool = [
        bert("bert-train-a", 1, 64, 2, 128, 2),
        bert("bert-train-b", 1, 64, 4, 256, 4),
    ];
    let ds = generate_dataset_for(
        &pool,
        &[bert_tiny(1, 64)],
        &[platform],
        &Scale::test().dataset_config(),
    );

    // Train once.
    let cfg = TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_tasks(&capped_train_tasks(&ds, usize::MAX), &extractor, 0);
    let mut model = TlpModel::new(cfg);
    train_tlp(&mut model, &data);
    let (t1, t5) = eval_tlp(&model, &extractor, &ds, 0);
    println!("trained model: top-1 {t1:.4}, top-5 {t5:.4}");

    // Snapshot to disk.
    let path = std::env::temp_dir().join("tlp_model_snapshot.json");
    snapshot(&model, &extractor).save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("snapshot written to {} ({bytes} bytes)", path.display());

    // Reload in a "new process" and verify identical behaviour.
    let (model2, extractor2) = SavedTlp::load(&path)?.restore()?;
    let (r1, r5) = eval_tlp(&model2, &extractor2, &ds, 0);
    println!("restored model: top-1 {r1:.4}, top-5 {r5:.4}");
    assert_eq!(
        (t1, t5),
        (r1, r5),
        "snapshot must preserve behaviour exactly"
    );
    println!("=> byte-identical predictions after reload");
    std::fs::remove_file(path)?;
    Ok(())
}
