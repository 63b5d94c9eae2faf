//! Cross-hardware transfer with MTL-TLP (paper §5): train a cost model for a
//! target platform that has only a small labelled dataset, borrowing a large
//! auxiliary dataset from another platform through a shared backbone.
//!
//! Run with `cargo run --release --example cross_hardware_mtl`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp::experiments::{capped_train_tasks, eval_tlp, Scale};
use tlp::features::FeatureExtractor;
use tlp::train::{train_mtl, train_tlp, TrainData};
use tlp::{TlpConfig, TlpModel};
use tlp_dataset::generate_dataset_for;
use tlp_hwsim::Platform;
use tlp_workload::{bert, bert_tiny};

fn main() {
    // Target: the laptop i7 with little data. Auxiliary: E5-2673 with all data
    // (same Intel x86 ISA — the paper's best aux choice, Table 9).
    let target = Platform::i7_10510u();
    let aux = Platform::e5_2673();
    println!("target {} | auxiliary {}", target.name, aux.name);

    let scale = Scale::test();
    let training_pool = [
        bert("bert-train-a", 1, 64, 2, 128, 2),
        bert("bert-train-b", 1, 64, 4, 256, 4),
    ];
    let ds = generate_dataset_for(
        &training_pool,
        &[bert_tiny(1, 64)],
        &[target, aux],
        &scale.dataset_config(),
    );

    let config = TlpConfig {
        epochs: 8,
        ..TlpConfig::test_scale()
    };
    let extractor = FeatureExtractor::fit(&ds, config.seq_len, config.emb_size);
    let tasks = capped_train_tasks(&ds, scale.max_train_tasks);

    // Only ~25% of the target platform's data is labelled (the paper's 500K
    // of 8.6M ≈ 6%; scaled up here because the toy dataset is small).
    let target_small = TrainData::from_tasks(&tasks, &extractor, 0).subsample(0.25, 7);
    let aux_all = TrainData::from_tasks(&tasks, &extractor, 1);
    println!(
        "target samples: {} | auxiliary samples: {}",
        target_small.num_samples(),
        aux_all.num_samples()
    );

    // Baseline: one-head TLP on the small target data alone.
    let mut single = TlpModel::new(config.clone());
    train_tlp(&mut single, &target_small);
    let (st1, st5) = eval_tlp(&single, &extractor, &ds, 0);
    println!("single-task  (small data): top-1 {st1:.4}, top-5 {st5:.4}");

    // MTL-TLP is the same model type with a second head: head 0 = target
    // (small), head 1 = auxiliary (all). `eval_tlp` scores through head 0.
    let mut mtl = TlpModel::with_heads(config, 2);
    train_mtl(&mut mtl, &[target_small, aux_all]);
    let (mt1, mt5) = eval_tlp(&mtl, &extractor, &ds, 0);
    println!("MTL-TLP (2 tasks)        : top-1 {mt1:.4}, top-5 {mt5:.4}");

    if mt1 >= st1 {
        println!("=> multi-task learning lifted the small-data target model");
    } else {
        println!("=> no lift at this toy scale; raise Scale for the paper's trend");
    }
}
