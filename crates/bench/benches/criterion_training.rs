//! Training-throughput benchmark for the training loop, `tlp::trainer::fit`
//! (`criterion_inference`'s sibling): samples/sec of one epoch at
//! `TlpConfig::default()` width, batch 32 and 2 048 samples under the
//! options every config-driven entry point runs
//! (`TrainOptions::from_config`) — the median of [`RUNS`] runs.
//! Writes `target/tlp-results/BENCH_training.json`; copy it to the repo
//! root to re-record the committed figure.
//!
//! Run with `cargo bench -p tlp-bench --bench criterion_training`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use std::time::Instant;
use tlp::train::{train_tlp_with, GroupData, TrainData};
use tlp::{TlpConfig, TlpModel, TrainOptions};
use tlp_nn::ParamStore;

/// Deterministic synthetic task-grouped data (feature extraction is not
/// what this bench measures).
fn synth_data(cfg: &TlpConfig, groups: usize, per_group: usize) -> TrainData {
    let fs = cfg.seq_len * cfg.emb_size;
    let mut state = 0x5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let groups = (0..groups)
        .map(|_| {
            let mut features = Vec::with_capacity(per_group * fs);
            let mut labels = Vec::with_capacity(per_group);
            for _ in 0..per_group {
                for _ in 0..fs {
                    features.push(next() - 0.5);
                }
                labels.push(next().clamp(1e-3, 1.0));
            }
            GroupData { features, labels }
        })
        .collect();
    TrainData {
        feature_size: fs,
        groups,
    }
}

/// Timed runs behind the recorded median.
const RUNS: usize = 11;

#[derive(Serialize)]
struct TrainingSummary {
    available_parallelism: usize,
    samples_per_epoch: usize,
    epochs: usize,
    batch_size: usize,
    hidden: usize,
    runs: usize,
    median_wall_s: f64,
    q1_wall_s: f64,
    q3_wall_s: f64,
    samples_per_s: f64,
}

fn same_values(a: &ParamStore, b: &ParamStore) -> bool {
    a.ids()
        .zip(b.ids())
        .all(|(x, y)| a.value(x).data() == b.value(y).data())
}

fn main() {
    let cfg = TlpConfig {
        epochs: 1,
        batch_size: 32,
        ..TlpConfig::default()
    };
    let data = synth_data(&cfg, 16, 128);
    let samples = data.num_samples();
    let opts = TrainOptions::from_config(&cfg).with_seed(1);

    let mut walls: Vec<f64> = Vec::with_capacity(RUNS);
    let mut reference: Option<ParamStore> = None;
    for _ in 0..RUNS {
        let mut model = TlpModel::new(cfg.clone());
        let t = Instant::now();
        train_tlp_with(&mut model, &data, &opts);
        walls.push(t.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(model.store),
            Some(first) => assert!(
                same_values(first, &model.store),
                "a repeated run changed the trained parameters"
            ),
        }
    }
    walls.sort_by(f64::total_cmp);

    let summary = TrainingSummary {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples_per_epoch: samples,
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        hidden: cfg.hidden,
        runs: RUNS,
        median_wall_s: walls[RUNS / 2],
        q1_wall_s: walls[RUNS / 4],
        q3_wall_s: walls[RUNS - 1 - RUNS / 4],
        samples_per_s: samples as f64 / walls[RUNS / 2],
    };
    println!(
        "\n=== training throughput (median of {RUNS}; hidden {}, batch {}, {samples} samples) ===",
        summary.hidden, summary.batch_size
    );
    println!(
        "{:.0} samples/s, wall {:.3} s [{:.3}, {:.3}]",
        summary.samples_per_s, summary.median_wall_s, summary.q1_wall_s, summary.q3_wall_s
    );

    tlp_bench::write_json("BENCH_training", &summary);
}
