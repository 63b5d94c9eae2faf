//! Correctness guarantees of the training engine: pinned trained-weight
//! digests for every batch stream, bit-identical resume, the checkpoint
//! layout check, and the `TrainReport` contract.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use tlp::baselines::{TenSetMlp, PROGRAM_FEATURE_DIM};
use tlp::train::{
    resume_tlp, train_mtl, train_mtl_with, train_tlp, train_tlp_checkpointed, train_tlp_with,
    GroupData, TrainData,
};
use tlp::{
    grouped_batches, PersistError, StopReason, TlpConfig, TlpModel, TrainCheckpoint, TrainOptions,
};
use tlp_nn::ParamStore;

/// Deterministic synthetic task-grouped data (no dataset generation).
fn synth_data(cfg: &TlpConfig, groups: usize, per_group: usize, seed: u64) -> TrainData {
    synth_sized(cfg.seq_len * cfg.emb_size, &vec![per_group; groups], seed)
}

/// Like [`synth_data`] with an explicit feature width and per-group sizes.
fn synth_sized(fs: usize, sizes: &[usize], seed: u64) -> TrainData {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let groups = sizes
        .iter()
        .map(|&per_group| {
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

fn tiny_config() -> TlpConfig {
    TlpConfig {
        epochs: 2,
        batch_size: 4,
        ..TlpConfig::test_scale()
    }
}

fn max_param_diff(a: &ParamStore, b: &ParamStore) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f32;
    for id in a.ids() {
        for (x, y) in a.value(id).data().iter().zip(b.value(id).data()) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

fn options(cfg: &TlpConfig) -> TrainOptions {
    TrainOptions::from_config(cfg).with_seed(42)
}

/// Per-head inputs for a one-head and a two-head model.
fn head_inputs(cfg: &TlpConfig) -> [Vec<TrainData>; 2] {
    [
        vec![synth_data(cfg, 5, 10, 7)],
        vec![synth_data(cfg, 3, 8, 11), synth_data(cfg, 4, 8, 13)],
    ]
}

/// FNV-1a over every parameter's value bits in registration order. Names are
/// excluded, so the digest survives a parameter rename but not a changed
/// number.
fn value_digest(store: &ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in store.ids() {
        for v in store.value(id).data() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The literals were first captured at the last commit that had separate
/// single-task and multi-task model/trainable pairs (PR 16), where they
/// proved the one-type code reproduces every batch stream bit for bit,
/// salts included. Re-captured once since, when softmax moved from libm's
/// `exp` to `tlp_nn::kernels::exp` (PR 20): with that function bound back
/// to `f32::exp` the PR 16 values reproduce (old → new in CHANGES.md). The
/// two explicit-options literals were captured at the last commit that still
/// had gradient accumulation, early stopping and the validation split
/// (PR 23), with all three at their off values.
#[test]
fn training_streams_match_the_pre_merge_digests() {
    let cfg = tiny_config();
    let [one, two] = head_inputs(&cfg);
    let pinned = |heads: usize, want: u64, train: &dyn Fn(&mut TlpModel) -> tlp::TrainReport| {
        let mut model = TlpModel::with_heads(cfg.clone(), heads);
        train(&mut model);
        let got = value_digest(&model.store);
        assert_eq!(got, want, "expected {want:#018x}, got {got:#018x}");
    };
    // `train_tlp` / `train_mtl` carry the historical salts 0x7e41 / 0x171.
    pinned(1, 0x43bb_8fbf_f811_3ea7, &|m| train_tlp(m, &one[0]));
    pinned(2, 0x99ae_f11a_29d9_3a7a, &|m| train_mtl(m, &two));
    // The explicit-options path: no salt, the caller's seed as given.
    let explicit = options(&cfg);
    pinned(1, 0x419b_99e7_0964_0dd3, &|m| {
        train_tlp_with(m, &one[0], &explicit)
    });
    pinned(2, 0x22e9_5f80_c64f_23f1, &|m| {
        train_mtl_with(m, &two, &explicit)
    });
}

/// Captured from the hand-rolled Adam/shuffle/clip loop `TenSetMlp::train`
/// had before it moved onto the shared trainer: the group sizes cover a
/// skipped 1-sample group, a dropped singleton tail (33 = 16 + 16 + 1) and
/// ragged last chunks (40, 70, 9).
#[test]
fn tenset_mlp_training_matches_the_hand_loop_digest() {
    let cfg = TlpConfig {
        epochs: 3,
        batch_size: 16,
        ..TlpConfig::test_scale()
    };
    let data = synth_sized(PROGRAM_FEATURE_DIM, &[1, 40, 33, 70, 9], 17);
    let mut model = TenSetMlp::new(cfg);
    let losses: Vec<u32> = model.train(&data).iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        losses,
        [0x3dd8_b949, 0x3dd6_4c44, 0x3dbf_89f8],
        "got {losses:#010x?}"
    );
    let got = value_digest(&model.store);
    let want = 0x53e3_f7ad_544d_0b5eu64;
    assert_eq!(got, want, "expected {want:#018x}, got {got:#018x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `grouped_batches` against the double shuffle as the four training
    /// loops used to spell it inline (kept here as the reference): same
    /// `(slot, indices)` sequence, and the RNG left in the same state.
    #[test]
    fn grouped_batches_is_the_inline_double_shuffle(
        lens in prop::collection::vec(0usize..40, 0..8),
        batch_size in 2usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut got: Vec<(usize, Vec<usize>)> = Vec::new();
        grouped_batches(&lens, batch_size, &mut rng, |slot, idx| {
            got.push((slot, idx.to_vec()));
        });

        let mut reference = SmallRng::seed_from_u64(seed);
        let mut want: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.shuffle(&mut reference);
        for &slot in &order {
            let n = lens[slot];
            if n < 2 {
                continue;
            }
            let mut sample_order: Vec<usize> = (0..n).collect();
            sample_order.shuffle(&mut reference);
            for chunk in sample_order.chunks(batch_size) {
                if chunk.len() < 2 {
                    continue;
                }
                want.push((slot, chunk.to_vec()));
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(rng.next_u64(), reference.next_u64());
    }
}

#[test]
fn report_shape() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 6, 10, 31);
    let opts = TrainOptions::from_config(&cfg)
        .with_seed(5)
        .with_learning_rate(0.0)
        .with_epochs(3);
    let mut model = TlpModel::new(cfg.clone());
    let report = train_tlp_with(&mut model, &data, &opts);

    assert_eq!(report.stop, StopReason::Completed);
    assert_eq!(report.epochs.len(), 3);
    for (i, e) in report.epochs.iter().enumerate() {
        assert_eq!(e.epoch, i);
        assert_eq!(e.learning_rate, 0.0);
        assert!(e.train_loss.is_finite());
        assert!(e.grad_norm.is_finite());
        assert!(e.steps > 0);
        assert!(e.samples > 0);
        assert!(e.wall_s >= 0.0);
    }
    assert!(report.wall_s > 0.0);
    assert!(report.samples > 0);
    assert!(report.samples_per_s() > 0.0);
    assert_eq!(
        report.samples,
        report.epochs.iter().map(|e| e.samples).sum::<usize>()
    );
}

#[test]
fn resumed_training_is_bitwise_identical_to_uninterrupted() {
    let cfg = tiny_config();
    let opts = options(&cfg).with_epochs(6);
    for tasks in head_inputs(&cfg) {
        let heads = tasks.len();
        let path = std::env::temp_dir().join(format!("tlp_trainer_resume_test_{heads}.json"));
        let _ = std::fs::remove_file(&path);

        // Straight-through run: 6 epochs, no interruption.
        let mut straight = TlpModel::with_heads(cfg.clone(), heads);
        let straight_report = train_mtl_with(&mut straight, &tasks, &opts);

        // Interrupted run: 3 epochs with checkpointing, then a fresh model +
        // resume carries it to 6. The fresh model simulates a process restart
        // (all in-memory state lost; only the checkpoint file survives).
        let mut interrupted = TlpModel::with_heads(cfg.clone(), heads);
        let partial = train_tlp_checkpointed(
            &mut interrupted,
            &tasks,
            &opts.clone().with_epochs(3),
            &path,
            3,
        );
        assert!(partial.checkpoints_written >= 1, "spill must have happened");
        let ckpt = TrainCheckpoint::load(&path).expect("checkpoint readable");
        assert_eq!(ckpt.epochs_done, 3);

        let mut resumed_model = TlpModel::with_heads(cfg.clone(), heads);
        let resumed = resume_tlp(&mut resumed_model, &tasks, &opts, &path, 3).expect("resume");

        // Bitwise-identical parameters (ParamStore has no PartialEq; tensors do).
        assert_eq!(max_param_diff(&straight.store, &resumed_model.store), 0.0);
        // Same per-epoch losses over all 6 epochs, first 3 from the checkpoint.
        assert_eq!(resumed.epochs.len(), 6);
        assert_eq!(straight_report.epoch_losses(), resumed.epoch_losses());
        assert_eq!(resumed.stop, StopReason::Completed);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resume_rejects_seed_mismatch_and_missing_checkpoint() {
    let cfg = tiny_config();
    let data = [synth_data(&cfg, 3, 8, 29)];
    let path = std::env::temp_dir().join("tlp_trainer_seed_mismatch_test.json");
    let _ = std::fs::remove_file(&path);

    // Missing checkpoint -> Io error.
    let mut model = TlpModel::new(cfg.clone());
    assert!(matches!(
        resume_tlp(&mut model, &data, &options(&cfg), &path, 1),
        Err(PersistError::Io(_))
    ));

    // Checkpoint written with seed 42, resume configured with seed 43.
    let mut model = TlpModel::new(cfg.clone());
    train_tlp_checkpointed(&mut model, &data, &options(&cfg).with_epochs(1), &path, 1);
    let mut other = TlpModel::new(cfg.clone());
    assert!(matches!(
        resume_tlp(&mut other, &data, &options(&cfg).with_seed(43), &path, 1),
        Err(PersistError::SeedMismatch {
            found: 42,
            expected: 43
        })
    ));
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint is outside input: one written by a model with another head
/// count or width is refused before anything is installed.
#[test]
fn resume_rejects_a_checkpoint_with_another_parameter_layout() {
    let cfg = tiny_config();
    let wide = TlpConfig {
        hidden: cfg.hidden * 2,
        ..cfg.clone()
    };
    let [one, two] = head_inputs(&cfg);
    let opts = options(&cfg).with_epochs(1);
    // (checkpoint writer, resuming model, the code its diagnostics carry)
    let cases = [
        (
            TlpModel::with_heads(cfg.clone(), 2),
            TlpModel::new(cfg.clone()),
            "M102",
        ),
        (
            TlpModel::new(cfg.clone()),
            TlpModel::with_heads(cfg.clone(), 2),
            "M101",
        ),
        (TlpModel::new(wide), TlpModel::new(cfg.clone()), "M103"),
    ];
    for (mut writer, mut resuming, code) in cases {
        let path = std::env::temp_dir().join(format!("tlp_trainer_layout_test_{code}.json"));
        let data = |m: &TlpModel| if m.num_tasks() == 2 { &two } else { &one };
        let tasks = data(&writer);
        train_tlp_checkpointed(&mut writer, tasks, &opts, &path, 1);
        let before = value_digest(&resuming.store);
        let tasks = data(&resuming);
        match resume_tlp(&mut resuming, tasks, &opts, &path, 1) {
            Err(PersistError::Invalid { diagnostics }) => {
                assert!(
                    diagnostics.iter().all(|d| d.code.as_str() == code),
                    "expected only {code}: {diagnostics:?}"
                );
            }
            other => panic!("expected Invalid, got {:?}", other.map(|r| r.stop)),
        }
        assert_eq!(before, value_digest(&resuming.store), "nothing installed");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn train_report_serializes() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 2, 6, 3);
    let mut model = TlpModel::new(cfg.clone());
    let report = train_tlp_with(&mut model, &data, &options(&cfg).with_epochs(1));
    let json = serde_json::to_string(&report).expect("report is serde data");
    assert!(json.contains("train_loss"));
    assert!(json.contains("Completed"));
}
