//! Correctness guarantees of the training engine: pinned trained-weight
//! digests for every batch stream and the `TrainReport` contract.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use tlp::baselines::{TenSetMlp, PROGRAM_FEATURE_DIM};
use tlp::train::{train_mtl, train_mtl_with, train_tlp, train_tlp_with, GroupData, TrainData};
use tlp::{grouped_batches, StopReason, TlpConfig, TlpModel, TrainOptions};
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
fn train_report_serializes() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 2, 6, 3);
    let mut model = TlpModel::new(cfg.clone());
    let report = train_tlp_with(&mut model, &data, &options(&cfg).with_epochs(1));
    let json = serde_json::to_string(&report).expect("report is serde data");
    assert!(json.contains("train_loss"));
    assert!(json.contains("Completed"));
}

/// The LM baselines' two training paths — GPT and BERT pretraining (salt
/// `0x9e`) and rank fine-tuning of the GPT-pretrained model (salt `0xF1`),
/// all at a constant learning rate — pinned by per-epoch loss bits and
/// trained-weight digest. Every literal was captured at the parent of the
/// change that removed the trainer's checkpoint/resume path and Adam's
/// configurable hyper-parameters, before any other edit of that change.
#[test]
fn lm_pretraining_and_fine_tuning_match_their_digests() {
    use tlp::pretrain::{PretrainConfig, PretrainKind, PretrainedLm, BOS};
    let cfg = PretrainConfig {
        d_model: 16,
        heads: 2,
        layers: 1,
        max_len: 12,
        name_cap: 8,
        epochs: 2,
        batch_size: 4,
        ..PretrainConfig::default()
    };
    let vocab = cfg.vocab_size() as u64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // `n` sequences of `max_len` tokens, each `BOS` then non-reserved ids.
    let mut tokens = |n: usize| -> Vec<usize> {
        (0..n)
            .flat_map(|_| {
                let body: Vec<usize> = (1..cfg.max_len)
                    .map(|_| (3 + next() % (vocab - 3)) as usize)
                    .collect();
                std::iter::once(BOS).chain(body)
            })
            .collect()
    };
    let corpus: Vec<Vec<usize>> = tokens(10)
        .chunks(cfg.max_len)
        .map(<[usize]>::to_vec)
        .collect();
    // A one-sample group carries no ranking signal and is skipped.
    let groups: Vec<(Vec<usize>, Vec<f32>)> = [5usize, 1, 7]
        .iter()
        .enumerate()
        .map(|(g, &n)| {
            let labels = (0..n)
                .map(|i| ((g * 7 + i * 3) % 10 + 1) as f32 / 10.0)
                .collect();
            (tokens(n), labels)
        })
        .collect();
    let check =
        |what: &str, lm: &PretrainedLm, report: tlp::TrainReport, losses: &[u32], want: u64| {
            let bits: Vec<u32> = report.epoch_losses().iter().map(|l| l.to_bits()).collect();
            assert_eq!(bits, losses, "{what}: got {bits:#010x?}");
            let got = value_digest(&lm.store);
            assert_eq!(got, want, "{what}: expected {want:#018x}, got {got:#018x}");
        };

    let mut gpt = PretrainedLm::new(PretrainKind::Gpt, cfg.clone());
    let report = gpt.pretrain(&corpus);
    check(
        "gpt pretrain",
        &gpt,
        report,
        &[0x4073_87b5, 0x4073_1c9e],
        0xb555_e542_6a8a_684e,
    );
    let report = gpt.fine_tune(&groups, 3);
    check(
        "fine-tune",
        &gpt,
        report,
        &[0x3e08_bb8f, 0x3dda_9412, 0x3e17_07eb],
        0x180a_58e3_1c99_2e08,
    );
    let mut bert = PretrainedLm::new(PretrainKind::Bert, cfg);
    let report = bert.pretrain(&corpus);
    check(
        "bert pretrain",
        &bert,
        report,
        &[0x4072_bd6b, 0x4072_2b11],
        0x11bc_da25_eb1a_e2c2,
    );
}
