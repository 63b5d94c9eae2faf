//! Soundness of the `tlp-modelcheck` model-graph analyzer, both directions:
//!
//! 1. **No false rejects**: every model the code can legitimately produce —
//!    fresh, trained, grown — audits with zero error-severity diagnostics,
//!    and the gates (persist restore, trainer coverage check) are
//!    bit-neutral: a restored model's parameters are bitwise the snapshot
//!    source's, and a trained model's checksum is reproducible run to run.
//! 2. **No false accepts**: targeted corruptions of golden snapshots —
//!    random bit flips, NaN injection, tensor truncation, head-count
//!    forgery — are each caught with the M-code the pass is specified to
//!    emit, and the restore refuses them.
//!
//! The corruptions run under proptest so the flipped bit / poisoned element
//! ranges over the whole store, not a hand-picked coordinate.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers lib code, not tests (see clippy.toml)

use proptest::prelude::*;
use tlp::persist::{snapshot, store_checksum, PersistError, SavedTlp};
use tlp::train::{train_tlp_with, GroupData, TrainData};
use tlp::{TlpConfig, TlpModel, TrainOptions};
use tlp_modelcheck::{audit_store, Code};
use tlp_nn::Tensor;

fn cfg_with_seed(seed: u64) -> TlpConfig {
    TlpConfig {
        seed,
        ..TlpConfig::test_scale()
    }
}

fn golden(seed: u64, heads: usize) -> SavedTlp {
    let cfg = cfg_with_seed(seed);
    let ex = tlp::features::FeatureExtractor::with_vocab(
        tlp_schedule::Vocabulary::builder().build(),
        cfg.seq_len,
        cfg.emb_size,
    );
    snapshot(&TlpModel::with_heads(cfg, heads), &ex)
}

/// Flat (param, element) coordinates of the store, for mapping a fuzzed
/// index onto a concrete f32.
fn coords(snap: &SavedTlp) -> Vec<(tlp_nn::ParamId, usize)> {
    let store = snap.store();
    store
        .ids()
        .map(|id| (id, store.value(id).data().len()))
        .collect()
}

fn poke(snap: &mut SavedTlp, flat: usize, f: impl Fn(f32) -> f32) {
    let layout = coords(snap);
    let total: usize = layout.iter().map(|(_, n)| n).sum();
    let mut target = flat % total;
    for (id, n) in layout {
        if target < n {
            let v = &mut snap.store_mut().value_mut(id).data_mut()[target];
            *v = f(*v);
            return;
        }
        target -= n;
    }
    unreachable!("flat index within total");
}

fn store_bits(store: &tlp_nn::ParamStore) -> Vec<u32> {
    store
        .ids()
        .flat_map(|id| store.value(id).data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Deterministic synthetic task-grouped data (no dataset generation).
fn synth_data(cfg: &TlpConfig, groups: usize, per_group: usize, seed: u64) -> TrainData {
    let fs = cfg.seq_len * cfg.emb_size;
    let mut state = seed | 1;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direction 1: freshly constructed models of any seed audit clean and
    /// the restored parameters are bitwise the snapshot source's.
    #[test]
    fn fresh_models_never_false_reject(seed in 0u64..1_000_000, heads in 1usize..5) {
        let snap = golden(seed, heads);
        let report = snap.audit();
        prop_assert!(!report.has_errors(), "false reject on fresh {heads}-head model: {report}");
        let (restored, _) = snap.restore().expect("gate passes valid model");
        prop_assert_eq!(store_checksum(&restored.store), store_checksum(snap.store()));
        prop_assert_eq!(
            store_bits(&restored.store),
            store_bits(snap.store()),
            "gate perturbed parameters"
        );
    }

    /// Direction 2, bit flips: flipping any single bit anywhere in the
    /// store trips the checksum pass (M106) and the restore refuses the
    /// snapshot.
    #[test]
    fn any_bit_flip_is_caught(flat in 0usize..usize::MAX, bit in 0u32..32) {
        let mut snap = golden(7, 1);
        poke(&mut snap, flat, |v| f32::from_bits(v.to_bits() ^ (1 << bit)));
        let report = snap.audit();
        prop_assert!(
            report.has_code(Code::ChecksumMismatch),
            "bit flip escaped the checksum: {report}"
        );
        prop_assert!(report.has_errors());
        match snap.restore() {
            Err(PersistError::Invalid { diagnostics }) => {
                prop_assert!(!diagnostics.is_empty());
            }
            other => prop_assert!(false, "gate admitted a flipped store: {other:?}"),
        }
    }

    /// Direction 2, NaN injection: the numeric pass (M301) flags a poisoned
    /// value wherever it lands, independently of the checksum.
    #[test]
    fn any_nan_injection_is_caught(flat in 0usize..usize::MAX, kind in 0usize..3) {
        let mut snap = golden(11, 1);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        poke(&mut snap, flat, |_| poison);
        let report = snap.audit();
        prop_assert!(
            report.has_code(Code::NonFiniteValue),
            "non-finite value escaped the numeric pass: {report}"
        );
        prop_assert!(snap.restore().is_err());
    }

    /// Direction 2, shape tears: resizing any tensor away from its spec
    /// shape trips the shape pass (M103).
    #[test]
    fn any_tensor_resize_is_caught(idx in 0usize..usize::MAX, grow in 0usize..2) {
        let mut snap = golden(13, 1);
        let layout = coords(&snap);
        let (id, len) = layout[idx % layout.len()];
        let new_len = if grow == 1 { len + 1 } else { len.max(2) - 1 };
        *snap.store_mut().value_mut(id) = Tensor::zeros(&[new_len.max(1)]);
        let report = snap.audit();
        prop_assert!(
            report.has_code(Code::ShapeMismatch),
            "resized tensor escaped the shape pass: {report}"
        );
        prop_assert!(snap.restore().is_err());
    }
}

/// Head-count forgery leaves the store bytes intact, so the checksum stays
/// valid — the M2xx partition pass and the M1xx shape pass are what catch
/// the lie, in both directions.
#[test]
fn head_count_forgery_is_caught_without_checksum_help() {
    // Claim fewer heads than the store holds: head2.* become orphans.
    let mut snap = golden(3, 3);
    snap.set_heads(2);
    let report = snap.audit();
    assert!(report.has_errors());
    assert!(
        !report.has_code(Code::ChecksumMismatch),
        "forgery must be caught structurally, not via checksum: {report}"
    );
    assert!(
        report.has_code(Code::OrphanParam) || report.has_code(Code::HeadIndexOutOfRange),
        "expected M102/M202, got: {report}"
    );
    assert!(matches!(snap.restore(), Err(PersistError::Invalid { .. })));

    // Claim more heads than the store holds: head3.* are missing.
    let mut snap = golden(3, 3);
    snap.set_heads(4);
    let report = snap.audit();
    assert!(report.has_errors());
    assert!(
        report.has_code(Code::MissingParam),
        "expected M101 for the phantom head, got: {report}"
    );

    // Claim no heads at all: no model has that shape, so the audit reports
    // an error and the restore a typed HeadCount — neither tries to build it.
    for heads in [1, 3] {
        let mut snap = golden(3, heads);
        snap.set_heads(0);
        assert!(snap.audit().has_errors());
        assert!(matches!(
            snap.restore(),
            Err(PersistError::HeadCount { found: 0, .. })
        ));
    }
}

/// Non-finite gradient residue is a warning (M304), not an error: it cannot
/// corrupt a snapshot (gradients are not persisted) but it is worth
/// surfacing. The report must still pass.
#[test]
fn nan_gradients_warn_but_do_not_fail() {
    let cfg = cfg_with_seed(5);
    let mut model = TlpModel::new(cfg.clone());
    let id = model.store.ids().next().expect("params");
    model.store.grad_mut(id).data_mut()[0] = f32::NAN;
    let spec = tlp::audit::spec(&cfg, 1);
    let report = audit_store(&spec, &model.store);
    assert!(
        report.has_code(Code::NonFiniteGradient),
        "expected M304, got: {report}"
    );
    assert!(report.passes(), "gradient residue must not gate: {report}");
}

/// Trained models audit clean, and training behind the coverage
/// gate is reproducible: two runs end on the same store checksum.
#[test]
fn trained_models_audit_clean_and_training_is_reproducible() {
    let cfg = TlpConfig {
        epochs: 2,
        ..cfg_with_seed(21)
    };
    let data = synth_data(&cfg, 4, 6, 0xFEED);
    let train = || -> TlpModel {
        let mut model = TlpModel::new(cfg.clone());
        let options = TrainOptions::from_config(&cfg).with_seed(9);
        train_tlp_with(&mut model, &data, &options);
        model
    };
    let trained = train();
    assert_eq!(
        store_checksum(&trained.store),
        store_checksum(&train().store),
        "training is not reproducible"
    );
    assert_ne!(
        store_checksum(&trained.store),
        store_checksum(&TlpModel::new(cfg.clone()).store),
        "training must move the parameters"
    );

    let ex = tlp::features::FeatureExtractor::with_vocab(
        tlp_schedule::Vocabulary::builder().build(),
        cfg.seq_len,
        cfg.emb_size,
    );
    let snap = snapshot(&trained, &ex);
    let report = snap.audit();
    assert!(
        !report.has_errors(),
        "trained model false-rejected: {report}"
    );
    // And the full persist round trip stays bit-identical under the gate.
    let (restored, _) = snap.restore().expect("trained snapshot restores");
    let resnap = snapshot(&restored, &ex);
    assert_eq!(store_bits(snap.store()), store_bits(resnap.store()));
}

/// The audit must be cheap enough to gate every install: ≥1M params/s on
/// the full four-pass sweep (tier-1 runs with `profile.test` optimization).
#[test]
fn audit_throughput_exceeds_floor() {
    let snap = golden(1, 3);
    let params: usize = coords(&snap).iter().map(|(_, n)| n).sum();
    // Warm up once, then time a few sweeps.
    std::hint::black_box(snap.audit());
    let iters = 5u32;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(snap.audit());
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let params_per_s = params as f64 * f64::from(iters) / elapsed;
    assert!(
        params_per_s >= 1_000_000.0,
        "audit too slow to gate installs: {params_per_s:.0} params/s over {params} params"
    );
}
