//! Soundness of the model check (`tlp_modelcheck::check`, run by every
//! restore), both directions:
//!
//! 1. **No false rejects**: every model the code can legitimately produce —
//!    fresh, grown, trained — restores, and the check is bit-neutral: a
//!    restored model's parameters are bitwise the snapshot source's, and a
//!    trained model's checksum is reproducible run to run.
//! 2. **No false accepts**: targeted corruptions of golden snapshots —
//!    random bit flips, NaN injection, tensor resizes, head-count forgery,
//!    two parameters swapped in position — are each refused with the typed
//!    error that names what is wrong.
//!
//! The corruptions run under proptest so the flipped bit / poisoned element
//! ranges over the whole store, not a hand-picked coordinate.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers lib code, not tests (see clippy.toml)

use proptest::prelude::*;
use tlp::persist::{snapshot, store_checksum, PersistError, SavedTlp};
use tlp::train::{train_tlp_with, GroupData, TrainData};
use tlp::{TlpConfig, TlpModel, TrainOptions};
use tlp_modelcheck::{Slot, StoreFault};
use tlp_nn::{ParamStore, Tensor};

fn cfg_with_seed(seed: u64) -> TlpConfig {
    TlpConfig {
        seed,
        ..TlpConfig::test_scale()
    }
}

fn golden(seed: u64, heads: usize) -> SavedTlp {
    snap_of(&TlpModel::with_heads(cfg_with_seed(seed), heads))
}

fn snap_of(model: &TlpModel) -> SavedTlp {
    let ex = tlp::features::FeatureExtractor::with_vocab(
        tlp_schedule::Vocabulary::builder().build(),
        model.config.seq_len,
        model.config.emb_size,
    );
    snapshot(model, &ex)
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

/// Rewrites the `flat`-th value of the store through `f`; returns the
/// parameter's name and the value written.
fn poke(snap: &mut SavedTlp, flat: usize, f: impl Fn(f32) -> f32) -> (String, f32) {
    let layout = coords(snap);
    let total: usize = layout.iter().map(|(_, n)| n).sum();
    let mut target = flat % total;
    for (id, n) in layout {
        if target < n {
            let v = &mut snap.store_mut().value_mut(id).data_mut()[target];
            *v = f(*v);
            let written = *v;
            return (snap.store().name(id).to_string(), written);
        }
        target -= n;
    }
    unreachable!("flat index within total");
}

/// `store` with the parameters at positions `a` and `b` swapped.
fn swapped(store: &ParamStore, a: usize, b: usize) -> ParamStore {
    let mut ids: Vec<tlp_nn::ParamId> = store.ids().collect();
    ids.swap(a, b);
    let mut out = ParamStore::new();
    for id in ids {
        out.add(store.name(id), store.value(id).clone());
    }
    out
}

/// The registration index of a restore's layout fault.
fn layout_index(snap: &SavedTlp) -> Option<usize> {
    match snap.restore().err()? {
        PersistError::Invalid(StoreFault::Layout { index, .. }) => Some(index),
        _ => None,
    }
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

    /// Direction 1: freshly constructed and grown models of any seed pass
    /// the ordered compare, and the restored parameters are bitwise the
    /// snapshot source's.
    #[test]
    fn fresh_models_never_false_reject(seed in 0u64..1_000_000, heads in 1usize..5) {
        let model = TlpModel::with_heads(cfg_with_seed(seed), heads);
        for snap in [snap_of(&model), snap_of(&model.grow_head())] {
            let (restored, _) = snap.restore().expect("the check passes a valid model");
            prop_assert_eq!(store_checksum(&restored.store), store_checksum(snap.store()));
            prop_assert_eq!(
                store_bits(&restored.store),
                store_bits(snap.store()),
                "the check perturbed parameters"
            );
        }
    }

    /// Direction 2, bit flips: flipping any single bit anywhere in the
    /// store fails the checksum, or names the parameter when the flip made
    /// its value non-finite.
    #[test]
    fn any_bit_flip_is_caught(flat in 0usize..usize::MAX, bit in 0u32..32) {
        let mut snap = golden(7, 1);
        let (name, flipped) = poke(&mut snap, flat, |v| f32::from_bits(v.to_bits() ^ (1 << bit)));
        match snap.restore().err() {
            Some(PersistError::Checksum { recorded, computed }) => {
                prop_assert!(flipped.is_finite());
                prop_assert_ne!(recorded, computed);
            }
            Some(PersistError::Invalid(fault)) => prop_assert_eq!(
                fault,
                StoreFault::NonFinite { name, count: 1 }
            ),
            other => prop_assert!(false, "a flipped store restored as {other:?}"),
        }
    }

    /// Direction 2, NaN injection: a poisoned value is refused with the
    /// non-finite fault on its parameter wherever it lands, ahead of the
    /// checksum.
    #[test]
    fn any_nan_injection_is_caught(flat in 0usize..usize::MAX, kind in 0usize..3) {
        let mut snap = golden(11, 1);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        let (name, _) = poke(&mut snap, flat, |_| poison);
        match snap.restore().err() {
            Some(PersistError::Invalid(fault)) => prop_assert_eq!(
                fault,
                StoreFault::NonFinite { name, count: 1 }
            ),
            other => prop_assert!(false, "a poisoned store restored as {other:?}"),
        }
    }

    /// Direction 2, shape tears: resizing any tensor away from its layout
    /// dims is a layout fault at that tensor's index.
    #[test]
    fn any_tensor_resize_is_caught(idx in 0usize..usize::MAX, grow in 0usize..2) {
        let mut snap = golden(13, 1);
        let layout = coords(&snap);
        let at = idx % layout.len();
        let (id, len) = layout[at];
        let new_len = if grow == 1 { len + 1 } else { len.max(2) - 1 };
        *snap.store_mut().value_mut(id) = Tensor::zeros(&[new_len.max(1)]);
        prop_assert_eq!(layout_index(&snap), Some(at));
    }
}

/// Head-count forgery leaves the store bytes intact and re-seals the
/// checksum, so the layout compare is what catches the lie, in both
/// directions.
#[test]
fn head_count_forgery_is_caught_without_checksum_help() {
    let layout_len = |heads: usize| TlpModel::with_heads(cfg_with_seed(3), heads).store.len();
    // Claim fewer heads than the store holds: head 2 is past the layout.
    let mut snap = golden(3, 3);
    snap.set_heads(2);
    assert_eq!(layout_index(&snap), Some(layout_len(2)));

    // Claim more heads than the store holds: head 3 is missing.
    let mut snap = golden(3, 3);
    snap.set_heads(4);
    match snap.restore().err() {
        Some(PersistError::Invalid(StoreFault::Layout {
            index,
            expected: Some(Slot { name, .. }),
            found: None,
        })) => {
            assert_eq!(index, layout_len(3));
            assert!(name.starts_with("head3."), "{name}");
        }
        other => panic!("expected head 3 missing, got {other:?}"),
    }

    // Claim no heads at all: no model has that shape, so the restore
    // refuses with a typed HeadCount and never tries to build it.
    for heads in [1, 3] {
        let mut snap = golden(3, heads);
        snap.set_heads(0);
        assert!(matches!(
            snap.restore(),
            Err(PersistError::HeadCount { found: 0, .. })
        ));
    }
}

/// Two same-shaped parameters swapped in position with the checksum
/// re-sealed: every name and dims are still present, so a name-keyed
/// compare passes the store, but the model reads weights by index and
/// would bind the attention query weights as `backbone.up2.w`. The
/// ordered compare refuses it at the first swapped index.
#[test]
fn permuted_store_is_refused_at_the_swapped_index() {
    for heads in [1, 3] {
        let mut snap = golden(17, heads);
        let index_of = |name: &str| {
            let store = snap.store();
            store
                .ids()
                .position(|id| store.name(id) == name)
                .expect(name)
        };
        let (a, b) = (index_of("backbone.up2.w"), index_of("backbone.attn.q.w"));
        *snap.store_mut() = swapped(snap.store(), a, b);
        snap.set_heads(heads);
        match snap.restore().err() {
            Some(PersistError::Invalid(StoreFault::Layout {
                index,
                expected: Some(expected),
                found: Some(found),
            })) => {
                assert_eq!(index, a.min(b));
                assert_eq!(expected.name, "backbone.up2.w");
                assert_eq!(found.name, "backbone.attn.q.w");
                assert_eq!(expected.dims, found.dims);
            }
            other => panic!("{heads}-head permuted store: expected a layout fault, got {other:?}"),
        }
    }
}

/// Gradients are never persisted or scored with, so non-finite gradient
/// residue does not gate: the check passes and the snapshot restores.
#[test]
fn nan_gradients_do_not_gate() {
    let mut model = TlpModel::new(cfg_with_seed(5));
    let id = model.store.ids().next().expect("params");
    model.store.grad_mut(id).data_mut()[0] = f32::NAN;
    let layout = TlpModel::new(cfg_with_seed(5)).store;
    assert_eq!(tlp_modelcheck::check(&layout, &model.store), Ok(()));
    assert!(snap_of(&model).restore().is_ok());
}

/// Trained models pass the check, and training is reproducible: two runs
/// end on the same store checksum.
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

    // The full persist round trip passes the check and stays bit-identical.
    let snap = snap_of(&trained);
    let (restored, _) = snap.restore().expect("trained snapshot restores");
    let resnap = snap_of(&restored);
    assert_eq!(store_bits(snap.store()), store_bits(resnap.store()));
}

/// The check must be cheap enough to gate every install: ≥1M params/s for
/// the whole restore — fresh layout, ordered compare, finite scan and
/// checksum (tier-1 runs with `profile.test` optimization).
#[test]
fn audit_throughput_exceeds_floor() {
    let snap = golden(1, 3);
    let params: usize = coords(&snap).iter().map(|(_, n)| n).sum();
    // Warm up once, then time a few restores.
    std::hint::black_box(snap.restore().expect("golden restores"));
    let iters = 5u32;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(snap.restore().expect("golden restores"));
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let params_per_s = params as f64 * f64::from(iters) / elapsed;
    assert!(
        params_per_s >= 1_000_000.0,
        "the check is too slow to gate installs: {params_per_s:.0} params/s over {params} params"
    );
}
