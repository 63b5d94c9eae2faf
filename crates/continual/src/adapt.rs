//! Replay-mixed head adaptation on top of the shared [`Trainer`](tlp::Trainer).
//!
//! [`adapt_round`] is *not* a new training loop: it hands `tlp`'s one
//! head-routed task ([`train_slots`]) a slot list — the new platform's
//! groups, then the replay items through their original heads — and a
//! [`GradMask`], inheriting the trainer's bitwise-deterministic step, LR
//! schedule and clipping. The mask runs in the trainer's `postprocess_grads`
//! hook — after the backward pass, before the norm/clip/step:
//!
//! - [`TrunkMode::Frozen`] zeroes every gradient outside the adapting head.
//!   Adam with zero weight decay takes a bitwise no-op step on a
//!   zero-gradient parameter (moments stay zero, delta is zero), so frozen
//!   parameters — the trunk *and* every old head — are **bitwise unchanged**
//!   by adaptation, and old-platform forgetting is exactly zero.
//! - [`TrunkMode::LowLr`] scales trunk gradients by a factor instead:
//!   the trunk absorbs new-platform signal slowly while replay batches
//!   (routed through their original heads) keep pulling it back toward the
//!   platforms it already serves.
//!
//! Masking gradients rather than filtering optimizer state keeps the hot
//! path untouched: the hook runs exactly once per optimizer step.

use crate::replay::ReplayBuffer;
use serde::{Deserialize, Serialize};
use tlp::train::{train_slots, GradMask, TrainData};
use tlp::{TlpModel, TrainOptions, TrainReport};
use tlp_modelcheck::TrainedHeads;

/// What the shared trunk (and the non-adapting heads) do during adaptation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TrunkMode {
    /// Freeze everything except the adapting head. Old-platform predictions
    /// are bitwise-invariant under this mode.
    Frozen,
    /// Let the trunk learn at `scale ×` the configured learning rate
    /// (implemented as a gradient scale; old heads still learn from their
    /// own replay batches at full rate).
    LowLr {
        /// Multiplier applied to trunk gradients, typically `0.1` or less.
        scale: f32,
    },
}

/// Configuration of one adaptation round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Knobs forwarded verbatim to the shared [`Trainer`](tlp::Trainer).
    pub train: TrainOptions,
    /// Trunk policy (frozen vs low-LR).
    pub trunk: TrunkMode,
}

impl AdaptConfig {
    /// Head-only adaptation: the trunk and old heads stay bitwise fixed.
    pub fn frozen(train: TrainOptions) -> Self {
        AdaptConfig {
            train,
            trunk: TrunkMode::Frozen,
        }
    }

    /// Low-LR trunk adaptation with the given gradient scale.
    pub fn low_lr(train: TrainOptions, scale: f32) -> Self {
        AdaptConfig {
            train,
            trunk: TrunkMode::LowLr { scale },
        }
    }
}

/// Runs one adaptation round: trains head `head` (and, per
/// [`TrunkMode`], the trunk) on `new_data` mixed with `replay`, using the
/// shared deterministic [`Trainer`](tlp::Trainer).
///
/// Returns the trainer's [`TrainReport`]. For a fixed config the round is
/// bit-reproducible, like every other training loop in this workspace.
///
/// # Panics
///
/// Panics if `head` is out of range, or if `new_data` / `replay` feature
/// sizes disagree with the model config.
pub fn adapt_round(
    model: &mut TlpModel,
    head: usize,
    new_data: &TrainData,
    replay: &ReplayBuffer,
    config: &AdaptConfig,
) -> TrainReport {
    assert!(head < model.num_tasks(), "adapting head out of range");
    let fs = model.config.seq_len * model.config.emb_size;
    assert_eq!(new_data.feature_size, fs, "new-platform feature size");
    if let Some(rfs) = replay.feature_size() {
        assert_eq!(rfs, fs, "replay feature size");
    }
    for item in replay.items() {
        assert!(item.head < model.num_tasks(), "replay head out of range");
    }
    // New-platform groups first, then the replay items: this order (and
    // the ≥ 2-label filter) fixes the round's shuffle stream.
    let mut slots: Vec<_> = new_data
        .groups
        .iter()
        .filter(|g| g.labels.len() >= 2)
        .map(|g| (head, g))
        .collect();
    slots.extend(replay.items().iter().map(|item| (item.head, &item.group)));
    let mask = match config.trunk {
        TrunkMode::Frozen => {
            let mut zeroed = model.trunk_param_ids();
            for t in 0..model.num_tasks() {
                if t != head {
                    zeroed.extend(model.head_param_ids(t));
                }
            }
            // Only the adapting head is trainable; declaring the old heads
            // untrained is the conservative truth the mask enforces (their
            // replay gradients are zeroed every step).
            GradMask {
                zeroed,
                scaled: Vec::new(),
                trained: TrainedHeads::Heads(vec![head]),
            }
        }
        // Nothing is frozen and replay batches route through every old
        // head, so the loss reaches everything.
        TrunkMode::LowLr { scale } => GradMask {
            zeroed: Vec::new(),
            scaled: model
                .trunk_param_ids()
                .into_iter()
                .map(|id| (id, scale))
                .collect(),
            trained: TrainedHeads::All,
        },
    };
    train_slots(model, slots, Some(mask), &config.train)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp::train::GroupData;
    use tlp::TlpConfig;

    /// Deterministic synthetic group: features hash-derived, labels favor
    /// larger feature sums, shaped like normalized latencies in (0, 1].
    fn synth_group(cfg: &TlpConfig, tag: u64, n: usize) -> GroupData {
        let fs = cfg.seq_len * cfg.emb_size;
        let mut features = Vec::with_capacity(n * fs);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let mut sum = 0.0f32;
            for j in 0..fs {
                let h = (tag
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((i * fs + j) as u64))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let v = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                features.push(v);
                sum += v;
            }
            labels.push((0.5 + 0.4 * (sum / (fs as f32).sqrt()).tanh()).clamp(0.05, 1.0));
        }
        GroupData { features, labels }
    }

    fn synth_data(cfg: &TlpConfig, tag: u64, groups: usize, n: usize) -> TrainData {
        TrainData {
            feature_size: cfg.seq_len * cfg.emb_size,
            groups: (0..groups)
                .map(|g| synth_group(cfg, tag * 1000 + g as u64, n))
                .collect(),
        }
    }

    fn param_bits(model: &TlpModel, ids: &[tlp_nn::ParamId]) -> Vec<Vec<u32>> {
        ids.iter()
            .map(|&id| {
                model
                    .store
                    .value(id)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }

    fn small_options(cfg: &TlpConfig) -> TrainOptions {
        TrainOptions::from_config(cfg)
            .with_epochs(2)
            .with_batch_size(8)
            .with_seed(11)
    }

    #[test]
    fn frozen_mode_is_bitwise_invariant_outside_the_new_head() {
        let cfg = TlpConfig::test_scale();
        let base = TlpModel::with_heads(cfg.clone(), 2);
        let mut model = base.grow_head();
        let new_head = 2;
        let mut fixed: Vec<tlp_nn::ParamId> = model.trunk_param_ids();
        fixed.extend(model.head_param_ids(0));
        fixed.extend(model.head_param_ids(1));
        let before = param_bits(&model, &fixed);
        let head_before = param_bits(&model, &model.head_param_ids(new_head));

        let mut replay = ReplayBuffer::stratified(2, 3);
        replay.ingest_data(0, &synth_data(&cfg, 7, 2, 12));
        replay.ingest_data(1, &synth_data(&cfg, 8, 2, 12));
        let new_data = synth_data(&cfg, 9, 3, 16);
        let config = AdaptConfig::frozen(small_options(&cfg));
        let report = adapt_round(&mut model, new_head, &new_data, &replay, &config);
        assert_eq!(report.epochs.len(), 2);
        assert!(report.samples > 0);

        assert_eq!(param_bits(&model, &fixed), before, "frozen params moved");
        assert_ne!(
            param_bits(&model, &model.head_param_ids(new_head)),
            head_before,
            "new head failed to learn"
        );
    }

    #[test]
    fn low_lr_mode_moves_the_trunk() {
        let cfg = TlpConfig::test_scale();
        let mut model = TlpModel::with_heads(cfg.clone(), 2).grow_head();
        let trunk = model.trunk_param_ids();
        let before = param_bits(&model, &trunk);
        let replay = ReplayBuffer::reservoir(4, 3);
        let new_data = synth_data(&cfg, 9, 3, 16);
        let config = AdaptConfig::low_lr(small_options(&cfg), 0.1);
        adapt_round(&mut model, 2, &new_data, &replay, &config);
        assert_ne!(param_bits(&model, &trunk), before, "trunk never moved");
    }

    #[test]
    fn adaptation_reproduces_the_pinned_digest() {
        let cfg = TlpConfig::test_scale();
        let new_data = synth_data(&cfg, 4, 3, 16);
        let mut replay = ReplayBuffer::reservoir(3, 5);
        replay.ingest_data(0, &synth_data(&cfg, 5, 2, 12));
        let run = || {
            let mut model = TlpModel::with_heads(cfg.clone(), 2).grow_head();
            let config = AdaptConfig::frozen(small_options(&cfg));
            adapt_round(&mut model, 2, &new_data, &replay, &config);
            let all: Vec<tlp_nn::ParamId> = model.store.ids().collect();
            param_bits(&model, &all)
        };
        let bits = run();
        assert_eq!(bits, run(), "a second run changed the result");
        // FNV-1a over the value bits (names excluded): the round's batch
        // stream and gradient mask are held to this number. First captured
        // at the last commit with a separate multi-task model type (PR 16);
        // re-captured when softmax moved to `tlp_nn::kernels::exp` (PR 20,
        // old → new in CHANGES.md).
        let digest = bits
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let want = 0xced1_b916_298f_aa00u64;
        assert_eq!(digest, want, "expected {want:#018x}, got {digest:#018x}");
    }
}
