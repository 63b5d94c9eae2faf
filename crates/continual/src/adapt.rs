//! Replay-mixed head adaptation on top of the shared training loop,
//! [`tlp::trainer::fit`].
//!
//! [`adapt_round`] is *not* a new training loop: it hands `tlp`'s one
//! head-routed task ([`train_head`]) a slot list — the new platform's
//! groups, then the replay items through their original heads — inheriting
//! the trainer's bitwise-deterministic step, LR schedule and clipping.
//!
//! Only the adapting head trains. The trainer zeroes every other gradient
//! after the backward pass, before the norm/clip/step, and Adam with zero
//! weight decay takes a bitwise no-op step on a zero-gradient parameter
//! (moments stay zero, delta is zero). So the trunk *and* every old head are
//! **bitwise unchanged** by adaptation, and old-platform forgetting is
//! exactly zero. A replay batch routes through its old head, so its whole
//! gradient is zeroed: it moves no parameter, it only advances Adam's step
//! count (and with it the new head's momentum).

use crate::replay::ReplayBuffer;
use tlp::train::{train_head, TrainData};
use tlp::{TlpModel, TrainOptions, TrainReport};

/// Runs one adaptation round: trains head `head` alone on `new_data` mixed
/// with `replay`, using the shared deterministic [`tlp::trainer::fit`] with
/// `options`.
///
/// Returns the trainer's [`TrainReport`]. For fixed options the round is
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
    options: &TrainOptions,
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
    train_head(model, head, slots, options)
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
        let report = adapt_round(
            &mut model,
            new_head,
            &new_data,
            &replay,
            &small_options(&cfg),
        );
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
    fn replay_only_round_is_a_bitwise_no_op() {
        // Replay routes through the old heads, whose gradients are zeroed
        // like the trunk's, and each round starts a fresh Adam: zero moments
        // give a zero delta everywhere, the new head included.
        let cfg = TlpConfig::test_scale();
        let mut model = TlpModel::with_heads(cfg.clone(), 2).grow_head();
        let all: Vec<tlp_nn::ParamId> = model.store.ids().collect();
        let before = param_bits(&model, &all);
        let mut replay = ReplayBuffer::stratified(2, 3);
        replay.ingest_data(0, &synth_data(&cfg, 7, 2, 12));
        replay.ingest_data(1, &synth_data(&cfg, 8, 2, 12));
        let empty = synth_data(&cfg, 9, 0, 0);
        let report = adapt_round(&mut model, 2, &empty, &replay, &small_options(&cfg));
        assert!(report.samples > 0, "replay batches ran");
        assert_eq!(param_bits(&model, &all), before, "replay moved a parameter");
    }

    #[test]
    fn adaptation_reproduces_the_pinned_digest() {
        let cfg = TlpConfig::test_scale();
        let new_data = synth_data(&cfg, 4, 3, 16);
        let mut replay = ReplayBuffer::stratified(3, 5);
        replay.ingest_data(0, &synth_data(&cfg, 5, 2, 12));
        let run = || {
            let mut model = TlpModel::with_heads(cfg.clone(), 2).grow_head();
            adapt_round(&mut model, 2, &new_data, &replay, &small_options(&cfg));
            let all: Vec<tlp_nn::ParamId> = model.store.ids().collect();
            param_bits(&model, &all)
        };
        let bits = run();
        assert_eq!(bits, run(), "a second run changed the result");
        // FNV-1a over the value bits (names excluded): the round's batch
        // stream and frozen set are held to this number. First captured
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
