//! The end-to-end continual-learning loop.
//!
//! [`run_continual`] adapts a freshly grown head to a new hardware platform
//! from nothing but a stream of *fallible* measurements:
//!
//! 1. **Sample**: per round, draw fresh random candidates per tuning task
//!    (deduplicated by schedule fingerprint, seeded per `(round, task)`).
//! 2. **Measure**: run them through the fault-injecting [`Measurer`] on the
//!    new platform — transient build failures, timeouts, device resets, and
//!    noisy repeats under `FaultRates::uniform(FAULT_RATE)`. Failures yield
//!    no label and are simply skipped; the loop's accounting keeps them
//!    visible.
//! 3. **Label**: accumulate per-task latency pools and re-normalize labels
//!    (`min_latency / latency`) as new minima arrive.
//! 4. **Adapt**: one [`train_head`] run over the accumulated data; only the
//!    new head trains, so the trunk and every old head stay bitwise
//!    unchanged.
//! 5. **Publish**: optionally hand the model to a [`SnapshotPublisher`] for
//!    a canary-gated hot-swap into live serving.
//!
//! Forgetting is *measured*, not assumed: old-platform top-1 is evaluated on
//! the dataset's held-out tasks before the first round and after the last,
//! and the report carries the worst per-head drop in points.
//!
//! Every stochastic input — candidate sampling, fault injection, batch
//! shuffling — is derived from fixed seeds, so for a given config the whole
//! loop (measurements, labels, final parameters, metrics) is
//! bit-reproducible.

use crate::publish::SnapshotPublisher;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tlp::experiments::eval_head;
use tlp::features::FeatureBuf;
use tlp::persist::PersistError;
use tlp::train::{train_head, GroupData, TrainData};
use tlp::{FeatureExtractor, TlpModel, TrainOptions};
use tlp_autotuner::{Measurer, SearchTask, SketchPolicy};
use tlp_dataset::Dataset;
use tlp_hwsim::{DeviceKind, FaultModel, FaultRates};

/// Chaos rate of the new platform's measurer: it injects faults under
/// `FaultRates::uniform(FAULT_RATE)`, so 5 % of measurement attempts fail.
pub const FAULT_RATE: f64 = 0.05;

/// Knobs of the closed continual-learning loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContinualConfig {
    /// Measurement/adaptation rounds to run.
    pub rounds: usize,
    /// Fresh candidates measured per tuning task per round.
    pub per_task_candidates: usize,
    /// Tuning tasks sampled from the dataset's training tasks (`0` = all).
    pub max_tasks: usize,
    /// Training knobs of every adaptation round; each round re-derives the
    /// seed from this one and the round index.
    pub adapt: TrainOptions,
    /// Master seed for candidate sampling and fault injection.
    pub seed: u64,
}

/// Per-round progress of the loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundReport {
    /// 0-based round index.
    pub round: usize,
    /// Labelled new-platform samples accumulated so far.
    pub samples: usize,
    /// New-head top-1 on the dataset's held-out tasks after this round.
    pub new_top1: f64,
    /// Final training loss of this round's adaptation (0 if skipped).
    pub train_loss: f32,
}

/// The structured result of [`run_continual`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Per-round progress.
    pub rounds: Vec<RoundReport>,
    /// Measurements attempted (successes + failures).
    pub measurements: u64,
    /// Measurements that produced a usable label.
    pub measurements_ok: u64,
    /// Measurements that failed after retries.
    pub measurements_failed: u64,
    /// Retry attempts the measurer burned recovering from transient faults.
    pub retries: u64,
    /// Simulated seconds charged to measurement (compiles, runs, backoff).
    pub simulated_s: f64,
    /// Final new-head top-1 on held-out tasks.
    pub new_top1: f64,
    /// Final new-head top-5 on held-out tasks.
    pub new_top5: f64,
    /// Old-head top-1 scores before any adaptation, head order.
    pub baseline_old_top1: Vec<f64>,
    /// Old-head top-1 scores after the last round, head order.
    pub final_old_top1: Vec<f64>,
    /// Worst old-head top-1 drop, in points (`0` = no forgetting).
    pub forgetting_points: f64,
    /// Snapshots accepted into serving.
    pub published: usize,
    /// Snapshots rejected by the canary gate.
    pub rolled_back: usize,
}

/// Per-task accumulator of measured (features, latency) pairs.
struct TaskAccum {
    task: SearchTask,
    /// Schedule fingerprints already measured (dedup across rounds).
    seen: BTreeSet<u64>,
    /// Row-major features of successfully measured schedules.
    features: Vec<f32>,
    /// Latencies aligned with `features` rows.
    latencies: Vec<f64>,
}

/// Runs the closed continual-learning loop. See the module docs for the
/// round structure.
///
/// `model` must already be grown ([`TlpModel::grow_head`]): its last head is
/// the one adapted, and `ds.platforms` must carry one latency column per
/// head with the new platform last. `publisher` (optional) receives the
/// model after every round.
///
/// # Errors
///
/// Returns [`PersistError::Invalid`] when the grown model fails the entry
/// check ([`tlp_modelcheck::check`]); propagates
/// [`PersistError`] from snapshot publishing.
///
/// # Panics
///
/// Panics if the dataset platform count disagrees with the model's head
/// count, or on feature-shape mismatches (see [`train_head`]).
pub fn run_continual(
    model: &mut TlpModel,
    extractor: &FeatureExtractor,
    ds: &Dataset,
    config: &ContinualConfig,
    mut publisher: Option<&mut SnapshotPublisher>,
) -> Result<AdaptReport, PersistError> {
    let n_heads = model.num_tasks();
    assert_eq!(
        ds.platforms.len(),
        n_heads,
        "one dataset platform column per head (new platform last)"
    );
    assert!(n_heads >= 2, "need at least one old head and the new head");
    // Entry check: refuse a broken starting point instead of adapting it
    // for hours (read-only and RNG-neutral on a valid model).
    let layout = TlpModel::with_heads(model.config.clone(), n_heads).store;
    tlp_modelcheck::check(&layout, &model.store).map_err(PersistError::Invalid)?;
    let new_head = n_heads - 1;
    let new_platform = &ds.platforms[new_head];

    let baseline_old_top1: Vec<f64> = (0..new_head)
        .map(|i| eval_head(model, extractor, ds, i, i).0)
        .collect();

    let gpu = new_platform.device == DeviceKind::Gpu;
    let policy = if gpu {
        SketchPolicy::gpu()
    } else {
        SketchPolicy::cpu()
    };
    let mut measurer = Measurer::with_faults(
        gpu,
        FaultModel::for_platform(config.seed, FaultRates::uniform(FAULT_RATE), new_platform),
    );

    let take = if config.max_tasks == 0 {
        usize::MAX
    } else {
        config.max_tasks
    };
    let mut accums: Vec<TaskAccum> = ds
        .train_tasks()
        .take(take)
        .map(|t| TaskAccum {
            task: SearchTask::new(t.subgraph.clone(), new_platform.clone()),
            seen: BTreeSet::new(),
            features: Vec::new(),
            latencies: Vec::new(),
        })
        .collect();

    let fs = extractor.feature_size();
    let mut buf = FeatureBuf::new();
    let mut rounds = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        // 1–3: sample fresh candidates, measure them through the fault
        // model, accumulate labels for the survivors.
        for (ti, acc) in accums.iter_mut().enumerate() {
            let mut rng = SmallRng::seed_from_u64(
                config.seed
                    ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (ti as u64).wrapping_mul(0xa24b_aed4_963e_e407),
            );
            let sketch = policy.compile(&acc.task.subgraph);
            let mut fresh = 0usize;
            // Dedup can stall on tiny decision spaces; bound the draws.
            let mut draws = 0usize;
            while fresh < config.per_task_candidates
                && draws < config.per_task_candidates.saturating_mul(8)
            {
                draws += 1;
                let cand = sketch.random_candidate(&mut rng);
                if !acc.seen.insert(cand.sequence.fingerprint()) {
                    continue;
                }
                fresh += 1;
                if let Ok(latency) = measurer.measure(&acc.task, &cand.sequence) {
                    extractor.extract_batch_into(std::slice::from_ref(&cand.sequence), &mut buf);
                    acc.features.extend_from_slice(buf.data());
                    acc.latencies.push(latency);
                }
                // Failures carry no label; the measurer's counters record
                // them and the report surfaces the totals.
            }
        }
        let groups: Vec<GroupData> = accums
            .iter()
            .filter(|a| a.latencies.len() >= 2)
            .map(|a| {
                let min = a.latencies.iter().fold(f64::INFINITY, |m, &l| m.min(l));
                GroupData {
                    features: a.features.clone(),
                    labels: a.latencies.iter().map(|&l| (min / l) as f32).collect(),
                }
            })
            .collect();
        let new_data = TrainData {
            feature_size: fs,
            groups,
        };

        // 4: adapt on everything measured so far (groups of ≥ 2 labels).
        let mut train_loss = 0.0f32;
        if new_data.num_samples() >= 4 {
            let options = config.adapt.clone().with_seed(
                config
                    .adapt
                    .seed
                    .wrapping_add((round as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)),
            );
            let report = train_head(model, new_head, &new_data, &options);
            train_loss = report.final_loss();
        }

        let (new_top1, _) = eval_head(model, extractor, ds, new_head, new_head);

        // 5: canary-gated hot-swap into serving.
        if let Some(p) = publisher.as_deref_mut() {
            p.publish(model, extractor)?;
        }

        rounds.push(RoundReport {
            round,
            samples: accums.iter().map(|a| a.latencies.len()).sum(),
            new_top1,
            train_loss,
        });
    }

    let (new_top1, new_top5) = eval_head(model, extractor, ds, new_head, new_head);
    let final_old_top1: Vec<f64> = (0..new_head)
        .map(|i| eval_head(model, extractor, ds, i, i).0)
        .collect();
    let forgetting_points = baseline_old_top1
        .iter()
        .zip(&final_old_top1)
        .map(|(b, f)| (b - f) * 100.0)
        .fold(0.0f64, f64::max);
    let (published, rolled_back) = match publisher {
        Some(p) => (p.published(), p.rolled_back()),
        None => (0, 0),
    };
    Ok(AdaptReport {
        rounds,
        measurements: measurer.count,
        measurements_ok: measurer.count - measurer.count_failed,
        measurements_failed: measurer.count_failed,
        retries: measurer.retries,
        simulated_s: measurer.clock.simulated_s,
        new_top1,
        new_top5,
        baseline_old_top1,
        final_old_top1,
        forgetting_points,
        published,
        rolled_back,
    })
}
