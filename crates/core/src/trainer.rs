//! The training engine behind every training loop.
//!
//! [`fit`] is the only place in the workspace that owns an optimizer: TLP
//! (any head count), TenSet-MLP, LM pretraining, rank fine-tuning and
//! continual adaptation are each a [`Trainable`] batch provider, so the
//! learning-rate schedule, gradient clipping and epoch accounting live in
//! exactly one place. The rank-loss providers also share one batch stream,
//! [`grouped_batches`].
//!
//! # Optimizer step
//!
//! A step is one micro-batch, run on the calling thread over one reused
//! [`Workspace`] (the tape and parameter-leaf binding are reset, not
//! reallocated, between steps): loss → backward → harvest the gradients
//! into the [`ParamStore`] → [`Trainable::postprocess_grads`] → record the
//! pre-clip gradient norm → clip → one Adam step.

use crate::config::LossKind;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use tlp_nn::{lambda_rank_loss, mse_loss, Adam, Graph, LrSchedule, ParamStore, Var, Workspace};

use crate::config::TlpConfig;

/// Global gradient-norm clip applied before every optimizer step — one value
/// for every model in the workspace, so the TLP / TenSet-MLP comparisons run
/// under the same recipe.
const GRAD_CLIP: f32 = 5.0;

/// Shared training knobs consumed by [`fit`].
///
/// The config-driven entry points (`train_tlp` etc.) derive their options
/// from the model's [`TlpConfig`] via [`TrainOptions::from_config`]; the
/// `*_with` variants accept explicit options.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Micro-batch size (rank loss groups micro-batches by task).
    pub batch_size: usize,
    /// Base Adam learning rate.
    pub learning_rate: f32,
    /// Per-epoch learning-rate schedule applied to the base rate.
    pub lr_schedule: LrSchedule,
    /// Seed for the batch-shuffling RNG (weight init is the model's own
    /// seed; the config-driven wrappers each salt this with their own
    /// constant, which pins their batch streams).
    pub seed: u64,
}

impl TrainOptions {
    /// The paper's recipe for `config`: a fixed number of epochs with
    /// `0.9^epoch` LR decay. Callers that differ override fields of this.
    pub fn from_config(config: &TlpConfig) -> Self {
        TrainOptions {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            lr_schedule: LrSchedule::paper_decay(),
            seed: config.seed,
        }
    }

    /// Sets the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the micro-batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the shuffling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the base learning rate.
    pub fn with_learning_rate(mut self, learning_rate: f32) -> Self {
        self.learning_rate = learning_rate;
        self
    }
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions::from_config(&TlpConfig::default())
    }
}

/// Why a training run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Every configured epoch ran.
    Completed,
    /// The batch provider produced no trainable micro-batches.
    NoData,
}

/// Per-epoch training statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochReport {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean loss over the epoch's micro-batches.
    pub train_loss: f32,
    /// Learning rate the schedule chose for this epoch.
    pub learning_rate: f32,
    /// Mean pre-clip global gradient norm over the epoch's optimizer steps.
    pub grad_norm: f32,
    /// Wall-clock seconds spent in the epoch.
    pub wall_s: f64,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Training samples consumed.
    pub samples: usize,
}

/// The structured result of a training run — what `train_tlp`, `train_mtl`,
/// `pretrain`, and `fine_tune` return instead of a bare `Vec<f32>`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// One entry per completed epoch.
    pub epochs: Vec<EpochReport>,
    /// Why the run ended.
    pub stop: StopReason,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Total training samples consumed across all epochs.
    pub samples: usize,
}

impl TrainReport {
    /// Per-epoch mean training losses.
    pub fn epoch_losses(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.train_loss).collect()
    }

    /// The final epoch's mean training loss (`0.0` for an empty run).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.train_loss)
    }

    /// Training throughput over the whole run.
    pub fn samples_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.samples as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A training task [`fit`] can drive: a batch provider plus a loss.
/// Implementations exist for TLP's `(head, group)` interleaved slots (any
/// head count), TenSet-MLP, LM pretraining corpora, and rank fine-tuning.
pub trait Trainable {
    /// One self-contained micro-batch.
    type Batch;

    /// The parameters being trained.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the gradient harvest and the optimizer step.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Builds the epoch's shuffled micro-batch stream. Implementations must
    /// draw shuffles from `rng` exactly like the loop they replaced so
    /// fixed-seed runs reproduce historical batch streams.
    fn epoch_batches(&self, rng: &mut SmallRng) -> Vec<Self::Batch>;

    /// Sample count of a micro-batch (throughput accounting).
    fn batch_samples(&self, batch: &Self::Batch) -> usize;

    /// Builds the loss node for one micro-batch on a reset workspace.
    fn loss(&self, ws: &mut Workspace, batch: &Self::Batch) -> Var;

    /// Hook invoked once per optimizer step, after the backward pass but
    /// before the norm is recorded, clipping is applied, and Adam steps.
    /// The default does nothing — the historical training loops are bitwise
    /// unaffected.
    ///
    /// Implementations may zero or rescale per-parameter gradients through
    /// [`tlp_nn::ParamStore::grad_mut`]. Continual adaptation uses this to
    /// freeze everything but the new head (zeroing a gradient every step
    /// keeps Adam's moments at zero, so the frozen parameter is bitwise
    /// unchanged).
    fn postprocess_grads(&mut self) {}
}

/// Trains `task` in place under `options` and reports per-epoch
/// statistics. See the module docs for the execution model.
pub fn fit(options: &TrainOptions, task: &mut impl Trainable) -> TrainReport {
    let mut opt = Adam::new(options.learning_rate);
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let t0 = Instant::now();
    let mut ws = Workspace::new();

    let mut epochs: Vec<EpochReport> = Vec::with_capacity(options.epochs);
    let mut total_steps = 0usize;
    let mut total_samples = 0usize;

    for epoch in 0..options.epochs {
        let e0 = Instant::now();
        let lr = options.lr_schedule.lr_at(options.learning_rate, epoch);
        opt.set_learning_rate(lr);
        let batches = task.epoch_batches(&mut rng);

        let steps = batches.len();
        let mean = |sum: f64| {
            if steps > 0 {
                (sum / steps as f64) as f32
            } else {
                0.0
            }
        };
        let mut loss_sum = 0.0f64;
        let mut norm_sum = 0.0f64;
        let mut samples = 0usize;
        for batch in &batches {
            ws.reset();
            let loss = task.loss(&mut ws, batch);
            ws.graph.backward(loss);
            ws.bind.harvest(&ws.graph, task.store_mut());
            loss_sum += ws.graph.value(loss).item() as f64;
            samples += task.batch_samples(batch);
            task.postprocess_grads();
            norm_sum += task.store().grad_norm() as f64;
            task.store_mut().clip_grad_norm(GRAD_CLIP);
            opt.step(task.store_mut());
        }
        total_steps += steps;
        total_samples += samples;
        epochs.push(EpochReport {
            epoch,
            train_loss: mean(loss_sum),
            learning_rate: lr,
            grad_norm: mean(norm_sum),
            wall_s: e0.elapsed().as_secs_f64(),
            steps,
            samples,
        });
    }

    TrainReport {
        epochs,
        stop: if total_steps == 0 {
            StopReason::NoData
        } else {
            StopReason::Completed
        },
        wall_s: t0.elapsed().as_secs_f64(),
        samples: total_samples,
    }
}

/// The TLP training loss over a scored micro-batch: LambdaRank, or
/// sigmoid-squashed MSE (monotone, so prediction-time rankings are
/// unaffected).
pub(crate) fn scored_loss(
    g: &mut Graph,
    scores: Var,
    labels: &[f32],
    loss: LossKind,
    seq_len: usize,
) -> Var {
    match loss {
        LossKind::Rank => lambda_rank_loss(g, scores, labels),
        LossKind::Mse => {
            let scaled = g.scale(scores, 1.0 / seq_len as f32);
            let squashed = g.sigmoid(scaled);
            mse_loss(g, squashed, labels)
        }
    }
}

/// The grouped rank-loss batch stream every task-grouped [`Trainable`]
/// draws from: shuffles the slots, then each slot's `0..len` sample indices
/// as its turn comes, and emits `(slot, indices)` once per `batch_size`
/// chunk. LambdaRank compares samples of one group only, so a batch never
/// crosses slots, and a one-sample chunk (or slot) carries no ranking signal
/// and is dropped. Callers build the slot list — that, the seed and this
/// draw order are what pin their trained weights.
pub fn grouped_batches(
    slot_lens: &[usize],
    batch_size: usize,
    rng: &mut SmallRng,
    mut emit: impl FnMut(usize, &[usize]),
) {
    let mut slots: Vec<usize> = (0..slot_lens.len()).collect();
    slots.shuffle(rng);
    for slot in slots {
        let mut order: Vec<usize> = (0..slot_lens[slot]).collect();
        order.shuffle(rng);
        for chunk in order.chunks(batch_size).filter(|c| c.len() >= 2) {
            emit(slot, chunk);
        }
    }
}

/// Copies the rows of `idx` out of a row-major feature/label group.
pub(crate) fn gather_rows(
    features: &[f32],
    labels: &[f32],
    fs: usize,
    idx: &[usize],
) -> (Vec<f32>, Vec<f32>) {
    let mut f = Vec::with_capacity(idx.len() * fs);
    let mut l = Vec::with_capacity(idx.len());
    for &i in idx {
        f.extend_from_slice(&features[i * fs..(i + 1) * fs]);
        l.push(labels[i]);
    }
    (f, l)
}
