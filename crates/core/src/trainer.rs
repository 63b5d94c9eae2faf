//! The training engine behind every training loop.
//!
//! [`Trainer::fit`] is the only place in the workspace that owns an
//! optimizer: TLP (any head count), TenSet-MLP, LM pretraining, rank
//! fine-tuning and continual adaptation are each a [`Trainable`] batch
//! provider, so the learning-rate schedule, gradient clipping,
//! checkpointing and epoch accounting live in exactly one place. The
//! rank-loss providers also share one batch stream, [`grouped_batches`].
//!
//! # Optimizer step
//!
//! A step is one micro-batch, run on the calling thread over one reused
//! [`Workspace`] (the tape and parameter-leaf binding are reset, not
//! reallocated, between steps): loss → backward → harvest the gradients
//! into the [`ParamStore`] → [`Trainable::postprocess_grads`] → record the
//! pre-clip gradient norm → clip → one Adam step.

use crate::config::LossKind;
use crate::persist::{atomic_write, PersistError};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tlp_modelcheck::{Code, CoverageSpec, Diagnostic, Severity};
use tlp_nn::{lambda_rank_loss, mse_loss, Adam, Graph, LrSchedule, ParamStore, Var, Workspace};

use crate::config::TlpConfig;

/// Global gradient-norm clip applied before every optimizer step — one value
/// for every model in the workspace, so the TLP / TenSet-MLP comparisons run
/// under the same recipe.
const GRAD_CLIP: f32 = 5.0;

/// Shared training knobs consumed by [`Trainer`].
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
    /// Checkpoints spilled to disk during the run (0 unless
    /// [`Trainer::with_checkpointing`] is configured).
    pub checkpoints_written: usize,
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

/// A training task the generic [`Trainer`] can drive: a batch provider plus
/// a loss. Implementations exist for TLP's `(head, group)` interleaved slots
/// (any head count), LM pretraining corpora, and rank fine-tuning.
///
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
    fn epoch_batches(&self, epoch: usize, rng: &mut SmallRng) -> Vec<Self::Batch>;

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
    /// freeze the shared trunk (zeroing a gradient every step keeps Adam's
    /// moments at zero, so the frozen parameter is bitwise unchanged) or to
    /// run the trunk at a reduced effective learning rate.
    fn postprocess_grads(&mut self) {}

    /// Declares the task's training objective for the `tlp-modelcheck`
    /// gradient-coverage pass (M4xx): which heads the loss reaches and
    /// which parameters `postprocess_grads` freezes. `None` (the default)
    /// skips the check — for tasks whose stores don't follow the TLP
    /// trunk/head naming scheme.
    fn coverage(&self) -> Option<CoverageSpec> {
        None
    }
}

/// Format tag written into every [`TrainCheckpoint`] file.
///
/// History: 1 = initial layout; 2 = a one-head TLP model's store names its
/// head like every other head; 3 = no early-stopping state. An older
/// checkpoint fails with [`PersistError::Version`].
pub const TRAIN_CHECKPOINT_FORMAT_VERSION: u32 = 3;

/// A crash-safe snapshot of a [`Trainer::fit`] run after a whole number of
/// epochs: parameters, Adam moments, and epoch reports. Written
/// periodically by [`Trainer::with_checkpointing`] via a sibling tempfile +
/// atomic rename (a crash mid-spill can never corrupt the previous
/// checkpoint), and consumed by [`Trainer::resume_from`].
///
/// The shuffling RNG is *not* serialized: `SmallRng` exposes no state
/// accessors. Resume instead replays [`Trainable::epoch_batches`] for the
/// completed epochs, which consumes the stream identically — so a resumed
/// run draws exactly the batches the uninterrupted run would have, and
/// finishes with bitwise-identical parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Snapshot format tag; see [`TRAIN_CHECKPOINT_FORMAT_VERSION`].
    format_version: u32,
    /// Epochs fully completed when the snapshot was taken.
    pub epochs_done: usize,
    /// Shuffling seed of the interrupted run; [`Trainer::resume_from`]
    /// refuses a checkpoint whose seed differs from its own options.
    pub seed: u64,
    /// The trained parameters after `epochs_done` epochs.
    pub store: ParamStore,
    /// Optimizer state (Adam moments and step count).
    pub optimizer: Adam,
    /// Per-epoch reports for the completed epochs.
    pub reports: Vec<EpochReport>,
    /// Optimizer steps taken so far.
    pub total_steps: usize,
    /// Training samples consumed so far.
    pub total_samples: usize,
}

impl TrainCheckpoint {
    /// Writes the checkpoint as JSON via tempfile + atomic rename.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or serialization failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let body = serde_json::to_string(self)?;
        atomic_write(path.as_ref(), &body)?;
        Ok(())
    }

    /// Reads and version-checks a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem failure, version mismatch, or
    /// deserialization failure (e.g. a truncated or corrupted file).
    pub fn load(path: impl AsRef<Path>) -> Result<TrainCheckpoint, PersistError> {
        let body = std::fs::read_to_string(path)?;
        let tree: serde::Value = serde_json::from_str(&body)?;
        let found = tree
            .get("format_version")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0) as u32;
        if found != TRAIN_CHECKPOINT_FORMAT_VERSION {
            return Err(PersistError::Version {
                found,
                expected: TRAIN_CHECKPOINT_FORMAT_VERSION,
            });
        }
        serde::Deserialize::deserialize_value(&tree)
            .map_err(|e| PersistError::Format(serde_json::Error::from(e)))
    }

    /// The checkpoint's format version tag.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }
}

/// The generic training engine. See the module docs for the execution model.
#[derive(Clone, Debug)]
pub struct Trainer {
    options: TrainOptions,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: usize,
}

impl Trainer {
    /// Creates a trainer with the given options.
    pub fn new(options: TrainOptions) -> Self {
        Trainer {
            options,
            checkpoint_path: None,
            checkpoint_every: 1,
        }
    }

    /// The trainer's options.
    pub fn options(&self) -> &TrainOptions {
        &self.options
    }

    /// Enables periodic checkpoint spills: after every `every_epochs`
    /// completed epochs (and after the final one) a [`TrainCheckpoint`] is
    /// written to `path` atomically. A spill failure is reported on stderr
    /// and training continues — crash safety must not break training.
    pub fn with_checkpointing(mut self, path: impl Into<PathBuf>, every_epochs: usize) -> Self {
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = every_epochs.max(1);
        self
    }

    /// Resumes an interrupted run from a [`TrainCheckpoint`] and trains to
    /// this trainer's configured epoch count. Parameters, optimizer
    /// moments, and the shuffle RNG stream are all restored, so the
    /// continued run is bitwise-identical to one that was never interrupted
    /// (same options required).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the checkpoint cannot be read, its
    /// recorded seed differs from this trainer's options (which would
    /// silently break the bit-identical-resume guarantee), or its store does
    /// not have the task's parameter layout ([`PersistError::Invalid`] with
    /// M101 / M102 / M103 diagnostics; the task is left untouched).
    pub fn resume_from<T: Trainable>(
        &self,
        task: &mut T,
        path: impl AsRef<Path>,
    ) -> Result<TrainReport, PersistError> {
        let ckpt = TrainCheckpoint::load(path)?;
        if ckpt.seed != self.options.seed {
            return Err(PersistError::SeedMismatch {
                found: ckpt.seed,
                expected: self.options.seed,
            });
        }
        check_layout(task.store(), &ckpt.store)?;
        Ok(self.fit_inner(task, Some(ckpt)))
    }

    /// Trains `task` in place and reports per-epoch statistics.
    pub fn fit<T: Trainable>(&self, task: &mut T) -> TrainReport {
        self.fit_inner(task, None)
    }

    /// The shared training loop: a fresh run when `resume` is `None`,
    /// otherwise a continuation that first restores the checkpoint's state.
    fn fit_inner<T: Trainable>(
        &self,
        task: &mut T,
        resume: Option<TrainCheckpoint>,
    ) -> TrainReport {
        let o = &self.options;
        // A mask that silently trains nothing or strands a trainable
        // parameter is a bug, not a run to complete (read-only, RNG-neutral).
        if let Some(cov) = task.coverage() {
            let report = tlp_modelcheck::check_coverage(task.store(), &cov);
            assert!(
                !report.has_errors(),
                "training objective fails gradient-coverage audit:\n{report}"
            );
        }
        let mut opt = Adam::new(o.learning_rate);
        let mut rng = SmallRng::seed_from_u64(o.seed);
        let t0 = Instant::now();
        let mut ws = Workspace::new();

        let mut epochs: Vec<EpochReport> = Vec::with_capacity(o.epochs);
        let mut total_steps = 0usize;
        let mut total_samples = 0usize;
        let mut start_epoch = 0usize;
        let mut checkpoints_written = 0usize;

        if let Some(ckpt) = resume {
            start_epoch = ckpt.epochs_done.min(o.epochs);
            *task.store_mut() = ckpt.store;
            opt = ckpt.optimizer;
            total_steps = ckpt.total_steps;
            total_samples = ckpt.total_samples;
            epochs = ckpt.reports;
            // Replay the shuffle stream for the completed epochs so the
            // continuation draws exactly the batches an uninterrupted run
            // would have (SmallRng state itself is not serializable).
            for e in 0..start_epoch {
                let _ = task.epoch_batches(e, &mut rng);
            }
        }

        for epoch in start_epoch..o.epochs {
            let e0 = Instant::now();
            let lr = o.lr_schedule.lr_at(o.learning_rate, epoch);
            opt.set_learning_rate(lr);
            let batches = task.epoch_batches(epoch, &mut rng);

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

            if let Some(path) = &self.checkpoint_path {
                let done = epoch + 1;
                if done % self.checkpoint_every == 0 || done == o.epochs {
                    let ckpt = TrainCheckpoint {
                        format_version: TRAIN_CHECKPOINT_FORMAT_VERSION,
                        epochs_done: done,
                        seed: o.seed,
                        store: task.store().clone(),
                        optimizer: opt.clone(),
                        reports: epochs.clone(),
                        total_steps,
                        total_samples,
                    };
                    match ckpt.save(path) {
                        Ok(()) => checkpoints_written += 1,
                        Err(e) => eprintln!(
                            "trainer: checkpoint spill to {} failed: {e}",
                            path.display()
                        ),
                    }
                }
            }
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
            checkpoints_written,
        }
    }
}

/// A checkpoint is outside input and the model addresses its parameters by
/// position, so before anything is installed the checkpoint's store must
/// list the task's own `(name, shape)` pairs in the task's order.
fn check_layout(own: &ParamStore, found: &ParamStore) -> Result<(), PersistError> {
    let error =
        |code, name: &str, message: String| Diagnostic::at(code, Severity::Error, name, message);
    let missing = |id| {
        let shape = own.value(id).shape();
        let message = format!("the model expects it here (shape {shape:?})");
        error(Code::MissingParam, own.name(id), message)
    };
    let orphan = |id| {
        let shape = found.value(id).shape();
        let message = format!("the model has no such parameter here (shape {shape:?})");
        error(Code::OrphanParam, found.name(id), message)
    };
    let mut diagnostics = Vec::new();
    let (mut own_ids, mut found_ids) = (own.ids(), found.ids());
    loop {
        match (own_ids.next(), found_ids.next()) {
            (None, None) => break,
            (Some(o), None) => diagnostics.push(missing(o)),
            (None, Some(f)) => diagnostics.push(orphan(f)),
            (Some(o), Some(f)) if own.name(o) != found.name(f) => {
                diagnostics.extend([missing(o), orphan(f)]);
            }
            (Some(o), Some(f)) => {
                let (want, got) = (own.value(o).shape(), found.value(f).shape());
                if want != got {
                    let message = format!("the model holds shape {want:?}, the checkpoint {got:?}");
                    diagnostics.push(error(Code::ShapeMismatch, own.name(o), message));
                }
            }
        }
    }
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(PersistError::Invalid { diagnostics })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_load_rejects_corrupt_and_misversioned_files() {
        let path = std::env::temp_dir().join("tlp_train_ckpt_corrupt.json");
        std::fs::write(&path, "{\"format_ver").expect("write");
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(PersistError::Format(_))
        ));
        std::fs::write(&path, "{\"format_version\": 9999}").expect("write");
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(PersistError::Version { found: 9999, .. })
        ));
        // What the previous format wrote, early-stopping state included.
        let v2 = "{\"format_version\": 2, \"epochs_done\": 1, \"seed\": 42, \"best\": null, \"bad_epochs\": 0}";
        std::fs::write(&path, v2).expect("write");
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(PersistError::Version {
                found: 2,
                expected: 3
            })
        ));
        assert!(matches!(
            TrainCheckpoint::load("/nonexistent/ckpt.json"),
            Err(PersistError::Io(_))
        ));
        let _ = std::fs::remove_file(path);
    }

    /// Two heads over a shared trunk whose objective only reaches head 0.
    struct StrandedHead(ParamStore);

    impl Trainable for StrandedHead {
        type Batch = ();

        fn store(&self) -> &ParamStore {
            &self.0
        }
        fn store_mut(&mut self) -> &mut ParamStore {
            &mut self.0
        }
        fn epoch_batches(&self, _epoch: usize, _rng: &mut SmallRng) -> Vec<()> {
            Vec::new()
        }
        fn batch_samples(&self, _batch: &()) -> usize {
            0
        }
        fn loss(&self, _ws: &mut Workspace, _batch: &()) -> Var {
            unreachable!("the coverage audit rejects the objective before any batch")
        }
        fn coverage(&self) -> Option<CoverageSpec> {
            Some(CoverageSpec {
                head_prefixes: vec!["head0.".to_string(), "head1.".to_string()],
                trained: tlp_modelcheck::TrainedHeads::Heads(vec![0]),
                frozen: Vec::new(),
            })
        }
    }

    #[test]
    #[should_panic(expected = "gradient-coverage audit")]
    fn fit_rejects_an_objective_that_strands_a_trainable_parameter() {
        let mut store = ParamStore::new();
        for name in ["backbone.w", "head0.w", "head1.w"] {
            store.add(name, tlp_nn::Tensor::zeros(&[2]));
        }
        Trainer::new(TrainOptions::default()).fit(&mut StrandedHead(store));
    }
}
