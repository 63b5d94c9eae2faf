//! `tlp-autotuner` — an Ansor-like automatic schedule search framework for
//! the TLP (ASPLOS 2023) reproduction.
//!
//! The framework mirrors Ansor's structure (paper §2, §6.3):
//!
//! - [`SketchPolicy`]: hierarchical sketch generation (multi-level "SSRSRS"
//!   tiling on CPU, thread-bound tiles on GPU) with random annotations,
//!   mutation and crossover, compiled once per task into a [`Sketch`] that
//!   writes each candidate's sequence in place;
//! - [`CostModel`]: the pluggable cost-model interface ([`RandomModel`] is
//!   the no-model baseline; TLP / TenSet-MLP / GBDT models live in the `tlp`
//!   crate);
//! - [`Searcher`]: cost-model-guided evolution over candidates, returning a
//!   [`SearchOutcome`] of ranked candidates plus [`SearchStats`] accounting;
//! - [`DraftScorer`]: the near-free draft half of draft-then-verify search
//!   — a small per-task head distilled online from the full model's own
//!   scores ranks every pool, and the full model verifies the slice
//!   [`EvolutionConfig::speculative`] sizes (a quarter by default;
//!   `draft_keep: 1.0` scores everything);
//! - [`Measurer`]: "hardware" measurement against the simulator, charging
//!   simulated search time — fault-tolerant via typed [`MeasureError`]s,
//!   bounded retry with backoff, and MAD-median outlier rejection when a
//!   [`FaultModel`](tlp_hwsim::FaultModel) injects failures;
//! - [`tune_network`]: the full tuning loop with the task scheduler,
//!   producing a [`TuningReport`] of tuning curves and best latencies.
//!
//! # Example
//!
//! ```
//! use tlp_autotuner::{tune_network, RandomModel, TuningOptions, EvolutionConfig};
//! use tlp_hwsim::Platform;
//! use tlp_workload::bert_tiny;
//!
//! let net = bert_tiny(1, 64);
//! let mut model = RandomModel::new(1);
//! let opts = TuningOptions {
//!     rounds: net.num_tasks(),
//!     programs_per_round: 2,
//!     evolution: EvolutionConfig { population: 8, generations: 1, ..Default::default() },
//!     seed: 7,
//!     ..TuningOptions::default()
//! };
//! let report = tune_network(&net, &Platform::i7_10510u(), &mut model, &opts);
//! assert!(report.final_latency_s().is_finite());
//! ```

#![warn(clippy::disallowed_methods)] // unwrap/expect ban in non-test lib code (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)
#![warn(missing_docs)]

pub mod cost_model;
pub mod draft;
pub mod evolutionary;
pub mod measure;
pub mod sketch;
pub mod task;
pub mod tuner;

pub use cost_model::{
    check_update_shape, BatchStats, CostModel, PipelineCost, RandomModel, ScoreBatch, ScoreRequest,
    UpdateError,
};
pub use draft::{DraftScorer, SpecConfig};
pub use evolutionary::{EvolutionConfig, SearchOutcome, SearchStats, Searcher};
pub use measure::{FailureCounts, MeasureError, MeasureRecord, Measurer, MAX_RETRIES};
pub use sketch::{Candidate, ScheduleDecision, Sketch, SketchPolicy, UNROLL_STEPS};
pub use task::SearchTask;
pub use tuner::{tune_network, tune_network_with_draft, RoundLog, TuningOptions, TuningReport};
