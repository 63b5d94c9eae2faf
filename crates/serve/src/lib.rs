//! tlp-serve: a concurrent serving layer for TLP cost models.
//!
//! The tuning loop in `tlp-autotuner` owns a private [`InferenceEngine`]
//! per model — fine for one tuner, wasteful for many. In a tuning farm,
//! dozens of search processes score candidates against the *same* trained
//! model; giving each its own engine duplicates the model weights, splits
//! the score cache, and leaves batching efficiency on the floor because
//! each tuner's requests are small. This crate puts one server in front of
//! the engine and lets any number of clients share it:
//!
//! - **Dynamic batching** ([`server`]): client jobs land on a bounded
//!   queue as their extracted features; batcher threads coalesce jobs for
//!   the same `(model version, task)` into single engine batches under a
//!   [`BatchPolicy`] (`max_batch`/`max_wait`), so many small requests
//!   amortize into the engine's micro-batched parallel path. Scores are
//!   bit-identical to direct engine calls — batching is a throughput
//!   optimization, never a semantic one. A request whose every candidate is
//!   already cached never queues: admission (verify → fingerprint once →
//!   probe) answers it on the submitting thread.
//! - **Versioned hot-swap** ([`registry`]): models are installed by name
//!   from [`SavedTlp`] snapshots (or in-memory); [`ModelRegistry::install`]
//!   atomically replaces the current version, and a request is scored by
//!   the version that admitted it. Each version owns its own engine and
//!   score cache, so a swap can never mix scores across versions.
//! - **Admission control** ([`server`], [`error`]): a full queue rejects
//!   with [`ServeError::Overloaded`] *before* anything is extracted or
//!   enqueued (bounded memory),
//!   per-request deadlines expire with [`ServeError::DeadlineExceeded`],
//!   and [`Server::shutdown`] drains every admitted job before returning.
//! - **Observability** ([`stats`]): lock-free latency histograms
//!   (p50/p95/p99), queue/throughput counters, and per-model
//!   [`EngineStats`](tlp::EngineStats), all serializable to JSON.
//!
//! Integration point: [`RemoteCostModel`] adapts a [`ServeClient`] to the
//! autotuner's [`CostModel`](tlp_autotuner::CostModel) trait; a request
//! the server answers with an error degrades to an all-invalid batch.
//!
//! ```
//! use std::sync::Arc;
//! use tlp::engine::EngineConfig;
//! use tlp_serve::{ModelRegistry, ServeConfig, Server};
//!
//! let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
//! // registry.install("tlp-llvm", &snapshot)?;
//! let server = Server::start(registry, ServeConfig::default());
//! let client = server.client(); // Clone per client thread.
//! // client.score("tlp-llvm", &task, &candidates)?;
//! let final_stats = server.shutdown();
//! assert_eq!(final_stats.queue_depth, 0);
//! ```
//!
//! [`InferenceEngine`]: tlp::engine::InferenceEngine
//! [`SavedTlp`]: tlp::persist::SavedTlp

#![warn(clippy::disallowed_methods)]
#![warn(clippy::disallowed_types)] // std HashMap/HashSet ban: deterministic iteration only

pub mod backend;
pub mod error;
pub mod loadgen;
pub mod registry;
pub mod server;
pub mod stats;

pub use backend::RemoteCostModel;
pub use error::ServeError;
pub use loadgen::random_pool;
pub use registry::{ModelRegistry, ModelVersion};
pub use server::{BatchPolicy, PendingScore, ScoreReply, ServeClient, ServeConfig, Server};
pub use stats::{
    HistogramSnapshot, LatencyHistogram, ModelStatsSnapshot, ServeSnapshot, ServeStats,
};
