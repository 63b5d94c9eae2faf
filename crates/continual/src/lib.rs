//! `tlp-continual` — cross-hardware continual learning for MTL-TLP.
//!
//! The paper's MTL-TLP (§5) trains one head per hardware platform *offline*,
//! on a complete multi-platform collection. This crate closes the loop for
//! the platform you did **not** collect for: it grows a fresh head on a
//! trained model ([`tlp::TlpModel::grow_head`]) and adapts it online from
//! streamed measurements, while the model keeps serving its old platforms.
//!
//! Adaptation trains the new head alone, on nothing but the new platform's
//! measured groups, through the existing bitwise-deterministic training
//! loop ([`tlp::train::train_head`] over [`tlp::trainer::fit`]), not a new
//! one. The trunk and every old head have their gradients zeroed in the
//! trainer's `postprocess_grads` hook, so old platforms are provably
//! bitwise-invariant (forgetting is exactly zero) and the clipping and Adam
//! step stay byte-for-byte the shared code path.
//!
//! The subsystem has two parts, one per module:
//!
//! - [`publish`]: a [`SnapshotPublisher`] emits versioned
//!   [`tlp::persist::SavedTlp`] snapshots after every round, hot-swaps them
//!   into a live [`tlp_serve::ModelRegistry`] (the atomic-`Arc` swap — a
//!   request is scored by the version that admitted it, so no request ever
//!   fails), scores a canary set through the *installed* version, and rolls
//!   back to the last good snapshot if the candidate regressed by more than
//!   [`CANARY_TOLERANCE`].
//! - [`service`]: [`run_continual`] is the end-to-end closed loop —
//!   candidate generation, fallible measurement under an injected
//!   [`tlp_hwsim::FaultModel`], label accumulation, adaptation, evaluation
//!   (including the measured forgetting metric on held-out old-platform
//!   tasks), and publishing. For a fixed seed the whole loop is
//!   bit-reproducible.

#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![warn(clippy::disallowed_types)] // std HashMap/HashSet ban: deterministic iteration only

pub mod publish;
pub mod service;

pub use publish::{rank_accuracy, CanarySet, PublishOutcome, SnapshotPublisher, CANARY_TOLERANCE};
pub use service::{run_continual, AdaptReport, ContinualConfig, RoundReport, FAULT_RATE};
