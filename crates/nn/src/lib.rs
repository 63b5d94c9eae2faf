//! `tlp-nn` — a small, pure-Rust neural-network substrate for the TLP
//! (ASPLOS 2023) reproduction.
//!
//! The crate provides exactly what the paper's cost models need, built from
//! scratch on one CPU core:
//!
//! - [`Tensor`]: dense row-major `f32` tensors with matmul kernels;
//! - [`Graph`]: tape-based reverse-mode autodiff;
//! - [`layers`]: `Linear`, multi-head self-attention, LSTM, residual blocks,
//!   layer norm, embeddings, MLP;
//! - [`optim`]: Adam over a [`ParamStore`];
//! - [`loss`]: MSE and LambdaRank (the paper's two loss options).
//!
//! # Example
//!
//! Train a one-parameter model:
//!
//! ```
//! use tlp_nn::{Adam, Binding, Graph, ParamStore, Tensor};
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..100 {
//!     let mut g = Graph::new();
//!     let mut bind = Binding::new();
//!     let wv = bind.var(&mut g, &store, w);
//!     let target = g.constant(Tensor::scalar(2.0));
//!     let d = g.sub(wv, target);
//!     let sq = g.mul(d, d);
//!     let loss = g.sum_all(sq);
//!     g.backward(loss);
//!     bind.harvest(&g, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(w).item() - 2.0).abs() < 0.05);
//! ```

#![warn(clippy::disallowed_methods)] // unwrap/expect ban in non-test lib code (see clippy.toml)
#![warn(clippy::disallowed_types)] // std HashMap/HashSet ban: deterministic iteration only
#![warn(missing_docs)]

pub mod draft;
pub mod graph;
pub mod infer;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
pub mod tensor;
pub mod workspace;

pub use draft::{DraftPass, TinyHead};
pub use graph::{Graph, Var};
pub use infer::{ragged_tail_sums, Ragged, RowInterner, PAD_ROW};
pub use kernels::Epilogue;
pub use layers::{
    Embedding, Fwd, LayerNorm, Linear, Lstm, Mlp, MultiHeadSelfAttention, ResidualBlock,
};
pub use loss::{lambda_rank, lambda_rank_loss, mse_loss};
pub use optim::{Adam, LrSchedule};
pub use params::{Binding, ParamId, ParamStore};
pub use tensor::Tensor;
pub use workspace::{Arena, Workspace};
