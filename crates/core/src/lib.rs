//! `tlp` — the core of the TLP (ASPLOS 2023) reproduction: a deep
//! learning-based cost model for tensor program tuning.
//!
//! TLP extracts features **from schedule primitives** instead of from the
//! lowered tensor program, turning latency prediction into an NLP-style
//! regression over the "tensor language" (paper §4). MTL-TLP adds one head
//! per hardware platform to address cross-hardware unavailability (§5).
//!
//! Crate map:
//!
//! - [`features`]: the TLP feature extractor (Fig. 4/5): one-hot primitive
//!   type + numeric params + tokenized name params, cropped to 25×22;
//! - [`model`]: the TLP network (Fig. 7); MTL-TLP (Fig. 8) is the same type
//!   with more heads;
//! - [`train`]: task-grouped training data with LambdaRank or MSE loss, one
//!   batch provider for any head count;
//! - [`trainer`]: the one training loop, [`trainer::fit`], with its
//!   `TrainOptions`/`TrainReport`;
//! - [`metrics`]: the paper's top-k score (§6.1);
//! - [`baselines`]: TenSet-MLP and Ansor's online GBDT over hand-extracted
//!   program features;
//! - [`pretrain`]: GPT/BERT-style self-supervised baselines (Table 8);
//! - [`search`]: cost-model adapters for the auto-tuner (§6.3);
//! - [`audit`]: model specs for the `tlp-modelcheck` static analyzer
//!   (M-codes) that gates snapshot restores, serving installs, and
//!   continual growth;
//! - [`experiments`]: shared harness plumbing for the table/figure benches.
//!
//! # Example
//!
//! Extract TLP features from a schedule:
//!
//! ```
//! use tlp::features::FeatureExtractor;
//! use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary};
//!
//! let mut vocab = Vocabulary::builder();
//! vocab.observe("dense");
//! vocab.observe("j");
//! let extractor = FeatureExtractor::with_vocab(vocab.build(), 25, 22);
//! let seq: ScheduleSequence = [ConcretePrimitive::new(PrimitiveKind::Split, "dense")
//!     .with_loops(["j"])
//!     .with_ints([8, 4])]
//! .into_iter()
//! .collect();
//! let mut buf = tlp::features::FeatureBuf::new();
//! extractor.extract_batch_into(std::slice::from_ref(&seq), &mut buf);
//! assert_eq!(buf.data().len(), 25 * 22);
//! ```

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)
#![warn(missing_docs)]

pub mod audit;
pub mod baselines;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod features;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod pretrain;
pub mod search;
pub mod train;
pub mod trainer;

pub use config::{Backbone, LossKind, TlpConfig};
pub use engine::{EngineConfig, EngineStats, InferenceEngine, ScheduleScorer, ScoreKeys};
pub use features::FeatureExtractor;
pub use metrics::{top_k_score, top_k_scores};
pub use model::TlpModel;
pub use persist::{snapshot, store_checksum, PersistError, SavedTlp, SAVED_TLP_FORMAT_VERSION};
pub use search::{AnsorCostModel, FeatureModel, TenSetMlpCostModel, TlpCostModel};
pub use train::{train_mtl, train_mtl_with, train_tlp, train_tlp_with, TrainData};
pub use trainer::{grouped_batches, EpochReport, StopReason, TrainOptions, TrainReport, Trainable};
