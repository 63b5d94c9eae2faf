//! `tlp-schedule` — the schedule-primitive IR of the TLP (ASPLOS 2023)
//! reproduction.
//!
//! TLP's key idea is to treat schedule primitives as a *tensor language*:
//! a schedule-primitive sequence is an NLP "sentence" whose "words" are
//! primitives, each decomposed into three basic elements — primitive type,
//! numeric parameters, and character parameters (paper §4.1, Fig. 4).
//!
//! This crate models:
//! - [`PrimitiveKind`]: Ansor's 14 transform-step kinds (11 on CPU);
//! - [`ConcretePrimitive`] / [`AbstractPrimitive`]: framework-level steps and
//!   their preprocessed three-element form, with reversible [`preprocess`] /
//!   [`recover`];
//! - [`ScheduleSequence`]: ordered primitive sequences in four flat buffers,
//!   read as [`Primitive`] views, with fingerprinting and an in-place
//!   [`rewrite`](ScheduleSequence::rewrite);
//! - [`Skeletons`]: a set of sequence skeletons (a sequence without its int
//!   values), found by comparing buffers;
//! - [`Fingerprinter`]: fingerprints of many sequences at once, from the
//!   words of their skeletons;
//! - [`Vocabulary`]: name-parameter tokenization.
//!
//! # Example
//!
//! ```
//! use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};
//! let seq: ScheduleSequence = [
//!     ConcretePrimitive::new(PrimitiveKind::Split, "C")
//!         .with_loops(["j"])
//!         .with_ints([8, 4]),
//!     ConcretePrimitive::new(PrimitiveKind::Annotation, "C")
//!         .with_loops(["j0"])
//!         .with_extras(["vectorize"]),
//! ]
//! .into_iter()
//! .collect();
//! assert_eq!(seq.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

pub mod fingerprint;
pub mod hash;
pub mod kind;
pub mod parse;
pub mod primitive;
pub mod sequence;
pub mod skeleton;
pub mod vocab;

pub use fingerprint::Fingerprinter;
pub use kind::PrimitiveKind;
pub use parse::{parse_primitive, parse_schedule, ParsePrimitiveError};
pub use primitive::{
    preprocess, preprocess_elements, recover, AbstractPrimitive, ConcretePrimitive, Element,
    ElementRef, Names, NamesIter, Primitive, RecoverPrimitiveError,
};
pub use sequence::{PrimitiveWriter, Primitives, ScheduleSequence, SequenceWriter};
pub use skeleton::Skeletons;
pub use vocab::{Vocabulary, VocabularyBuilder};
