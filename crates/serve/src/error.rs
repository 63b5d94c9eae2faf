//! Typed serving failures.
//!
//! Every way a score request can fail without a score is a variant here, so
//! clients can program against overload and deadline expiry instead of
//! parsing strings or blocking forever.

use std::fmt;
use tlp_verify::Diagnostic;

/// Why a serving request did not produce scores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A submitted schedule failed static verification at admission
    /// ([`tlp_verify::verify`]). Carries the diagnostics so clients can
    /// see *why* without re-running the analyzer; the request was never
    /// enqueued, so invalid load costs O(verify) and no batcher time.
    InvalidSchedule {
        /// Index of the first offending schedule in the submitted batch.
        index: usize,
        /// The verifier's findings for that schedule (errors and below).
        diagnostics: Vec<Diagnostic>,
    },
    /// The admission queue was at capacity; the request was rejected
    /// immediately (never enqueued) so server memory stays bounded under
    /// overload. Back off and retry.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline expired before scoring completed — either in
    /// the queue (the server dropped it unscored) or while the client waited
    /// for the reply.
    DeadlineExceeded,
    /// No model with this name is installed in the registry.
    UnknownModel(String),
    /// The server is shutting down and no longer admits new work.
    ShuttingDown,
    /// The server dropped the reply channel without answering (it was torn
    /// down non-gracefully). Treated as a request failure, never a hang.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidSchedule { index, diagnostics } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity == tlp_verify::Severity::Error)
                    .count();
                write!(
                    f,
                    "schedule {index} failed static verification ({errors} error(s)); \
                     rejected at admission"
                )
            }
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "serving queue full (capacity {capacity}); request rejected"
                )
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline expired before scoring"),
            ServeError::UnknownModel(name) => write!(f, "no model named `{name}` is installed"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "server dropped the request without a reply"),
        }
    }
}

impl std::error::Error for ServeError {}
