//! Typed diagnostics: stable error codes, severities, and the verifier
//! report.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
///
/// Only [`Severity::Error`] means "this schedule is statically invalid";
/// the autotuner's pruning gate and the serving admission check reject on
/// errors alone. Warnings mark constructs the lowerer tolerates but that
/// indicate a corrupted or nonsensical schedule; lints are style-level
/// observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Style-level observation; the schedule is fine.
    Lint,
    /// Suspicious but lowerable; likely a corrupted schedule.
    Warn,
    /// Statically invalid; the schedule is rejected by the gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Lint => "lint",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes.
///
/// The numeric band encodes the pass that produces the code:
/// `V0xx` parsing, `V1xx` per-kind well-formedness, `V2xx` dataflow,
/// `V3xx` structural legality, `V4xx` GPU-binding completeness. Codes are
/// append-only: a code's meaning never changes once released, so logs and
/// dashboards can key on the string form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Code {
    /// The schedule text did not parse.
    ParseFailure,
    /// A primitive that needs a loop variable has none.
    MissingLoopVar,
    /// A split carries fewer than two ints (Ansor convention: extent +
    /// at least one factor).
    MissingSplitFactors,
    /// A split parameter is zero or negative.
    NonPositiveFactor,
    /// An annotation primitive names no annotation.
    MissingAnnotation,
    /// An annotation name outside the known vocabulary.
    UnknownAnnotation,
    /// A pragma without a key, or with an unknown key.
    UnknownPragma,
    /// `auto_unroll_max_step` without a value.
    PragmaMissingValue,
    /// A negative pragma value.
    NegativePragmaValue,
    /// A stage name that is neither the anchor, a fused stage, nor a
    /// cache/shared stage.
    UnknownStage,
    /// Parameters a primitive kind cannot consume (extra loop vars, ints,
    /// or extras).
    UnexpectedParams,
    /// A reference to a loop variable that was never defined.
    UnknownVar,
    /// A reference to a loop variable after a split or fuse consumed it.
    UseAfterConsume,
    /// A fuse with no loop variables.
    EmptyFuse,
    /// A primitive applied to a stage after it was compute-inlined.
    InlinedStageReuse,
    /// An anchor-stage split whose target is not an original axis.
    SplitOfNonAxis,
    /// A split whose recorded extent (`ints[0]`) disagrees with the
    /// subgraph axis extent.
    SplitExtentMismatch,
    /// Split factors whose product exceeds the axis extent.
    OversizedTileProduct,
    /// The same original axis split more than once.
    RepeatedAxisSplit,
    /// An rfactor whose loop variable derives from a spatial axis.
    RfactorOnSpatialVar,
    /// A cache/shared stage referenced before its cache-write/cache-read
    /// declaration.
    CacheStageUndeclared,
    /// A GPU schedule with block bindings but no thread bindings.
    MissingThreadBinding,
    /// A GPU schedule with thread bindings but no block bindings.
    MissingBlockBinding,
    /// The same thread/block axis bound more than once.
    DuplicateThreadBinding,
    /// Threads per block exceed the configured hardware limit.
    OccupancyExceeded,
    /// CPU annotations (parallel/vectorize) mixed with GPU thread
    /// bindings, or GPU bindings on a CPU target.
    MixedDeviceAnnotations,
}

impl Code {
    /// The stable string form, e.g. `"V201"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ParseFailure => "V001",
            Code::MissingLoopVar => "V101",
            Code::MissingSplitFactors => "V102",
            Code::NonPositiveFactor => "V103",
            Code::MissingAnnotation => "V104",
            Code::UnknownAnnotation => "V105",
            Code::UnknownPragma => "V106",
            Code::PragmaMissingValue => "V107",
            Code::NegativePragmaValue => "V108",
            Code::UnknownStage => "V109",
            Code::UnexpectedParams => "V110",
            Code::UnknownVar => "V201",
            Code::UseAfterConsume => "V202",
            Code::EmptyFuse => "V203",
            Code::InlinedStageReuse => "V204",
            Code::SplitOfNonAxis => "V301",
            Code::SplitExtentMismatch => "V302",
            Code::OversizedTileProduct => "V303",
            Code::RepeatedAxisSplit => "V304",
            Code::RfactorOnSpatialVar => "V305",
            Code::CacheStageUndeclared => "V306",
            Code::MissingThreadBinding => "V401",
            Code::MissingBlockBinding => "V402",
            Code::DuplicateThreadBinding => "V403",
            Code::OccupancyExceeded => "V404",
            Code::MixedDeviceAnnotations => "V405",
        }
    }

    /// All codes, for documentation tables and exhaustive tests.
    pub const ALL: [Code; 26] = [
        Code::ParseFailure,
        Code::MissingLoopVar,
        Code::MissingSplitFactors,
        Code::NonPositiveFactor,
        Code::MissingAnnotation,
        Code::UnknownAnnotation,
        Code::UnknownPragma,
        Code::PragmaMissingValue,
        Code::NegativePragmaValue,
        Code::UnknownStage,
        Code::UnexpectedParams,
        Code::UnknownVar,
        Code::UseAfterConsume,
        Code::EmptyFuse,
        Code::InlinedStageReuse,
        Code::SplitOfNonAxis,
        Code::SplitExtentMismatch,
        Code::OversizedTileProduct,
        Code::RepeatedAxisSplit,
        Code::RfactorOnSpatialVar,
        Code::CacheStageUndeclared,
        Code::MissingThreadBinding,
        Code::MissingBlockBinding,
        Code::DuplicateThreadBinding,
        Code::OccupancyExceeded,
        Code::MixedDeviceAnnotations,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity class.
    pub severity: Severity,
    /// Index of the offending step in the sequence (`None` for
    /// whole-schedule findings such as missing GPU bindings).
    pub step: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic anchored at `step`.
    pub fn at(code: Code, severity: Severity, step: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            step: Some(step),
            message: message.into(),
        }
    }

    /// Creates a whole-schedule diagnostic.
    pub fn global(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            step: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(s) => write!(
                f,
                "{}[{}] step {}: {}",
                self.code, self.severity, s, self.message
            ),
            None => write!(f, "{}[{}]: {}", self.code, self.severity, self.message),
        }
    }
}

/// Per-schedule diagnostic counts, recorded as a dataset validity label
/// and aggregated by corpus summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValiditySummary {
    /// Number of error diagnostics.
    pub errors: u32,
    /// Number of warning diagnostics.
    pub warnings: u32,
    /// Number of lint diagnostics.
    pub lints: u32,
}

impl ValiditySummary {
    /// Whether the schedule passed the static gate (no errors).
    pub fn is_valid(&self) -> bool {
        self.errors == 0
    }
}

/// The outcome of verifying one schedule: every diagnostic from every pass,
/// in step order.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// All findings, sorted by step (whole-schedule findings last) then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report, normalizing diagnostic order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            let ka = (a.step.is_none(), a.step, a.code);
            let kb = (b.step.is_none(), b.step, b.code);
            ka.cmp(&kb)
        });
        Report { diagnostics }
    }

    /// Whether the schedule passed the gate: zero error-severity findings.
    /// Warnings and lints do not fail a schedule.
    pub fn passes(&self) -> bool {
        !self.has_errors()
    }

    /// Whether any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether the report is entirely empty (no findings of any severity).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Counts per severity.
    pub fn summary(&self) -> ValiditySummary {
        let mut s = ValiditySummary::default();
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => s.errors += 1,
                Severity::Warn => s.warnings += 1,
                Severity::Lint => s.lints += 1,
            }
        }
        s
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, clippy::disallowed_types)]
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {}", c.as_str());
        }
        assert_eq!(Code::UnknownVar.as_str(), "V201");
        assert_eq!(Code::SplitOfNonAxis.as_str(), "V301");
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Lint);
    }

    #[test]
    fn report_sorts_and_summarizes() {
        let r = Report::new(vec![
            Diagnostic::global(Code::MissingThreadBinding, Severity::Error, "no threads"),
            Diagnostic::at(Code::UnknownVar, Severity::Error, 3, "zz"),
            Diagnostic::at(Code::SplitExtentMismatch, Severity::Warn, 1, "64 vs 32"),
        ]);
        assert_eq!(r.diagnostics[0].step, Some(1));
        assert_eq!(r.diagnostics[2].step, None);
        let s = r.summary();
        assert_eq!((s.errors, s.warnings, s.lints), (2, 1, 0));
        assert!(!r.passes());
        assert!(!s.is_valid());
    }

    #[test]
    fn diagnostics_serialize() {
        let d = Diagnostic::at(Code::NonPositiveFactor, Severity::Error, 2, "factor 0");
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("NonPositiveFactor"));
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
