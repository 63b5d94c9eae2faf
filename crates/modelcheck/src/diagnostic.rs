//! Typed model diagnostics: stable M-codes, severities, and the audit
//! report.
//!
//! The design mirrors the schedule verifier's V-codes
//! (`tlp-verify::diagnostic`): a closed `Code` enum with append-only stable
//! string forms, an ordered `Severity`, and a sorted report with per-severity
//! counts. The locus differs — model findings anchor on a *parameter name*
//! (and optionally a head index) instead of a schedule step.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a model finding is.
///
/// Only [`Severity::Error`] means "this model is structurally invalid"; the
/// persist/serve/continual gates reject on errors alone. Warnings mark
/// states a model can legally be in but that usually indicate a training or
/// corruption problem; lints are observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Observation; the model is fine.
    Lint,
    /// Suspicious but loadable; likely a training or data problem.
    Warn,
    /// Structurally invalid; the model is rejected by the gates.
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

/// Stable model-audit codes.
///
/// The numeric band encodes the pass that produces the code: `M1xx`
/// shape/arity, `M2xx` partition integrity, `M3xx` numeric audit, `M4xx`
/// gradient coverage. Codes are append-only: a code's meaning never changes
/// once released, so logs and dashboards can key on the string form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Code {
    /// A parameter the architecture requires is absent from the store.
    MissingParam,
    /// A store parameter the architecture does not declare.
    OrphanParam,
    /// A parameter's shape disagrees with the architecture.
    ShapeMismatch,
    /// Two store parameters share one name.
    DuplicateParamName,
    /// A parameter tensor with zero elements.
    EmptyParam,
    /// The snapshot's stored checksum disagrees with its contents.
    ChecksumMismatch,
    /// A parameter name matches more than one head prefix.
    HeadOverlap,
    /// A parameter claims a head index at or beyond the declared head count.
    HeadIndexOutOfRange,
    /// A declared head owns no parameters.
    EmptyHead,
    /// A head's suffix→shape layout differs from head 0's.
    HeadLayoutMismatch,
    /// A parameter value is NaN or infinite.
    NonFiniteValue,
    /// A parameter contains subnormal (denormal) values.
    DenormalValue,
    /// A weight matrix (rank ≥ 2) that is entirely zero.
    DeadTensor,
    /// A parameter's accumulated gradient is NaN or infinite.
    NonFiniteGradient,
    /// A trainable (unfrozen) parameter the loss cannot reach.
    UnreachableParam,
    /// A frozen parameter inside a head declared trained.
    FrozenTrainedParam,
    /// Every parameter is frozen; the objective cannot move anything.
    NothingTrainable,
    /// A frozen id that does not exist in the store.
    UnknownFrozenId,
}

impl Code {
    /// The stable string form, e.g. `"M301"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::MissingParam => "M101",
            Code::OrphanParam => "M102",
            Code::ShapeMismatch => "M103",
            Code::DuplicateParamName => "M104",
            Code::EmptyParam => "M105",
            Code::ChecksumMismatch => "M106",
            Code::HeadOverlap => "M201",
            Code::HeadIndexOutOfRange => "M202",
            Code::EmptyHead => "M203",
            Code::HeadLayoutMismatch => "M204",
            Code::NonFiniteValue => "M301",
            Code::DenormalValue => "M302",
            Code::DeadTensor => "M303",
            Code::NonFiniteGradient => "M304",
            Code::UnreachableParam => "M401",
            Code::FrozenTrainedParam => "M402",
            Code::NothingTrainable => "M403",
            Code::UnknownFrozenId => "M404",
        }
    }

    /// All codes, for documentation tables and exhaustive tests.
    pub const ALL: [Code; 18] = [
        Code::MissingParam,
        Code::OrphanParam,
        Code::ShapeMismatch,
        Code::DuplicateParamName,
        Code::EmptyParam,
        Code::ChecksumMismatch,
        Code::HeadOverlap,
        Code::HeadIndexOutOfRange,
        Code::EmptyHead,
        Code::HeadLayoutMismatch,
        Code::NonFiniteValue,
        Code::DenormalValue,
        Code::DeadTensor,
        Code::NonFiniteGradient,
        Code::UnreachableParam,
        Code::FrozenTrainedParam,
        Code::NothingTrainable,
        Code::UnknownFrozenId,
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
    /// Name of the offending parameter (`None` for whole-model findings
    /// such as an empty head or a checksum mismatch).
    pub param: Option<String>,
    /// Head index the finding concerns, when it is head-scoped.
    pub head: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic anchored at a parameter.
    pub fn at(
        code: Code,
        severity: Severity,
        param: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            param: Some(param.into()),
            head: None,
            message: message.into(),
        }
    }

    /// Creates a whole-model diagnostic.
    pub fn global(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            param: None,
            head: None,
            message: message.into(),
        }
    }

    /// Tags the diagnostic with a head index.
    pub fn on_head(mut self, head: usize) -> Self {
        self.head = Some(head);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.param {
            Some(p) => write!(
                f,
                "{}[{}] `{}`: {}",
                self.code, self.severity, p, self.message
            ),
            None => write!(f, "{}[{}]: {}", self.code, self.severity, self.message),
        }
    }
}

/// Per-model diagnostic counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Number of error diagnostics.
    pub errors: u32,
    /// Number of warning diagnostics.
    pub warnings: u32,
    /// Number of lint diagnostics.
    pub lints: u32,
}

impl AuditSummary {
    /// Whether the model passed the gates (no errors).
    pub fn is_valid(&self) -> bool {
        self.errors == 0
    }
}

/// The outcome of auditing one model: every diagnostic from every pass, in
/// parameter order.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditReport {
    /// All findings, sorted by parameter name (whole-model findings last)
    /// then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// Builds a report, normalizing diagnostic order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            let ka = (a.param.is_none(), &a.param, a.code);
            let kb = (b.param.is_none(), &b.param, b.code);
            ka.cmp(&kb)
        });
        AuditReport { diagnostics }
    }

    /// Merges another report's findings into this one, re-sorting.
    pub fn merge(self, other: AuditReport) -> AuditReport {
        let mut all = self.diagnostics;
        all.extend(other.diagnostics);
        AuditReport::new(all)
    }

    /// Whether the model passed the gates: zero error-severity findings.
    /// Warnings and lints do not fail a model.
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

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Counts per M-code, in code order. The `&'static str` keys are the
    /// stable code names (`"M101"`, …), ready for JSON summaries.
    pub fn code_counts(&self) -> std::collections::BTreeMap<&'static str, u32> {
        let mut counts = std::collections::BTreeMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.code.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Counts per severity.
    pub fn summary(&self) -> AuditSummary {
        let mut s = AuditSummary::default();
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

impl fmt::Display for AuditReport {
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
        assert_eq!(Code::MissingParam.as_str(), "M101");
        assert_eq!(Code::NonFiniteValue.as_str(), "M301");
        assert_eq!(Code::UnreachableParam.as_str(), "M401");
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Lint);
    }

    #[test]
    fn report_sorts_and_summarizes() {
        let r = AuditReport::new(vec![
            Diagnostic::global(Code::EmptyHead, Severity::Error, "head 1 empty").on_head(1),
            Diagnostic::at(Code::NonFiniteValue, Severity::Error, "head0.out1.w", "NaN"),
            Diagnostic::at(
                Code::DeadTensor,
                Severity::Warn,
                "backbone.up1.w",
                "all zero",
            ),
        ]);
        assert_eq!(r.diagnostics[0].param.as_deref(), Some("backbone.up1.w"));
        assert_eq!(r.diagnostics[2].param, None);
        assert_eq!(r.diagnostics[2].head, Some(1));
        let s = r.summary();
        assert_eq!((s.errors, s.warnings, s.lints), (2, 1, 0));
        assert!(!r.passes());
        assert!(!s.is_valid());
        assert!(r.has_code(Code::EmptyHead));
        assert!(!r.has_code(Code::ChecksumMismatch));
    }

    #[test]
    fn diagnostics_serialize() {
        let d = Diagnostic::at(
            Code::ShapeMismatch,
            Severity::Error,
            "head.out2.w",
            "[4] vs [4, 1]",
        );
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("ShapeMismatch"));
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
