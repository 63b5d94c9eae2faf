//! Pass 1 — per-kind well-formedness.
//!
//! Checks each primitive in isolation: parameter arity, numeric signs, and
//! name vocabularies (stages, annotations, pragma keys). Severity follows the
//! lowerer's contract: conditions `tlp_hwsim::lower` rejects are errors;
//! conditions it tolerates but that indicate corruption are warnings; style
//! observations are lints.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::{Ctx, Step};
use tlp_schedule::{Primitive, PrimitiveKind};

/// Annotation names the lowerer understands (including the `*.z` GPU axes,
/// which it accepts and ignores).
pub(crate) const KNOWN_ANNOTATIONS: [&str; 10] = [
    "parallel",
    "vectorize",
    "unroll",
    "vthread",
    "blockIdx.x",
    "blockIdx.y",
    "blockIdx.z",
    "threadIdx.x",
    "threadIdx.y",
    "threadIdx.z",
];

/// Pragma keys the lowerer understands.
pub(crate) const KNOWN_PRAGMAS: [&str; 1] = ["auto_unroll_max_step"];

/// Checks one step on its own.
pub(crate) fn check(ctx: &Ctx<'_>, s: Step<'_>, out: &mut Vec<Diagnostic>) {
    let Step {
        at: step,
        p,
        anchor,
        ..
    } = s;
    if !anchor && !ctx.knows_other_stage(p.stage) {
        out.push(Diagnostic::at(
            Code::UnknownStage,
            Severity::Warn,
            step,
            format!(
                "stage `{}` is not the anchor `{}`, a fused stage, or a cache stage",
                p.stage, ctx.anchor
            ),
        ));
    }
    match p.kind {
        PrimitiveKind::Split | PrimitiveKind::FollowSplit | PrimitiveKind::FollowFusedSplit => {
            check_split(step, p, anchor, out)
        }
        PrimitiveKind::Annotation => check_annotation(step, p, out),
        PrimitiveKind::Pragma => check_pragma(step, p, out),
        PrimitiveKind::Reorder => {
            if p.loop_vars.is_empty() {
                out.push(Diagnostic::at(
                    Code::MissingLoopVar,
                    Severity::Warn,
                    step,
                    "reorder names no loop variables",
                ));
            }
            if !p.ints.is_empty() || !p.extras.is_empty() {
                out.push(unexpected(step, p, "reorder takes only loop variables"));
            }
        }
        PrimitiveKind::Fuse => {
            // An empty fuse is the dataflow pass's V203.
            if !p.ints.is_empty() || !p.extras.is_empty() {
                out.push(unexpected(step, p, "fuse takes only loop variables"));
            }
        }
        PrimitiveKind::ComputeAt | PrimitiveKind::Rfactor => {
            if p.loop_vars.is_empty() {
                out.push(Diagnostic::at(
                    Code::MissingLoopVar,
                    Severity::Warn,
                    step,
                    format!("{} names no target loop variable", p.kind.abbrev()),
                ));
            }
        }
        PrimitiveKind::CacheWrite
        | PrimitiveKind::CacheRead
        | PrimitiveKind::ComputeRoot
        | PrimitiveKind::ComputeInline => {
            if !p.loop_vars.is_empty() || !p.ints.is_empty() || !p.extras.is_empty() {
                out.push(unexpected(step, p, "takes a stage and nothing else"));
            }
        }
        PrimitiveKind::StorageAlign => {}
    }
}

fn unexpected(step: usize, p: &Primitive<'_>, why: &str) -> Diagnostic {
    Diagnostic::at(
        Code::UnexpectedParams,
        Severity::Lint,
        step,
        format!("{} carries unused parameters: {}", p.kind.abbrev(), why),
    )
}

/// Splits on the anchor stage restructure the loop nest, so their parameter
/// errors are fatal in the lowerer; splits on mirror stages (cache/shared)
/// only have their signs validated there.
fn check_split(step: usize, p: &Primitive<'_>, anchor: bool, out: &mut Vec<Diagnostic>) {
    let arity_severity = if anchor {
        Severity::Error
    } else {
        Severity::Warn
    };
    if p.loop_vars.is_empty() {
        out.push(Diagnostic::at(
            Code::MissingLoopVar,
            arity_severity,
            step,
            format!("{} names no loop variable to split", p.kind.abbrev()),
        ));
    } else if p.loop_vars.len() > 1 {
        out.push(unexpected(step, p, "a split targets exactly one loop"));
    }
    if p.ints.len() < 2 {
        out.push(Diagnostic::at(
            Code::MissingSplitFactors,
            arity_severity,
            step,
            format!(
                "split carries {} ints; the record convention is [extent, factor, ...]",
                p.ints.len()
            ),
        ));
    }
    // Sign errors are fatal on every stage.
    if let Some(&bad) = p.ints.iter().find(|&&f| f <= 0) {
        out.push(Diagnostic::at(
            Code::NonPositiveFactor,
            Severity::Error,
            step,
            format!("split parameter {bad} must be positive"),
        ));
    }
}

fn check_annotation(step: usize, p: &Primitive<'_>, out: &mut Vec<Diagnostic>) {
    if p.loop_vars.is_empty() {
        // The lowerer rejects annotations without a loop variable.
        out.push(Diagnostic::at(
            Code::MissingLoopVar,
            Severity::Error,
            step,
            "annotation names no loop variable",
        ));
    } else if p.loop_vars.len() > 1 {
        out.push(unexpected(
            step,
            p,
            "only the first loop variable is annotated",
        ));
    }
    if p.extras.is_empty() {
        out.push(Diagnostic::at(
            Code::MissingAnnotation,
            Severity::Warn,
            step,
            "annotation primitive carries no annotation name",
        ));
    }
    for ann in &p.extras {
        if !KNOWN_ANNOTATIONS.contains(&ann) {
            out.push(Diagnostic::at(
                Code::UnknownAnnotation,
                Severity::Warn,
                step,
                format!("unknown annotation `{ann}`"),
            ));
        }
    }
}

fn check_pragma(step: usize, p: &Primitive<'_>, out: &mut Vec<Diagnostic>) {
    if p.extras.is_empty() {
        out.push(Diagnostic::at(
            Code::UnknownPragma,
            Severity::Lint,
            step,
            "pragma carries no key",
        ));
        return;
    }
    for key in &p.extras {
        if !KNOWN_PRAGMAS.contains(&key) {
            out.push(Diagnostic::at(
                Code::UnknownPragma,
                Severity::Lint,
                step,
                format!("unknown pragma key `{key}`"),
            ));
        }
    }
    if p.extras.iter().any(|k| k == "auto_unroll_max_step") {
        match p.ints.first() {
            None => out.push(Diagnostic::at(
                Code::PragmaMissingValue,
                Severity::Warn,
                step,
                "auto_unroll_max_step needs a value",
            )),
            Some(&v) if v < 0 => out.push(Diagnostic::at(
                Code::NegativePragmaValue,
                Severity::Warn,
                step,
                format!("auto_unroll_max_step value {v} is negative"),
            )),
            Some(_) => {}
        }
    }
}
