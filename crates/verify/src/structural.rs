//! Pass 3 — structural legality against the subgraph.
//!
//! Checks the schedule against the `Subgraph`'s loop nest: anchor splits
//! must target original axes with consistent extents and tile products,
//! rfactor must target a reduction-derived loop, and cache-stage primitives
//! must follow the cache-write/cache-read declaration that creates their
//! stage.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::Ctx;
use tlp_schedule::{PrimitiveKind, ScheduleSequence};
use tlp_workload::LoopKind;

/// `split_counts` is the caller's reusable per-axis counter, reset here.
pub(crate) fn check(
    ctx: &Ctx<'_>,
    schedule: &ScheduleSequence,
    split_counts: &mut Vec<usize>,
    out: &mut Vec<Diagnostic>,
) {
    split_counts.clear();
    split_counts.resize(ctx.axes.len(), 0);
    // Whether a cache-write / cache-read has declared the mirror stage yet.
    let (mut cache_declared, mut shared_declared) = (false, false);

    for (step, p) in schedule.iter().enumerate() {
        match p.kind {
            PrimitiveKind::CacheWrite => cache_declared = true,
            PrimitiveKind::CacheRead => shared_declared = true,
            _ => {}
        }
        if (p.stage == "cache" && !cache_declared) || (p.stage == "shared" && !shared_declared) {
            out.push(Diagnostic::at(
                Code::CacheStageUndeclared,
                Severity::Warn,
                step,
                format!(
                    "stage `{}` is used before any {} declares it",
                    p.stage,
                    if p.stage == "cache" { "CHW" } else { "CHR" }
                ),
            ));
        }
        match p.kind {
            PrimitiveKind::Split | PrimitiveKind::FollowSplit | PrimitiveKind::FollowFusedSplit
                if p.stage == ctx.anchor =>
            {
                check_anchor_split(ctx, step, p, split_counts, out);
            }
            PrimitiveKind::Rfactor => check_rfactor(ctx, step, p, out),
            _ => {}
        }
    }
}

fn check_anchor_split(
    ctx: &Ctx<'_>,
    step: usize,
    p: &tlp_schedule::ConcretePrimitive,
    split_counts: &mut [usize],
    out: &mut Vec<Diagnostic>,
) {
    // Missing loop var is pass 1's V101.
    let Some(var) = p.loop_vars.first() else {
        return;
    };
    let Some(index) = ctx.axis_index(var) else {
        // The lowerer's axis table keeps original names only, so splitting
        // anything else (a sub-loop, a fused var, garbage) cannot lower.
        out.push(Diagnostic::at(
            Code::SplitOfNonAxis,
            Severity::Error,
            step,
            format!(
                "`{var}` is not an original axis of `{}` (axes: {})",
                ctx.anchor,
                ctx.axes
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
        return;
    };
    let axis = &ctx.axes[index];
    split_counts[index] += 1;
    if split_counts[index] > 1 {
        out.push(Diagnostic::at(
            Code::RepeatedAxisSplit,
            Severity::Warn,
            step,
            format!("axis `{var}` is split more than once; later tiling overwrites earlier"),
        ));
    }
    if let Some(&recorded) = p.ints.first() {
        if recorded > 0 && recorded != axis.extent {
            out.push(Diagnostic::at(
                Code::SplitExtentMismatch,
                Severity::Warn,
                step,
                format!(
                    "split records extent {recorded} but axis `{var}` has extent {}",
                    axis.extent
                ),
            ));
        }
    }
    if p.ints.len() >= 2 && p.ints[1..].iter().all(|&f| f > 0) {
        let product = p.ints[1..]
            .iter()
            .fold(1i128, |acc, &f| acc.saturating_mul(f as i128));
        if product > axis.extent as i128 {
            out.push(Diagnostic::at(
                Code::OversizedTileProduct,
                Severity::Warn,
                step,
                format!(
                    "inner tile product {product} exceeds axis `{var}` extent {}",
                    axis.extent
                ),
            ));
        }
    }
}

fn check_rfactor(
    ctx: &Ctx<'_>,
    step: usize,
    p: &tlp_schedule::ConcretePrimitive,
    out: &mut Vec<Diagnostic>,
) {
    let Some(var) = p.loop_vars.first() else {
        return;
    };
    // Classify the variable by the original axes its name derives from:
    // `k.1` derives from `k`, `i.0@j.0` from `i` and `j`. Unknown bases are
    // the dataflow pass's problem.
    let mut any_known = false;
    let mut any_reduction = false;
    for part in var.split('@') {
        let base = part.split('.').next().unwrap_or(part);
        if let Some(axis) = ctx.axis(base) {
            any_known = true;
            any_reduction |= axis.kind == LoopKind::Reduction;
        }
    }
    if any_known && !any_reduction {
        out.push(Diagnostic::at(
            Code::RfactorOnSpatialVar,
            Severity::Warn,
            step,
            format!("rfactor targets `{var}`, which derives from spatial axes only"),
        ));
    }
}
