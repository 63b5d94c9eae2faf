//! Pass 3 — structural legality against the subgraph.
//!
//! Checks the schedule against the `Subgraph`'s loop nest: anchor splits
//! must target original axes with consistent extents and tile products,
//! rfactor must target a reduction-derived loop, and cache-stage primitives
//! must follow the cache-write/cache-read declaration that creates their
//! stage.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::{Ctx, Step};
use tlp_schedule::PrimitiveKind;
use tlp_workload::LoopKind;

/// The pass's state within one schedule: anchor splits seen per original
/// axis (parallel to `ctx.axes`) and whether a cache-write / cache-read has
/// declared the mirror stage yet. The counter's storage is reused.
#[derive(Default)]
pub(crate) struct Structure {
    split_counts: Vec<usize>,
    cache_declared: bool,
    shared_declared: bool,
}

impl Structure {
    pub(crate) fn start(&mut self, ctx: &Ctx) {
        self.split_counts.clear();
        self.split_counts.resize(ctx.axes.len(), 0);
        self.cache_declared = false;
        self.shared_declared = false;
    }

    /// Checks one step.
    pub(crate) fn step(&mut self, ctx: &Ctx, s: Step<'_>, out: &mut Vec<Diagnostic>) {
        let Step {
            at: step,
            p,
            anchor,
            ..
        } = s;
        match p.kind {
            PrimitiveKind::CacheWrite => self.cache_declared = true,
            PrimitiveKind::CacheRead => self.shared_declared = true,
            _ => {}
        }
        if (s.stage.is("cache") && !self.cache_declared)
            || (s.stage.is("shared") && !self.shared_declared)
        {
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
                if anchor =>
            {
                check_anchor_split(ctx, s, &mut self.split_counts, out);
            }
            PrimitiveKind::Rfactor => check_rfactor(ctx, step, s.var, out),
            _ => {}
        }
    }
}

fn check_anchor_split(
    ctx: &Ctx,
    s: Step<'_>,
    split_counts: &mut [usize],
    out: &mut Vec<Diagnostic>,
) {
    let Step {
        at: step,
        p,
        var,
        split_axis,
        ..
    } = s;
    // Missing loop var is pass 1's V101.
    let Some(var) = var else {
        return;
    };
    let Some(index) = split_axis else {
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
                    .map(|a| a.name)
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
    if let Some(recorded) = extent_mismatch(p.ints, axis.extent) {
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
    if let Some(product) = oversized_product(p.ints, axis.extent) {
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

/// The extent an anchor split records, when it is positive and is not the
/// axis's `extent` (V302).
fn extent_mismatch(ints: &[i64], extent: i64) -> Option<i64> {
    ints.first().copied().filter(|&r| r > 0 && r != extent)
}

/// The inner tile product of a split whose factors are all positive, when
/// it exceeds the axis's `extent` (V303).
fn oversized_product(ints: &[i64], extent: i64) -> Option<i128> {
    let factors = ints
        .get(1..)
        .filter(|f| !f.is_empty() && f.iter().all(|&f| f > 0))?;
    if tile_product_fits(factors, extent) {
        return None;
    }
    Some(
        factors
            .iter()
            .fold(1i128, |acc, &f| acc.saturating_mul(f as i128)),
    )
}

/// Whether the product of positive `factors` is at most `extent`. Partial
/// products only grow, so the first one past `extent`, or past `i64`,
/// decides.
fn tile_product_fits(factors: &[i64], extent: i64) -> bool {
    let mut product: i64 = 1;
    for &f in factors {
        match product.checked_mul(f) {
            Some(p) if p <= extent => product = p,
            _ => return false,
        }
    }
    true
}

/// Whether an anchor split of an axis of `extent` raises neither V302 nor
/// V303.
pub(crate) fn anchor_split_ints_hold(ints: &[i64], extent: i64) -> bool {
    extent_mismatch(ints, extent).is_none() && oversized_product(ints, extent).is_none()
}

fn check_rfactor(ctx: &Ctx, step: usize, var: Option<&str>, out: &mut Vec<Diagnostic>) {
    let Some(var) = var else {
        return;
    };
    // Classify the variable by the original axes its name derives from:
    // `k.1` derives from `k`, `i.0@j.0` from `i` and `j`. Unknown bases are
    // the dataflow pass's problem.
    let mut any_known = false;
    let mut any_reduction = false;
    for part in var.split('@') {
        let base = part.split('.').next().unwrap_or(part);
        if let Some(index) = ctx.axis_index(base) {
            any_known = true;
            any_reduction |= ctx.axes[index].kind == LoopKind::Reduction;
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
