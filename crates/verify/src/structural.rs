//! Pass 3 — structural legality against the subgraph.
//!
//! Checks the schedule against the `Subgraph`'s loop nest: anchor splits
//! must target original axes with consistent extents and tile products,
//! rfactor must target a reduction-derived loop, and cache-stage primitives
//! must follow the cache-write/cache-read declaration that creates their
//! stage.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::{Ctx, Step};
use tlp_schedule::{ConcretePrimitive, PrimitiveKind};
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
    pub(crate) fn start(&mut self, ctx: &Ctx<'_>) {
        self.split_counts.clear();
        self.split_counts.resize(ctx.axes.len(), 0);
        self.cache_declared = false;
        self.shared_declared = false;
    }

    /// Checks one step; `axis_index` finds the original axis a name denotes.
    pub(crate) fn step(
        &mut self,
        ctx: &Ctx<'_>,
        axis_index: impl Fn(&str) -> Option<usize>,
        s: Step<'_>,
        out: &mut Vec<Diagnostic>,
    ) {
        let Step {
            at: step,
            p,
            anchor,
            split_axis,
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
                check_anchor_split(ctx, split_axis, step, p, &mut self.split_counts, out);
            }
            PrimitiveKind::Rfactor => check_rfactor(ctx, &axis_index, step, p, out),
            _ => {}
        }
    }
}

/// `split_axis` is the original axis the split's loop variable names.
fn check_anchor_split(
    ctx: &Ctx<'_>,
    split_axis: Option<usize>,
    step: usize,
    p: &ConcretePrimitive,
    split_counts: &mut [usize],
    out: &mut Vec<Diagnostic>,
) {
    // Missing loop var is pass 1's V101.
    let Some(var) = p.loop_vars.first() else {
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
    axis_index: impl Fn(&str) -> Option<usize>,
    step: usize,
    p: &ConcretePrimitive,
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
        if let Some(index) = axis_index(base) {
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
