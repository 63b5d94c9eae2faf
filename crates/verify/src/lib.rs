//! `tlp-verify` — multi-pass static analyzer for schedule-primitive
//! sequences (the TLP reproduction's "tensor language").
//!
//! TLP treats a schedule-primitive sequence as a sentence in a language
//! (paper §3/§4.1); this crate gives that language a static semantics. It
//! analyzes a [`ScheduleSequence`] against its [`Subgraph`] *without*
//! lowering or simulation and produces typed [`Diagnostic`]s with stable
//! codes, severities, and offending step indices.
//!
//! # Pass pipeline
//!
//! 1. **Well-formedness** (`V1xx`) — per-kind arity, parameter signs, and
//!    name vocabularies (stages, annotations, pragma keys).
//! 2. **Dataflow** (`V2xx`) — threads a loop-variable environment through
//!    the sequence: splits consume their axis and define sub-loops, fuses
//!    consume operands and define the joined variable; dangling and
//!    use-after-consume references are errors.
//! 3. **Structural legality** (`V3xx`) — split targets/extents/tile
//!    products checked against the subgraph's loop nest, rfactor axis
//!    class, cache-stage declaration order.
//! 4. **GPU-binding completeness** (`V4xx`) — block/thread bind coverage,
//!    duplicate hardware axes, occupancy, device-annotation mixing.
//!
//! All four passes run inside one [`Verifier`], built once per
//! `(subgraph, options)` and reused for every schedule checked against it.
//! Passes 1–3 share one walk over the steps, which compares each step's
//! stage with the anchor once and resolves an anchor split's target axis
//! once for all three; pass 4 then reads what pass 2 collected. The
//! verifier owns the resolved subgraph facts and the dataflow pass's
//! loop-variable environment: one entry per name, found through an
//! open-addressed index keyed on the name's first eight bytes and its
//! length, so a name of at most eight bytes is compared as one word and
//! never copied. The index grows with the schedule, and its storage is
//! reused, so a schedule with no findings allocates nothing once the
//! verifier is warm. [`verify_with`] is the one-shot form:
//! `Verifier::new(..).check(..)`.
//!
//! # Error-code table
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | V001 | error | schedule text failed to parse |
//! | V101 | error/warn | primitive missing its loop variable |
//! | V102 | error/warn | split without `[extent, factor, ...]` ints |
//! | V103 | error | non-positive split parameter |
//! | V104 | warn | annotation without an annotation name |
//! | V105 | warn | unknown annotation name |
//! | V106 | lint | pragma without/with unknown key |
//! | V107 | warn | `auto_unroll_max_step` without a value |
//! | V108 | warn | negative pragma value |
//! | V109 | warn | unknown stage name |
//! | V110 | lint | parameters the primitive cannot consume |
//! | V201 | error | reference to an undefined loop variable |
//! | V202 | error | reference to a consumed loop variable |
//! | V203 | warn | fuse of zero loops |
//! | V204 | warn | primitive on a compute-inlined stage |
//! | V301 | error | anchor split of a non-axis variable |
//! | V302 | warn | split extent disagrees with the subgraph axis |
//! | V303 | warn | tile product exceeds the axis extent |
//! | V304 | warn | same axis split more than once |
//! | V305 | warn | rfactor on a spatial-derived variable |
//! | V306 | warn | cache stage used before CHW/CHR declares it |
//! | V401 | error | GPU schedule with no threadIdx binding |
//! | V402 | error | GPU schedule with no blockIdx binding |
//! | V403 | error | hardware axis bound twice |
//! | V404 | warn | threads per block exceed the limit |
//! | V405 | warn | CPU/GPU annotation mixing |
//!
//! Only **error**-severity findings reject a schedule ([`Report::passes`]);
//! the autotuner's pruning gate, dataset validity labels, and serving
//! admission all key on that predicate.
//!
//! # Soundness w.r.t. the lowerer
//!
//! The analyzer is *sound* against `tlp_hwsim::lower`: every schedule
//! `lower` rejects carries at least one error diagnostic, and a schedule
//! with zero error diagnostics always lowers. It is deliberately stricter
//! than the lowerer (e.g. fuse operands are considered consumed, GPU
//! schedules must bind both axes), so some lowerable-but-corrupt schedules
//! are rejected too. The root-package `verify_soundness` property test
//! pins both directions.
//!
//! # Example
//!
//! ```
//! use tlp_schedule::parse_schedule;
//! use tlp_verify::{verify, Code};
//! use tlp_workload::{AnchorOp, Subgraph};
//!
//! let sg = Subgraph::new("d", AnchorOp::Dense { m: 64, n: 64, k: 64 });
//! let seq = parse_schedule("SP(dense, i, [64, 8])\nAN(dense, i.1, \"vectorize\")").unwrap();
//! assert!(verify(&sg, &seq).passes());
//!
//! let bad = parse_schedule("AN(dense, nope, \"parallel\")").unwrap();
//! let report = verify(&sg, &bad);
//! assert_eq!(report.diagnostics[0].code, Code::UnknownVar);
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]

mod dataflow;
mod diagnostic;
mod gpu;
mod structural;
mod wellformed;

pub use diagnostic::{Code, Diagnostic, Report, Severity, ValiditySummary};

use tlp_schedule::{Primitive, PrimitiveKind, ScheduleSequence};
use tlp_workload::{FusedOp, LoopSpec, Subgraph};

/// Analyzer configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Whether the schedule targets a GPU. `None` infers the device from
    /// the presence of `blockIdx.*`/`threadIdx.*` bindings; `Some` pins it
    /// (e.g. from the serving request's platform) and makes binding
    /// coverage mandatory or forbidden.
    pub gpu: Option<bool>,
}

/// Shared facts about the subgraph, resolved once per [`Verifier`].
pub(crate) struct Ctx<'a> {
    pub anchor: &'a str,
    anchor_key: dataflow::Key,
    pub axes: Vec<LoopSpec>,
    fused: &'a [FusedOp],
}

impl<'a> Ctx<'a> {
    fn new(subgraph: &'a Subgraph) -> Self {
        let anchor = subgraph.anchor.name();
        Ctx {
            anchor,
            anchor_key: dataflow::Key::of(anchor.as_bytes()),
            axes: subgraph.loops(),
            fused: &subgraph.fused,
        }
    }

    /// Whether `stage`, whose key is `key`, is the anchor stage.
    fn is_anchor(&self, key: dataflow::Key, stage: &str) -> bool {
        key == self.anchor_key && (key.len() <= 8 || stage == self.anchor)
    }

    /// Whether `stage` is a fused stage or one of the mirror stages
    /// cache-write / cache-read declarations create.
    pub(crate) fn knows_other_stage(&self, stage: &str) -> bool {
        stage == "cache" || stage == "shared" || self.fused.iter().any(|f| f.stage_name() == stage)
    }
}

/// One step of a schedule, with what the walk resolves once for every pass.
#[derive(Clone, Copy)]
pub(crate) struct Step<'s> {
    /// The step's position in the schedule.
    pub at: usize,
    pub p: &'s Primitive<'s>,
    /// `p`'s first loop variable, which most kinds name their target by.
    pub var: Option<&'s str>,
    /// The key of `p`'s stage name.
    pub stage: dataflow::Key,
    /// Whether `p` applies to the anchor stage.
    pub anchor: bool,
    /// For an anchor split, the original axis its loop variable names.
    pub split_axis: Option<usize>,
}

/// The analyzer for one `(subgraph, options)` pair: the four-pass pipeline
/// plus the state it reuses from one schedule to the next.
///
/// Callers that check many schedules against one subgraph (serving
/// admission per request, the search gate per task, dataset generation per
/// subgraph) hold one verifier; every [`Verifier::check`] starts from a
/// reset environment, so a rejected schedule leaves nothing behind for the
/// next one.
pub struct Verifier<'a> {
    ctx: Ctx<'a>,
    opts: VerifyOptions,
    flow: dataflow::Flow,
    structure: structural::Structure,
}

impl<'a> Verifier<'a> {
    /// Resolves `subgraph`'s loop nest and stage names once.
    pub fn new(subgraph: &'a Subgraph, opts: &VerifyOptions) -> Self {
        Verifier {
            ctx: Ctx::new(subgraph),
            opts: *opts,
            flow: dataflow::Flow::default(),
            structure: structural::Structure::default(),
        }
    }

    /// Runs all four passes over `schedule`: passes 1–3 in one walk over
    /// its steps, then pass 4 over what pass 2 collected. The report orders
    /// findings by step and code, so interleaving the passes step by step
    /// reports what running them one after another would.
    pub fn check(&mut self, schedule: &ScheduleSequence) -> Report {
        let mut diags = Vec::new();
        self.flow.start(&self.ctx);
        self.structure.start(&self.ctx);
        for (at, p) in schedule.iter().enumerate() {
            let stage = dataflow::Key::of(p.stage.as_bytes());
            let anchor = self.ctx.is_anchor(stage, p.stage);
            let var = p.loop_vars.first();
            let split_axis = match p.kind {
                PrimitiveKind::Split
                | PrimitiveKind::FollowSplit
                | PrimitiveKind::FollowFusedSplit
                    if anchor =>
                {
                    var.and_then(|v| self.flow.axis_index(v))
                }
                _ => None,
            };
            let s = Step {
                at,
                p: &p,
                var,
                stage,
                anchor,
                split_axis,
            };
            wellformed::check(&self.ctx, s, &mut diags);
            self.flow.step(&self.ctx, schedule, s, &mut diags);
            let flow = &self.flow;
            self.structure
                .step(&self.ctx, |var| flow.axis_index(var), s, &mut diags);
        }
        gpu::check(&self.opts, schedule, self.flow.facts(), &mut diags);
        Report::new(diags)
    }
}

/// Verifies a schedule with default options (device inferred from the
/// sequence).
pub fn verify(subgraph: &Subgraph, schedule: &ScheduleSequence) -> Report {
    verify_with(subgraph, schedule, &VerifyOptions::default())
}

/// Verifies one schedule: a [`Verifier`] built for this call alone.
pub fn verify_with(
    subgraph: &Subgraph,
    schedule: &ScheduleSequence,
    opts: &VerifyOptions,
) -> Report {
    Verifier::new(subgraph, opts).check(schedule)
}

/// Parses schedule text and verifies it, surfacing parse failures as `V001`
/// diagnostics instead of panics or bare errors.
///
/// Returns the parsed sequence (when parsing succeeded) alongside the
/// report, so callers can keep the sequence without re-parsing.
pub fn check_text(
    subgraph: &Subgraph,
    text: &str,
    opts: &VerifyOptions,
) -> (Option<ScheduleSequence>, Report) {
    match tlp_schedule::parse_schedule(text) {
        Ok(seq) => {
            let report = verify_with(subgraph, &seq, opts);
            (Some(seq), report)
        }
        Err(e) => {
            let where_ = match e.line_number() {
                Some(n) => format!(" (line {n})"),
                None => String::new(),
            };
            let report = Report::new(vec![Diagnostic::global(
                Code::ParseFailure,
                Severity::Error,
                format!("{e}{where_}"),
            )]);
            (None, report)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind};
    use tlp_workload::{AnchorOp, FusedOp};

    fn dense() -> Subgraph {
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 64,
                n: 128,
                k: 256,
            },
        )
        .with_fused([FusedOp::Relu])
    }

    fn seq(prims: Vec<ConcretePrimitive>) -> ScheduleSequence {
        prims.into_iter().collect()
    }

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn valid_cpu_schedule_is_clean() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu"),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 4, 4]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([128, 4, 8]),
            ConcretePrimitive::new(PrimitiveKind::Fuse, "dense").with_loops(["i.0", "j.0"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0@j.0"])
                .with_extras(["parallel"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["j.2"])
                .with_extras(["vectorize"]),
            ConcretePrimitive::new(PrimitiveKind::Pragma, "dense")
                .with_ints([512])
                .with_extras(["auto_unroll_max_step"]),
        ]);
        let r = verify(&dense(), &s);
        assert!(r.is_clean(), "unexpected diagnostics:\n{r}");
    }

    #[test]
    fn dangling_and_consumed_references() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 8]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i"])
                .with_extras(["parallel"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["zz"])
                .with_extras(["vectorize"]),
        ]);
        let r = verify(&dense(), &s);
        assert!(codes(&r).contains(&Code::UseAfterConsume));
        assert!(codes(&r).contains(&Code::UnknownVar));
        assert!(!r.passes());
    }

    #[test]
    fn split_checks() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 0]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["q"])
                .with_ints([64, 8]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([999, 4]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["k"])
                .with_ints([256, 512]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense").with_loops(["k"]),
        ]);
        let r = verify(&dense(), &s);
        let c = codes(&r);
        assert!(c.contains(&Code::NonPositiveFactor));
        assert!(c.contains(&Code::SplitOfNonAxis));
        assert!(c.contains(&Code::SplitExtentMismatch));
        assert!(c.contains(&Code::OversizedTileProduct));
        assert!(c.contains(&Code::RepeatedAxisSplit));
        assert!(c.contains(&Code::MissingSplitFactors));
    }

    #[test]
    fn gpu_binding_completeness() {
        // Thread bind without any block bind.
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 16]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.1"])
                .with_extras(["threadIdx.x"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0"])
                .with_extras(["threadIdx.x"]),
        ]);
        let r = verify(&dense(), &s);
        let c = codes(&r);
        assert!(c.contains(&Code::MissingBlockBinding));
        assert!(c.contains(&Code::DuplicateThreadBinding));
        assert!(!c.contains(&Code::MissingThreadBinding));
    }

    #[test]
    fn occupancy_and_mixing_are_warnings() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([128, 2048]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["j.0"])
                .with_extras(["blockIdx.x"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["j.1"])
                .with_extras(["threadIdx.x"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i"])
                .with_extras(["parallel"]),
        ]);
        let r = verify(&dense(), &s);
        for code in [Code::OccupancyExceeded, Code::MixedDeviceAnnotations] {
            let d = r
                .diagnostics
                .iter()
                .find(|d| d.code == code)
                .unwrap_or_else(|| panic!("missing {code}"));
            assert_eq!(d.severity, Severity::Warn);
        }
        // Warnings alone still pass the gate (the tile product of 2048 also
        // warns as oversized).
        assert!(r.passes());
    }

    #[test]
    fn pinned_device_makes_bindings_mandatory() {
        let cpu_sched = seq(vec![ConcretePrimitive::new(
            PrimitiveKind::Annotation,
            "dense",
        )
        .with_loops(["i"])
        .with_extras(["parallel"])]);
        let gpu_opts = VerifyOptions { gpu: Some(true) };
        let r = verify_with(&dense(), &cpu_sched, &gpu_opts);
        let c = codes(&r);
        assert!(c.contains(&Code::MissingThreadBinding));
        assert!(c.contains(&Code::MissingBlockBinding));

        let cpu_opts = VerifyOptions { gpu: Some(false) };
        assert!(verify_with(&dense(), &cpu_sched, &cpu_opts).is_clean());
    }

    #[test]
    fn inlined_stage_reuse_warns() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu"),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "relu")
                .with_loops(["i"])
                .with_extras(["parallel"]),
        ]);
        let r = verify(&dense(), &s);
        assert!(codes(&r).contains(&Code::InlinedStageReuse));
    }

    #[test]
    fn cache_stage_requires_declaration() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::ComputeAt, "cache").with_loops(["i"]),
            ConcretePrimitive::new(PrimitiveKind::CacheWrite, "dense"),
        ]);
        let r = verify(&dense(), &s);
        assert!(codes(&r).contains(&Code::CacheStageUndeclared));
        // Declared-then-used is fine.
        let ok = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::CacheWrite, "dense"),
            ConcretePrimitive::new(PrimitiveKind::ComputeAt, "cache").with_loops(["i"]),
        ]);
        assert!(!codes(&verify(&dense(), &ok)).contains(&Code::CacheStageUndeclared));
    }

    #[test]
    fn mirror_splits_skip_liveness_but_not_signs() {
        // The cache stage re-splits an axis the anchor already consumed;
        // that mirrors the anchor's tiling and must not be flagged.
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::CacheWrite, "dense"),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([128, 4, 8]),
            ConcretePrimitive::new(PrimitiveKind::FollowSplit, "cache")
                .with_loops(["j"])
                .with_ints([128, 32]),
        ]);
        assert!(verify(&dense(), &s).is_clean());
        let bad = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::CacheWrite, "dense"),
            ConcretePrimitive::new(PrimitiveKind::FollowSplit, "cache")
                .with_loops(["j"])
                .with_ints([128, -4]),
        ]);
        assert!(!verify(&dense(), &bad).passes());
    }

    #[test]
    fn rfactor_axis_class() {
        let spatial = seq(vec![ConcretePrimitive::new(
            PrimitiveKind::Rfactor,
            "dense",
        )
        .with_loops(["i"])
        .with_ints([1])]);
        assert!(codes(&verify(&dense(), &spatial)).contains(&Code::RfactorOnSpatialVar));
        let reduction = seq(vec![ConcretePrimitive::new(
            PrimitiveKind::Rfactor,
            "dense",
        )
        .with_loops(["k"])
        .with_ints([1])]);
        assert!(verify(&dense(), &reduction).is_clean());
    }

    #[test]
    fn check_text_surfaces_parse_failures() {
        let sg = dense();
        let (seq, r) = check_text(&sg, "SP(dense, i, [64, 8])", &VerifyOptions::default());
        assert!(seq.is_some());
        assert!(r.is_clean());

        let (seq, r) = check_text(
            &sg,
            "SP(dense, i, [64, 8])\nNOPE(x",
            &VerifyOptions::default(),
        );
        assert!(seq.is_none());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, Code::ParseFailure);
        assert!(r.diagnostics[0].message.contains("line 2"));
    }

    #[test]
    fn unknown_names_warn_and_lint() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Annotation, "mystery")
                .with_loops(["i"])
                .with_extras(["hyperdrive"]),
            ConcretePrimitive::new(PrimitiveKind::Pragma, "dense").with_extras(["wat"]),
        ]);
        let r = verify(&dense(), &s);
        let c = codes(&r);
        assert!(c.contains(&Code::UnknownStage));
        assert!(c.contains(&Code::UnknownAnnotation));
        assert!(c.contains(&Code::UnknownPragma));
        assert!(r.passes(), "names outside the vocabulary are not fatal");
    }
}
