//! Pass 2 — loop-variable dataflow.
//!
//! Threads an environment of live loop variables through the sequence,
//! mirroring the lowerer's live map: original axes are live initially, an
//! anchor-stage split consumes its axis and defines `var.0..var.k` sub-loops,
//! and a fuse defines the `@`-joined variable. References to variables that
//! were never defined ([`Code::UnknownVar`]) or were already consumed
//! ([`Code::UseAfterConsume`]) are errors.
//!
//! # Soundness contract
//!
//! The environment here is a *subset* of the lowerer's live map at every
//! step: both apply identical definitions, but this pass additionally
//! consumes the operands of a fuse (the lowerer keeps them live). Therefore
//! any variable the lowerer rejects is also dead here, and a schedule with no
//! dataflow errors can never hit `LowerError::UnknownLoopVar`. The converse
//! strictness (flagging fuse-operand reuse the lowerer tolerates) is
//! intentional: it marks corrupted schedules.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::Ctx;
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};

/// A `blockIdx.*` / `threadIdx.*` binding observed while threading the
/// environment, with the bound loop's extent when it was resolvable.
pub(crate) struct Bind {
    pub step: usize,
    /// Index of the binding's axis name in the step's `extras`.
    extra: usize,
    /// `threadIdx.*` (else `blockIdx.*`).
    pub thread: bool,
    pub extent: Option<i64>,
}

impl Bind {
    /// The hardware axis this binding names, e.g. `threadIdx.x`.
    pub(crate) fn axis<'s>(&self, schedule: &'s ScheduleSequence) -> &'s str {
        &schedule.primitives()[self.step].extras[self.extra]
    }
}

/// Facts the GPU pass consumes.
#[derive(Default)]
pub(crate) struct Facts {
    pub binds: Vec<Bind>,
    /// First step carrying a CPU-only annotation (`parallel`, `vectorize`).
    pub first_cpu_annotation: Option<usize>,
}

#[derive(Clone, Copy)]
enum State {
    Live { extent: i64 },
    Consumed { at: usize },
}

struct Var {
    /// The name is `Env::names[start..end]`.
    start: usize,
    end: usize,
    state: State,
}

/// The name's first eight bytes, zero-padded: together with the length,
/// the whole name when it is that short.
fn prefix_of(name: &[u8]) -> u64 {
    match name.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => name
            .iter()
            .rev()
            .fold(0, |word, &b| (word << 8) | u64::from(b)),
    }
}

/// The loop-variable environment: a log of every definition and consumption
/// so far, newest last, as one byte arena and one flat table. A name's
/// current state is its newest entry, so defining a name appends without
/// looking it up; a lookup scans the prefixes (a schedule keeps a few dozen
/// names at most) and confirms a long name against the arena. All three
/// buffers are cleared, not freed, between schedules.
struct Env {
    names: Vec<u8>,
    /// `prefix_of` each entry's name, parallel to `vars`.
    prefixes: Vec<u64>,
    vars: Vec<Var>,
}

impl Default for Env {
    /// Room for a typical schedule's names up front: a verifier built for
    /// one check (`verify_with`) should not pay for growing three vectors
    /// step by step.
    fn default() -> Self {
        const NAMES: usize = 64;
        Env {
            names: Vec::with_capacity(8 * NAMES),
            prefixes: Vec::with_capacity(NAMES),
            vars: Vec::with_capacity(NAMES),
        }
    }
}

impl Env {
    fn clear(&mut self) {
        self.names.clear();
        self.prefixes.clear();
        self.vars.clear();
    }

    fn find(&self, name: &[u8]) -> Option<usize> {
        let prefix = prefix_of(name);
        let mut end = self.prefixes.len();
        while let Some(i) = self.prefixes[..end].iter().rposition(|&p| p == prefix) {
            let v = &self.vars[i];
            if v.end - v.start == name.len()
                && (name.len() <= 8 || self.names[v.start..v.end] == *name)
            {
                return Some(i);
            }
            end = i;
        }
        None
    }

    /// Looks up `var`, emitting V201/V202 at `step` on failure.
    fn resolve(&self, var: &str, step: usize, out: &mut Vec<Diagnostic>) -> Option<i64> {
        let d = match self.find(var.as_bytes()).map(|i| self.vars[i].state) {
            Some(State::Live { extent }) => return Some(extent),
            Some(State::Consumed { at }) => Diagnostic::at(
                Code::UseAfterConsume,
                Severity::Error,
                step,
                format!("loop variable `{var}` was consumed at step {at}"),
            ),
            None => Diagnostic::at(
                Code::UnknownVar,
                Severity::Error,
                step,
                format!("loop variable `{var}` is not defined"),
            ),
        };
        out.push(d);
        None
    }

    /// Appends an entry for the name `spell` writes to the arena.
    fn push(&mut self, spell: impl FnOnce(&mut Vec<u8>), state: State) {
        let start = self.names.len();
        spell(&mut self.names);
        let end = self.names.len();
        self.prefixes.push(prefix_of(&self.names[start..end]));
        self.vars.push(Var { start, end, state });
    }

    /// Consumes `var` at `step`. A name consumed twice keeps the first step;
    /// a name that was never defined is recorded all the same, so a later
    /// reference to it reads as use-after-consume.
    fn consume(&mut self, var: &str, step: usize) {
        let consumed = State::Consumed { at: step };
        match self.find(var.as_bytes()) {
            Some(i) => {
                if let State::Live { .. } = self.vars[i].state {
                    self.vars[i].state = consumed;
                }
            }
            None => self.push(|name| name.extend_from_slice(var.as_bytes()), consumed),
        }
    }

    fn define(&mut self, spell: impl FnOnce(&mut Vec<u8>), extent: i64) {
        self.push(spell, State::Live { extent });
    }
}

/// The pass and what it keeps from one schedule to the next: the
/// environment's storage, the compute-inline steps seen so far, and the
/// facts handed to the GPU pass.
#[derive(Default)]
pub(crate) struct Flow {
    env: Env,
    /// Steps of the first compute-inline of each stage.
    inlined: Vec<usize>,
    facts: Facts,
}

impl Flow {
    /// What the last [`Flow::check`] observed about hardware bindings.
    pub(crate) fn facts(&self) -> &Facts {
        &self.facts
    }

    pub(crate) fn check(
        &mut self,
        ctx: &Ctx<'_>,
        schedule: &ScheduleSequence,
        out: &mut Vec<Diagnostic>,
    ) {
        let Flow {
            env,
            inlined,
            facts,
        } = self;
        env.clear();
        for axis in &ctx.axes {
            env.define(
                |name| name.extend_from_slice(axis.name.as_bytes()),
                axis.extent,
            );
        }
        inlined.clear();
        facts.binds.clear();
        facts.first_cpu_annotation = None;
        let steps = schedule.primitives();

        for (step, p) in steps.iter().enumerate() {
            if let Some(&at) = inlined.iter().find(|&&at| steps[at].stage == p.stage) {
                out.push(Diagnostic::at(
                    Code::InlinedStageReuse,
                    Severity::Warn,
                    step,
                    format!("stage `{}` was compute-inlined at step {at}", p.stage),
                ));
            }
            match p.kind {
                PrimitiveKind::Split
                | PrimitiveKind::FollowSplit
                | PrimitiveKind::FollowFusedSplit => {
                    // Mirror-stage splits (cache/shared) replay the anchor's
                    // tiling over the original axis names and never touch the
                    // anchor's environment; only anchor splits restructure it.
                    if p.stage == ctx.anchor {
                        apply_anchor_split(ctx, env, step, p);
                    }
                }
                PrimitiveKind::Fuse => {
                    if p.loop_vars.is_empty() {
                        out.push(Diagnostic::at(
                            Code::EmptyFuse,
                            Severity::Warn,
                            step,
                            "fuse of zero loops defines a degenerate variable",
                        ));
                    }
                    let mut product: i64 = 1;
                    for v in &p.loop_vars {
                        if let Some(e) = env.resolve(v, step, out) {
                            product = product.saturating_mul(e);
                        }
                    }
                    for v in &p.loop_vars {
                        env.consume(v, step);
                    }
                    env.define(
                        |name| {
                            for (i, v) in p.loop_vars.iter().enumerate() {
                                if i > 0 {
                                    name.push(b'@');
                                }
                                name.extend_from_slice(v.as_bytes());
                            }
                        },
                        product,
                    );
                }
                PrimitiveKind::Annotation => {
                    // Missing loop var is the well-formedness pass's V101.
                    let extent = p.loop_vars.first().and_then(|v| env.resolve(v, step, out));
                    for (extra, ann) in p.extras.iter().enumerate() {
                        let thread = ann.starts_with("threadIdx.");
                        if thread || ann.starts_with("blockIdx.") {
                            facts.binds.push(Bind {
                                step,
                                extra,
                                thread,
                                extent,
                            });
                        } else if ann == "parallel" || ann == "vectorize" {
                            facts.first_cpu_annotation.get_or_insert(step);
                        }
                    }
                }
                PrimitiveKind::Reorder => {
                    for v in &p.loop_vars {
                        env.resolve(v, step, out);
                    }
                }
                PrimitiveKind::ComputeAt | PrimitiveKind::Rfactor => {
                    if let Some(v) = p.loop_vars.first() {
                        env.resolve(v, step, out);
                    }
                }
                PrimitiveKind::ComputeInline => {
                    if !inlined.iter().any(|&at| steps[at].stage == p.stage) {
                        inlined.push(step);
                    }
                }
                PrimitiveKind::Pragma
                | PrimitiveKind::CacheWrite
                | PrimitiveKind::CacheRead
                | PrimitiveKind::ComputeRoot
                | PrimitiveKind::StorageAlign => {}
            }
        }
    }
}

/// Mirrors `tlp_hwsim::lower`'s split handling: valid splits of an original
/// axis consume the axis name and define `var.0` (outer) through `var.k`.
/// Invalid splits (wrong arity, non-positive factors, non-axis target) leave
/// the environment untouched — passes 1 and 3 already reject them.
fn apply_anchor_split(ctx: &Ctx<'_>, env: &mut Env, step: usize, p: &ConcretePrimitive) {
    let Some(var) = p.loop_vars.first() else {
        return;
    };
    let Some(axis) = ctx.axis(var) else {
        return;
    };
    if p.ints.len() < 2 || p.ints.iter().any(|&f| f <= 0) {
        return;
    }
    let factors = &p.ints[1..];
    let inner_product = factors
        .iter()
        .fold(1i64, |acc, &f| acc.saturating_mul(f))
        .max(1);
    let outer = (axis.extent / inner_product + i64::from(axis.extent % inner_product != 0)).max(1);
    env.consume(var, step);
    let extents = std::iter::once(outer).chain(factors.iter().copied());
    for (part, extent) in extents.enumerate() {
        env.define(
            |name| {
                name.extend_from_slice(var.as_bytes());
                name.push(b'.');
                push_decimal(name, part);
            },
            extent,
        );
    }
}

fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}
