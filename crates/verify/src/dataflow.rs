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
//!
//! # The environment
//!
//! One entry per name, holding the name's current state, found through an
//! open-addressed index keyed on the name's first eight bytes and its
//! length. The subgraph's axes are its first entries; a split consumes its
//! axis and spells each part's name (`oc.0`, `oc.1`, …) into it, and a fuse
//! spells its `@`-joined name. A name of at most eight bytes is its key, so
//! it is compared as one word and never kept; only longer names (most fused
//! names) keep their bytes, in an arena, to tell apart names that share a
//! key. The index doubles before it is half full, so a schedule with any
//! number of names fits. A definition overwrites a name's entry, a second
//! consumption keeps the first step, and a name consumed before it is
//! defined reads as use-after-consume.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::{Ctx, Step};
use tlp_schedule::{Names, PrimitiveKind, ScheduleSequence};
use tlp_workload::LoopSpec;

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
        let p = schedule.get(self.step);
        // The step and the extra were read off this schedule.
        p.and_then(|p| p.extras.get(self.extra)).unwrap_or_default()
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

/// A name as the index sees it: its first eight bytes, zero-padded, and its
/// length. A name of at most eight bytes is its key; a longer one is told
/// apart from others with the same key by its bytes in the arena.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    prefix: u64,
    len: usize,
}

impl Key {
    /// Reads the prefix in at most three loads, overlapping ones for names
    /// shorter than a word, instead of folding it in byte by byte.
    pub(crate) fn of(name: &[u8]) -> Key {
        let len = name.len();
        let prefix = if let Some(word) = name.first_chunk::<8>() {
            u64::from_le_bytes(*word)
        } else if len >= 4 {
            let lo = u64::from(u32::from_le_bytes([name[0], name[1], name[2], name[3]]));
            let tail = &name[len - 4..];
            let hi = u64::from(u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]));
            lo | hi << (8 * (len - 4))
        } else if len > 0 {
            u64::from(name[0])
                | u64::from(name[len / 2]) << (8 * (len / 2))
                | u64::from(name[len - 1]) << (8 * (len - 1))
        } else {
            0
        };
        Key { prefix, len }
    }

    /// The name's length in bytes.
    pub(crate) fn len(self) -> usize {
        self.len
    }

    /// Whether this is the key of `name`, a name of at most eight bytes.
    pub(crate) fn is(self, name: &str) -> bool {
        debug_assert!(name.len() <= 8);
        self == Key::of(name.as_bytes())
    }

    /// The slot a probe for this key starts at, in a table of `mask + 1`
    /// slots (a power of two).
    fn home(self, mask: usize) -> usize {
        let h =
            (self.prefix ^ (self.len as u64).rotate_right(8)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & mask
    }
}

/// One name's entry in the environment.
struct Var {
    key: Key,
    /// Where the name's bytes start in `Env::names`; names of at most eight
    /// bytes keep none there.
    start: usize,
    state: State,
}

/// A fresh index's size: room for 32 names at half load, which covers a
/// conv2d schedule's axes, split parts and fused names.
const MIN_SLOTS: usize = 64;

/// The loop-variable environment: one entry per name seen so far, each
/// holding that name's current state, and an open-addressed index from a
/// name's [`Key`] to its entry. Defining a name that already has an entry
/// overwrites its state, so the entry always says what the newest
/// definition or consumption did. The index stays at most half full and
/// doubles when it would not, so any number of names fits; names crafted to
/// share a slot cost at most one probe per entry, what a linear scan costs.
/// The buffers are cleared, not freed, between schedules, and the index
/// shrinks back to [`MIN_SLOTS`] without giving up its allocation.
#[derive(Default)]
struct Env {
    /// Bytes of the names longer than eight bytes.
    names: Vec<u8>,
    vars: Vec<Var>,
    /// Entry index + 1 per slot; 0 marks an empty slot.
    slots: Vec<usize>,
}

impl Env {
    /// Resets the environment to the subgraph's axes, all live. The first
    /// call also makes room for a typical schedule's names, so a verifier
    /// built for one check (`verify_with`) does not grow its buffers step by
    /// step, and building a verifier allocates nothing here.
    fn start(&mut self, axes: &[LoopSpec]) {
        self.names.clear();
        self.names.reserve(256);
        self.vars.clear();
        self.vars.reserve(MIN_SLOTS / 2);
        self.slots.clear();
        self.slots.resize(MIN_SLOTS, 0);
        for axis in axes {
            let extent = axis.extent;
            self.set_name(axis.name.as_bytes(), State::Live { extent });
        }
    }

    /// The entry for `name`, or the empty slot where its entry would go.
    fn probe(&self, key: Key, name: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = key.home(mask);
        loop {
            let Some(i) = self.slots[slot].checked_sub(1) else {
                return Err(slot);
            };
            let v = &self.vars[i];
            if v.key == key && (key.len <= 8 || self.names[v.start..v.start + key.len] == *name) {
                return Ok(i);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Looks up `var`, emitting V201/V202 at `step` on failure.
    fn resolve(&self, var: &str, step: usize, out: &mut Vec<Diagnostic>) -> Option<i64> {
        let name = var.as_bytes();
        let state = self
            .probe(Key::of(name), name)
            .ok()
            .map(|i| self.vars[i].state);
        if let Some(State::Live { extent }) = state {
            return Some(extent);
        }
        out.push(unresolved(var, step, state));
        None
    }

    /// Gives the name with `key` the state `state`: overwrites its entry, or
    /// adds one. A name longer than eight bytes is spelled at
    /// `names[start..]`, and the arena keeps those bytes only for a new entry.
    fn set(&mut self, key: Key, start: usize, state: State) {
        match self.probe(key, &self.names[start..]) {
            Ok(i) => {
                self.vars[i].state = state;
                self.names.truncate(start);
            }
            Err(slot) => {
                self.vars.push(Var { key, start, state });
                self.slots[slot] = self.vars.len();
                if 2 * self.vars.len() > self.slots.len() {
                    self.grow();
                }
            }
        }
    }

    /// Gives `name` the state `state`.
    fn set_name(&mut self, name: &[u8], state: State) {
        let start = self.names.len();
        self.names.extend_from_slice(name);
        self.set_spelled(start, state);
    }

    /// Gives the name spelled at the arena's end, from `start`, the state
    /// `state`.
    fn set_spelled(&mut self, start: usize, state: State) {
        let key = Key::of(&self.names[start..]);
        if key.len <= 8 {
            self.names.truncate(start);
        }
        self.set(key, start, state);
    }

    /// Doubles the index and re-inserts every entry.
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (i, v) in self.vars.iter().enumerate() {
            let mut slot = v.key.home(mask);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = i + 1;
        }
    }

    /// Consumes `var` at `step`. A name consumed twice keeps the first step;
    /// a name that was never defined is recorded all the same, so a later
    /// reference to it reads as use-after-consume.
    fn consume(&mut self, var: &str, step: usize) {
        let name = var.as_bytes();
        match self.probe(Key::of(name), name) {
            Ok(i) => {
                if let State::Live { .. } = self.vars[i].state {
                    self.vars[i].state = State::Consumed { at: step };
                }
            }
            Err(_) => self.set_name(name, State::Consumed { at: step }),
        }
    }

    /// Defines the `@`-joined name of a fuse's operands.
    fn define_fused(&mut self, operands: Names<'_>, extent: i64) {
        let start = self.names.len();
        for (i, v) in operands.iter().enumerate() {
            if i > 0 {
                self.names.push(b'@');
            }
            self.names.extend_from_slice(v.as_bytes());
        }
        self.set_spelled(start, State::Live { extent });
    }

    /// Mirrors `tlp_hwsim::lower`'s split handling: a valid split of the
    /// axis `var` consumes it and defines `var.0` (outer, of extent `outer`)
    /// through `var.k` (of extents `factors`).
    fn split(&mut self, var: &str, step: usize, outer: i64, factors: &[i64]) {
        self.consume(var, step);
        let extents = std::iter::once(outer).chain(factors.iter().copied());
        for (part, extent) in extents.enumerate() {
            let start = self.names.len();
            self.names.extend_from_slice(var.as_bytes());
            self.names.push(b'.');
            push_decimal(&mut self.names, part);
            self.set_spelled(start, State::Live { extent });
        }
    }
}

/// The pass and what it keeps from one schedule to the next: the
/// environment's storage, the compute-inline steps seen so far, and the
/// facts handed to the GPU pass.
#[derive(Default)]
pub(crate) struct Flow {
    env: Env,
    /// Steps of the first compute-inline of each stage, with the stage's
    /// key: a stage of at most eight bytes is told apart by its key alone.
    inlined: Vec<(usize, Key)>,
    facts: Facts,
}

impl Flow {
    /// What the walk observed about hardware bindings.
    pub(crate) fn facts(&self) -> &Facts {
        &self.facts
    }

    /// Resets the environment to the subgraph's axes, all live.
    pub(crate) fn start(&mut self, ctx: &Ctx) {
        self.env.start(&ctx.axes);
        self.inlined.clear();
        self.facts.binds.clear();
        self.facts.first_cpu_annotation = None;
    }

    /// Threads the environment through step `s` of `schedule`.
    pub(crate) fn step(
        &mut self,
        ctx: &Ctx,
        schedule: &ScheduleSequence,
        s: Step<'_>,
        out: &mut Vec<Diagnostic>,
    ) {
        let Flow {
            env,
            inlined,
            facts,
        } = self;
        let Step {
            at: step,
            p,
            var,
            stage,
            split_axis,
            ..
        } = s;
        let inlined_here = |&(at, key): &(usize, Key)| {
            key == stage && (key.len <= 8 || schedule.get(at).is_some_and(|q| q.stage == p.stage))
        };
        if let Some(&(at, _)) = inlined.iter().find(|i| inlined_here(i)) {
            out.push(Diagnostic::at(
                Code::InlinedStageReuse,
                Severity::Warn,
                step,
                format!("stage `{}` was compute-inlined at step {at}", p.stage),
            ));
        }
        match p.kind {
            PrimitiveKind::Split | PrimitiveKind::FollowSplit | PrimitiveKind::FollowFusedSplit => {
                // Mirror-stage splits (cache/shared) replay the anchor's
                // tiling over the original axis names and never touch the
                // anchor's environment; only anchor splits restructure it.
                if let (Some(index), Some(var)) = (split_axis, var) {
                    apply_anchor_split(ctx, env, index, step, var, p.ints);
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
                env.define_fused(p.loop_vars, product);
            }
            PrimitiveKind::Annotation => {
                // Missing loop var is the well-formedness pass's V101.
                let extent = var.and_then(|v| env.resolve(v, step, out));
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
                if let Some(v) = var {
                    env.resolve(v, step, out);
                }
            }
            PrimitiveKind::ComputeInline => {
                if !inlined.iter().any(inlined_here) {
                    inlined.push((step, stage));
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

/// The V201/V202 finding for a reference to `var` at `step`, whose state is
/// `state`.
#[cold]
fn unresolved(var: &str, step: usize, state: Option<State>) -> Diagnostic {
    match state {
        Some(State::Consumed { at }) => Diagnostic::at(
            Code::UseAfterConsume,
            Severity::Error,
            step,
            format!("loop variable `{var}` was consumed at step {at}"),
        ),
        _ => Diagnostic::at(
            Code::UnknownVar,
            Severity::Error,
            step,
            format!("loop variable `{var}` is not defined"),
        ),
    }
}

/// Applies an anchor split of the axis at `index`, named `var`, when it is
/// valid. Invalid splits (wrong arity, non-positive factors in `ints`) leave
/// the environment untouched — passes 1 and 3 already reject them.
fn apply_anchor_split(
    ctx: &Ctx,
    env: &mut Env,
    index: usize,
    step: usize,
    var: &str,
    ints: &[i64],
) {
    if ints.len() < 2 || ints.iter().any(|&f| f <= 0) {
        return;
    }
    let extent = ctx.axes[index].extent;
    let factors = &ints[1..];
    let inner_product = factors
        .iter()
        .fold(1i64, |acc, &f| acc.saturating_mul(f))
        .max(1);
    let outer = (extent / inner_product + i64::from(extent % inner_product != 0)).max(1);
    env.split(var, step, outer, factors);
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
