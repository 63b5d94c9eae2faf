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
//! length. A name of at most eight bytes is its key, so it is compared as
//! one word and never copied; a split part's key (`oc.2`) is built from its
//! axis's key by arithmetic. Only longer names (most fused names) keep their
//! bytes, in an arena, to tell apart names that share a key. The subgraph's
//! axes are the first entries, so the index also answers which original axis
//! a name denotes. The index doubles before it is half full, so a schedule
//! with any number of names fits.

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::{Ctx, Step};
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

    /// The key of the split part `name.{part}`, where `self` is `name`'s
    /// key, if that part's name is at most eight bytes long.
    fn part(self, part: usize) -> Option<Key> {
        // `.{part}` as little-endian bytes: the dot, then the digits, most
        // significant first.
        let (mut digits, mut len, mut n) = (0u64, 1, part);
        loop {
            if self.len + len >= 8 {
                return None;
            }
            digits = digits << 8 | u64::from(b'0' + (n % 10) as u8);
            len += 1;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        Some(Key {
            prefix: self.prefix | (digits << 8 | u64::from(b'.')) << (8 * self.len),
            len: self.len + len,
        })
    }

    /// The slot a probe for this key starts at, in a table of `mask + 1`
    /// slots (a power of two).
    fn home(self, mask: usize) -> usize {
        let h =
            (self.prefix ^ (self.len as u64).rotate_right(8)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & mask
    }
}

struct Var {
    key: Key,
    /// Where the name's bytes start in `Env::names`; names of at most eight
    /// bytes keep none there.
    start: usize,
    state: State,
}

/// Slots in a fresh index: room for 32 names at half load, which covers a
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
struct Env {
    /// The subgraph's axes are the first `axes` entries, in order.
    axes: usize,
    /// Bytes of the names longer than eight bytes.
    names: Vec<u8>,
    vars: Vec<Var>,
    /// Entry index + 1 per slot; 0 marks an empty slot.
    slots: Vec<usize>,
}

impl Default for Env {
    /// Room for a typical schedule's names up front: a verifier built for
    /// one check (`verify_with`) should not pay for growing its buffers step
    /// by step.
    fn default() -> Self {
        Env {
            axes: 0,
            names: Vec::with_capacity(256),
            vars: Vec::with_capacity(MIN_SLOTS / 2),
            slots: Vec::with_capacity(MIN_SLOTS),
        }
    }
}

impl Env {
    fn clear(&mut self) {
        self.names.clear();
        self.vars.clear();
        self.slots.clear();
        self.slots.resize(MIN_SLOTS, 0);
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
        let d = match self.probe(Key::of(name), name).map(|i| self.vars[i].state) {
            Ok(State::Live { extent }) => return Some(extent),
            Ok(State::Consumed { at }) => Diagnostic::at(
                Code::UseAfterConsume,
                Severity::Error,
                step,
                format!("loop variable `{var}` was consumed at step {at}"),
            ),
            Err(_) => Diagnostic::at(
                Code::UnknownVar,
                Severity::Error,
                step,
                format!("loop variable `{var}` is not defined"),
            ),
        };
        out.push(d);
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

    /// Gives `name` the state `state`, spelling it into the arena only when
    /// it is longer than eight bytes.
    fn set_name(&mut self, name: &[u8], state: State) {
        let key = Key::of(name);
        let start = self.names.len();
        if key.len > 8 {
            self.names.extend_from_slice(name);
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
            Ok(i) => self.consume_entry(i, step),
            Err(_) => self.set_name(name, State::Consumed { at: step }),
        }
    }

    fn consume_entry(&mut self, i: usize, step: usize) {
        if let State::Live { .. } = self.vars[i].state {
            self.vars[i].state = State::Consumed { at: step };
        }
    }

    /// The position of the subgraph axis named `name`, which is also its
    /// entry's.
    fn axis(&self, key: Key, name: &[u8]) -> Option<usize> {
        self.probe(key, name).ok().filter(|&i| i < self.axes)
    }

    /// Defines `name` as live.
    fn define(&mut self, name: &[u8], extent: i64) {
        self.set_name(name, State::Live { extent });
    }

    /// Defines the `@`-joined name of a fuse's operands.
    fn define_fused(&mut self, operands: &[String], extent: i64) {
        let start = self.names.len();
        for (i, v) in operands.iter().enumerate() {
            if i > 0 {
                self.names.push(b'@');
            }
            self.names.extend_from_slice(v.as_bytes());
        }
        self.set_spelled(start, State::Live { extent });
    }

    /// Defines the split part `var.{part}`, where `base` is `var`'s key. A
    /// part name of at most eight bytes gets its key by arithmetic on
    /// `base`; a longer one is spelled into the arena.
    fn define_part(&mut self, var: &str, base: Key, part: usize, extent: i64) {
        let state = State::Live { extent };
        if let Some(key) = base.part(part) {
            return self.set(key, self.names.len(), state);
        }
        let start = self.names.len();
        self.names.extend_from_slice(var.as_bytes());
        self.names.push(b'.');
        push_decimal(&mut self.names, part);
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
    /// What the walk observed about hardware bindings.
    pub(crate) fn facts(&self) -> &Facts {
        &self.facts
    }

    /// The original axis `var` names, if any: the environment's first
    /// entries are the subgraph's axes, and no entry is ever removed.
    pub(crate) fn axis_index(&self, var: &str) -> Option<usize> {
        self.env.axis(Key::of(var.as_bytes()), var.as_bytes())
    }

    /// Resets the environment to the subgraph's axes, all live.
    pub(crate) fn start(&mut self, ctx: &Ctx<'_>) {
        let env = &mut self.env;
        env.clear();
        for axis in &ctx.axes {
            env.define(axis.name.as_bytes(), axis.extent);
        }
        // A subgraph's axis names are distinct, so each got its own entry.
        debug_assert_eq!(env.vars.len(), ctx.axes.len());
        env.axes = ctx.axes.len();
        self.inlined.clear();
        self.facts.binds.clear();
        self.facts.first_cpu_annotation = None;
    }

    /// Threads the environment through step `s` of `steps`.
    pub(crate) fn step(
        &mut self,
        ctx: &Ctx<'_>,
        steps: &[ConcretePrimitive],
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
            split_axis,
            ..
        } = s;
        if let Some(&at) = inlined.iter().find(|&&at| steps[at].stage == p.stage) {
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
                if let Some(index) = split_axis {
                    apply_anchor_split(ctx, env, index, step, p);
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
                env.define_fused(&p.loop_vars, product);
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

/// Mirrors `tlp_hwsim::lower`'s split handling: valid splits of an original
/// axis (the axis at `index`) consume the axis name and define `var.0`
/// (outer) through `var.k`. Invalid splits (wrong arity, non-positive
/// factors) leave the environment untouched — passes 1 and 3 already reject
/// them.
fn apply_anchor_split(
    ctx: &Ctx<'_>,
    env: &mut Env,
    index: usize,
    step: usize,
    p: &ConcretePrimitive,
) {
    let Some(var) = p.loop_vars.first() else {
        return;
    };
    if p.ints.len() < 2 || p.ints.iter().any(|&f| f <= 0) {
        return;
    }
    let extent = ctx.axes[index].extent;
    let factors = &p.ints[1..];
    let inner_product = factors
        .iter()
        .fold(1i64, |acc, &f| acc.saturating_mul(f))
        .max(1);
    let outer = (extent / inner_product + i64::from(extent % inner_product != 0)).max(1);
    env.consume_entry(index, step);
    let base = Key::of(var.as_bytes());
    let extents = std::iter::once(outer).chain(factors.iter().copied());
    for (part, extent) in extents.enumerate() {
        env.define_part(var, base, part, extent);
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
