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
//! Two stores, and a name's shape alone picks its store, so each name lives
//! in exactly one. The subgraph's axes and their split parts below a fixed
//! width (`oc`, `oc.0` … `oc.7`: an axis name, a dot, one digit) are slots
//! in one row per axis: an anchor split writes its parts with plain stores,
//! and `oc.2` resolves by splitting at the last dot, finding `oc` among the
//! few axis keys and reading one slot. Each slot carries the generation of
//! the check that wrote it, so a new check starts by bumping the
//! generation, and the rows are built once per verifier. Every other name —
//! fused `@` names, later parts, `oc.01`, names no sketch emits — lives in
//! an open-addressed index keyed on the name's first eight bytes and its
//! length: a name of at most eight bytes is its key, compared as one word
//! and never copied, and only longer names keep their bytes, in an arena.
//! The index doubles before it is half full, so a schedule with any number
//! of names fits. Both stores give a name the same life: a definition
//! overwrites, a second consumption keeps the first step, and a name
//! consumed before it is defined reads as use-after-consume.

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

/// Split parts per axis row: `oc.0` through `oc.7`. A sketch split defines
/// at most four parts, so every part sketch output names has a slot; a part
/// at or past the width lives in the index.
const WIDTH: usize = 8;

// A part below the width is spelled with one digit.
const _: () = assert!(WIDTH <= 10);

// A bucket holds a row number + 1 in a byte.
const _: () = assert!(BUCKETS < 256 && BUCKETS.is_power_of_two());

/// A state and the generation (the check) that wrote it, in 16 bytes; a
/// slot written by an earlier check reads as its starting state.
#[derive(Clone, Copy)]
struct Slot {
    generation: u32,
    consumed: bool,
    /// A live name's extent, or the step that consumed the name.
    value: i64,
}

impl Slot {
    const UNWRITTEN: Slot = Slot {
        generation: 0,
        consumed: false,
        value: 0,
    };

    fn state(self) -> State {
        if self.consumed {
            // Written from a step index, so it is not negative.
            State::Consumed {
                at: self.value as usize,
            }
        } else {
            State::Live { extent: self.value }
        }
    }
}

/// One subgraph axis: the axis's own slot, then its parts `0..WIDTH`.
struct Row {
    key: Key,
    name: &'static str,
    extent: i64,
    slots: [Slot; 1 + WIDTH],
}

/// Buckets of the table that finds an axis's row by its key.
const BUCKETS: usize = 32;

/// The subgraph's axes and their split parts below [`WIDTH`], one row per
/// axis in loop-nest order, so a part is a slot and not a hash entry. A
/// bucket table, hashed with a multiplier chosen so that no two axes share
/// a bucket, finds an axis's row in one probe; when no multiplier tried
/// separates them (never, for a handful of axes), the rows are scanned. A
/// slot stamped with an older generation holds its starting state — live at
/// the axis's extent for the axis, undefined for a part — so a new check
/// starts by bumping the generation instead of rewriting the rows.
#[derive(Default)]
struct Rows {
    rows: Vec<Row>,
    /// Row number + 1 per bucket; 0 marks an empty bucket.
    buckets: [u8; BUCKETS],
    /// The hash multiplier, or 0 when the rows are scanned.
    multiplier: u64,
    generation: u32,
}

impl Rows {
    /// Starts a check against the subgraph's `axes`. The first call builds
    /// the rows; later ones only move to a new generation.
    fn start(&mut self, axes: &[LoopSpec]) {
        if self.rows.len() != axes.len() {
            self.build(axes);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            for slot in self.rows.iter_mut().flat_map(|row| &mut row.slots) {
                slot.generation = 0;
            }
            self.generation = 1;
        }
    }

    fn build(&mut self, axes: &[LoopSpec]) {
        self.rows.clear();
        self.rows.reserve_exact(axes.len());
        self.generation = 0;
        for spec in axes {
            // Routing reads a trailing `.<digit>` as a part and `@` as a
            // fuse, so an axis name has neither, and it is not empty.
            debug_assert!(!matches!(
                spec.name.as_bytes(),
                [] | [.., b'.', b'0'..=b'9']
            ));
            debug_assert!(!spec.name.contains('@'));
            self.rows.push(Row {
                key: Key::of(spec.name.as_bytes()),
                name: spec.name,
                extent: spec.extent,
                slots: [Slot::UNWRITTEN; 1 + WIDTH],
            });
        }
        self.multiplier = (0..32u64)
            .map(|i| {
                0x9e37_79b9_7f4a_7c15u64.wrapping_add(i.wrapping_mul(0x632b_e59b_d9b4_e01a)) | 1
            })
            .find(|&m| self.separates(m))
            .unwrap_or(0);
        if self.multiplier == 0 {
            self.buckets = [0; BUCKETS];
        }
    }

    /// Fills the buckets under multiplier `m`, if every row gets a bucket of
    /// its own (so a row number fits a bucket's byte).
    fn separates(&mut self, m: u64) -> bool {
        self.buckets = [0; BUCKETS];
        for (i, row) in self.rows.iter().enumerate() {
            let b = bucket(row.key, m);
            if self.buckets[b] != 0 {
                return false;
            }
            self.buckets[b] = i as u8 + 1;
        }
        true
    }

    /// The row of the subgraph axis named `name`, which is the axis's
    /// position in the loop nest.
    #[inline(always)]
    fn row(&self, name: &[u8]) -> Option<usize> {
        if self.multiplier == 0 {
            return self.scan(name);
        }
        let key = Key::of(name);
        let i = usize::from(self.buckets[bucket(key, self.multiplier)]).checked_sub(1)?;
        let row = &self.rows[i];
        (row.key == key && (key.len <= 8 || row.name.as_bytes() == name)).then_some(i)
    }

    /// [`Rows::row`] without the bucket table.
    #[cold]
    fn scan(&self, name: &[u8]) -> Option<usize> {
        self.rows.iter().position(|row| row.name.as_bytes() == name)
    }

    /// The row and slot `name` lives in: an axis's own slot, or the slot of
    /// a part `<axis>.<k>` with `k` one digit below [`WIDTH`]. Every other
    /// name lives in the index, so each name has one place.
    #[inline(always)]
    fn place(&self, name: &[u8]) -> Option<(usize, usize)> {
        let (axis, slot) = match *name {
            [ref axis @ .., b'.', digit @ b'0'..=b'9'] if usize::from(digit - b'0') < WIDTH => {
                (axis, 1 + usize::from(digit - b'0'))
            }
            _ => (name, 0),
        };
        self.row(axis).map(|row| (row, slot))
    }

    #[inline(always)]
    fn get(&self, (row, slot): (usize, usize)) -> Option<State> {
        let r = &self.rows[row];
        let s = r.slots[slot];
        if s.generation == self.generation {
            Some(s.state())
        } else if slot == 0 {
            Some(State::Live { extent: r.extent })
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, (row, slot): (usize, usize), state: State) {
        let (consumed, value) = match state {
            State::Live { extent } => (false, extent),
            State::Consumed { at } => (true, at as i64),
        };
        self.rows[row].slots[slot] = Slot {
            generation: self.generation,
            consumed,
            value,
        };
    }

    /// Consumes the name at `place`, keeping an earlier consumption's step.
    fn consume(&mut self, place: (usize, usize), step: usize) {
        if !matches!(self.get(place), Some(State::Consumed { .. })) {
            self.set(place, State::Consumed { at: step });
        }
    }
}

/// One name's entry in the index.
#[derive(Clone, Copy)]
struct Entry {
    key: Key,
    /// Where the name's bytes start in `Index::names`; names of at most
    /// eight bytes keep none there.
    start: usize,
    state: State,
}

/// Slots in a fresh index: room for 8 names at half load, which covers a
/// sketch schedule's fused names.
const MIN_SLOTS: usize = 16;

/// Every name without a row slot, each entry holding that name's current
/// state in an open-addressed table keyed on the name's [`Key`]. Defining a
/// name that already has an entry overwrites its state, so the entry always
/// says what the newest definition or consumption did. The table stays at
/// most half full and doubles when it would not, so any number of names
/// fits; names crafted to share a slot cost at most one probe per entry,
/// what a linear scan costs. The buffers are cleared, not freed, between
/// schedules, and the table shrinks back to [`MIN_SLOTS`] without giving up
/// its allocation.
#[derive(Default)]
struct Index {
    /// Bytes of the names longer than eight bytes.
    names: Vec<u8>,
    slots: Vec<Option<Entry>>,
    /// Entries in `slots`.
    len: usize,
    /// The storage the table had before it last doubled, reused when it
    /// doubles again.
    spare: Vec<Option<Entry>>,
}

impl Index {
    /// Empties the index. The first call also makes room for a typical
    /// schedule's names, so a verifier built for one check (`verify_with`)
    /// does not grow its buffers step by step, and building a verifier
    /// allocates nothing here.
    fn clear(&mut self) {
        self.names.clear();
        self.names.reserve(64);
        self.slots.clear();
        self.slots.resize(MIN_SLOTS, None);
        self.len = 0;
    }

    /// The slot holding `name`'s entry, or the empty slot where it would go.
    fn probe(&self, key: Key, name: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = key.home(mask);
        loop {
            let Some(e) = &self.slots[slot] else {
                return Err(slot);
            };
            if e.key == key && (key.len <= 8 || self.names[e.start..e.start + key.len] == *name) {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn get(&self, name: &[u8]) -> Option<State> {
        let slot = self.probe(Key::of(name), name).ok()?;
        self.slots[slot].map(|e| e.state)
    }

    /// Gives the name with `key` the state `state`: overwrites its entry, or
    /// adds one. A name longer than eight bytes is spelled at
    /// `names[start..]`, and the arena keeps those bytes only for a new entry.
    fn set(&mut self, key: Key, start: usize, state: State) {
        match self.probe(key, &self.names[start..]) {
            Ok(slot) => {
                if let Some(e) = &mut self.slots[slot] {
                    e.state = state;
                }
                self.names.truncate(start);
            }
            Err(slot) => {
                self.slots[slot] = Some(Entry { key, start, state });
                self.len += 1;
                if 2 * self.len > self.slots.len() {
                    self.grow();
                }
            }
        }
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

    /// Doubles the table and re-inserts every entry.
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        let mut old = std::mem::replace(&mut self.slots, std::mem::take(&mut self.spare));
        self.slots.clear();
        self.slots.resize(len, None);
        let mask = len - 1;
        for e in old.drain(..).flatten() {
            let mut slot = e.key.home(mask);
            while self.slots[slot].is_some() {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = Some(e);
        }
        self.spare = old;
    }

    /// Consumes `name` at `step`, keeping an earlier consumption's step.
    fn consume(&mut self, name: &[u8], step: usize) {
        let key = Key::of(name);
        match self.probe(key, name) {
            Ok(slot) => {
                if let Some(Entry {
                    state: state @ State::Live { .. },
                    ..
                }) = &mut self.slots[slot]
                {
                    *state = State::Consumed { at: step };
                }
            }
            Err(_) => {
                let start = self.names.len();
                self.names.extend_from_slice(name);
                self.set_spelled(start, State::Consumed { at: step });
            }
        }
    }
}

/// The loop-variable environment: the axes' rows plus the index. Where a
/// name lives follows from its shape alone ([`Rows::place`]), and both
/// stores give a name the same life: a definition overwrites, a second
/// consumption keeps the first step, and a name consumed before it is
/// defined reads as use-after-consume.
#[derive(Default)]
struct Env {
    rows: Rows,
    index: Index,
}

impl Env {
    /// Resets the environment to the subgraph's axes, all live.
    fn start(&mut self, axes: &[LoopSpec]) {
        self.rows.start(axes);
        self.index.clear();
    }

    /// Looks up `var`, emitting V201/V202 at `step` on failure.
    #[inline(always)]
    fn resolve(&self, var: &str, step: usize, out: &mut Vec<Diagnostic>) -> Option<i64> {
        let name = var.as_bytes();
        let state = match self.rows.place(name) {
            Some(place) => self.rows.get(place),
            None => self.index.get(name),
        };
        if let Some(State::Live { extent }) = state {
            return Some(extent);
        }
        out.push(unresolved(var, step, state));
        None
    }

    /// Consumes `var` at `step`. A name consumed twice keeps the first step;
    /// a name that was never defined is recorded all the same, so a later
    /// reference to it reads as use-after-consume.
    fn consume(&mut self, var: &str, step: usize) {
        let name = var.as_bytes();
        match self.rows.place(name) {
            Some(place) => self.rows.consume(place, step),
            None => self.index.consume(name, step),
        }
    }

    /// Defines the `@`-joined name of a fuse's operands. Only a fuse of one
    /// loop can define a name with a row slot, the loop's own; any other
    /// joins to a name with an `@`, or to the empty name, which no axis has.
    fn define_fused(&mut self, operands: Names<'_>, extent: i64) {
        let state = State::Live { extent };
        if let (1, Some(name)) = (operands.len(), operands.first()) {
            if let Some(place) = self.rows.place(name.as_bytes()) {
                return self.rows.set(place, state);
            }
        }
        let names = &mut self.index.names;
        let start = names.len();
        for (i, v) in operands.iter().enumerate() {
            if i > 0 {
                names.push(b'@');
            }
            names.extend_from_slice(v.as_bytes());
        }
        self.index.set_spelled(start, state);
    }

    /// Mirrors `tlp_hwsim::lower`'s split handling: a valid split of the
    /// axis `var`, whose row is `row`, consumes the axis and defines `var.0`
    /// (outer, of extent `outer`) through `var.k` (of extents `factors`).
    /// Parts below
    /// [`WIDTH`] are stores into the axis's row; later ones are spelled into
    /// the index.
    fn split(&mut self, row: usize, var: &str, step: usize, outer: i64, factors: &[i64]) {
        self.rows.consume((row, 0), step);
        let extents = std::iter::once(outer).chain(factors.iter().copied());
        for (part, extent) in extents.enumerate() {
            let state = State::Live { extent };
            if part < WIDTH {
                self.rows.set((row, 1 + part), state);
            } else {
                let names = &mut self.index.names;
                let start = names.len();
                names.extend_from_slice(var.as_bytes());
                names.push(b'.');
                push_decimal(names, part);
                self.index.set_spelled(start, state);
            }
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
    /// Whether `inlined` holds the anchor stage. Until it does, an anchor
    /// step, most of a schedule, skips the V204 scan: no entry can match.
    anchor_inlined: bool,
    facts: Facts,
}

impl Flow {
    /// What the walk observed about hardware bindings.
    pub(crate) fn facts(&self) -> &Facts {
        &self.facts
    }

    /// The original axis `var` names, if any.
    pub(crate) fn axis_index(&self, var: &str) -> Option<usize> {
        self.env.rows.row(var.as_bytes())
    }

    /// Resets the environment to the subgraph's axes, all live.
    pub(crate) fn start(&mut self, ctx: &Ctx) {
        self.env.start(&ctx.axes);
        self.inlined.clear();
        self.anchor_inlined = false;
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
            anchor_inlined,
            facts,
        } = self;
        let Step {
            at: step,
            p,
            var,
            stage,
            anchor,
            split_axis,
        } = s;
        let inlined_here = |&(at, key): &(usize, Key)| {
            key == stage && (key.len <= 8 || schedule.get(at).is_some_and(|q| q.stage == p.stage))
        };
        let earlier = if anchor && !*anchor_inlined {
            None
        } else {
            inlined.iter().find(|i| inlined_here(i))
        };
        if let Some(&(at, _)) = earlier {
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
                    *anchor_inlined |= anchor;
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

/// The bucket of `key` under the multiplier `m`.
#[inline]
fn bucket(key: Key, m: u64) -> usize {
    ((key.prefix ^ key.len as u64).wrapping_mul(m) >> (64 - BUCKETS.trailing_zeros())) as usize
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
    env.split(index, var, step, outer, factors);
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

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_workload::AnchorOp;

    #[test]
    fn every_anchor_op_hashes_its_axes_apart_and_the_scan_agrees() {
        let ops = [
            AnchorOp::Dense { m: 8, n: 8, k: 8 },
            AnchorOp::BatchMatmul {
                b: 2,
                m: 8,
                n: 8,
                k: 8,
            },
            AnchorOp::Conv2d {
                n: 1,
                cin: 16,
                hw: 14,
                cout: 16,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
            AnchorOp::Pool {
                n: 1,
                c: 8,
                hw: 8,
                khw: 2,
                stride: 2,
            },
            AnchorOp::Softmax { rows: 4, cols: 8 },
        ];
        for op in ops {
            let axes = op.loops();
            let mut rows = Rows::default();
            rows.start(&axes);
            assert_ne!(rows.multiplier, 0, "{op:?} fell back to the scan");
            let names: Vec<&str> = axes
                .iter()
                .map(|a| a.name)
                .chain(["", "o", "oc.1", "ocx", "n@oc", "abcdefghij"])
                .collect();
            let hashed: Vec<_> = names.iter().map(|n| rows.row(n.as_bytes())).collect();
            rows.multiplier = 0;
            let scanned: Vec<_> = names.iter().map(|n| rows.row(n.as_bytes())).collect();
            assert_eq!(hashed, scanned, "{op:?}");
            let positions: Vec<_> = (0..axes.len()).map(Some).collect();
            assert_eq!(hashed[..axes.len()], positions[..], "{op:?}");
        }
    }
}
