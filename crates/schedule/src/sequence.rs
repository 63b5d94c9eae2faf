//! Schedule-primitive sequences — the "sentences" of the tensor language.
//!
//! A sequence is stored flat, in four buffers whatever its length: one
//! record per primitive (its kind and where its parts begin), every name's
//! bytes back to back in one string, where each name ends, and every int.
//! A candidate pool holds tens of thousands of sequences, so a sequence
//! costs four heap blocks rather than a few per primitive.

use crate::kind::PrimitiveKind;
use crate::primitive::{preprocess, AbstractPrimitive, ConcretePrimitive, Names, Primitive};
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

/// An ordered sequence of schedule primitives describing how one subgraph is
/// lowered to a tensor program.
///
/// Primitives are read in place as [`Primitive`] views
/// ([`iter`](Self::iter), [`get`](Self::get)) and written by appending
/// ([`push`](Self::push), [`rewrite`](Self::rewrite)); an owned
/// [`ConcretePrimitive`] is the type for editing one. Offsets are 32-bit, so
/// a sequence holds less than 4 GiB of names; writing past that panics.
#[derive(Clone, Default, PartialEq)]
pub struct ScheduleSequence {
    records: Vec<Record>,
    /// Every name's bytes, in order: per primitive its stage, loop
    /// variables, then extras.
    names: String,
    /// Where each name ends in `names`; a name starts where the one before
    /// it ends.
    name_ends: Vec<u32>,
    ints: Vec<i64>,
}

/// One primitive's kind and where its parts begin; they end where the next
/// primitive's begin (the buffers' ends, for the last primitive).
#[derive(Clone, Copy, PartialEq)]
struct Record {
    kind: PrimitiveKind,
    /// Index of the stage in `name_ends`; the loop variables follow it.
    stage: u32,
    /// Index of the first extra in `name_ends`.
    extras: u32,
    /// Index of the first int in `ints`.
    ints: u32,
}

/// A buffer length as a 32-bit offset.
fn offset(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(at) => at,
        Err(_) => panic!("a schedule sequence holds at most 4 GiB of names and 2^32 parts"),
    }
}

impl ScheduleSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        ScheduleSequence::default()
    }

    /// Appends a primitive.
    pub fn push(&mut self, p: ConcretePrimitive) {
        let mut w = self.start(p.kind, &p.stage);
        for v in &p.loop_vars {
            w.loop_var(v);
        }
        w.ints(p.ints);
        for e in &p.extras {
            w.extra(e);
        }
    }

    /// Starts writing a new sequence over this one's buffers: the sequence
    /// is emptied and the writer appends, so the value is the one
    /// [`push`](Self::push)ing the same primitives onto an empty sequence
    /// builds, but no buffer large enough is reallocated.
    pub fn rewrite(&mut self) -> SequenceWriter<'_> {
        self.records.clear();
        self.names.clear();
        self.name_ends.clear();
        self.ints.clear();
        SequenceWriter { sequence: self }
    }

    /// Grows each buffer, if it must, to hold at least what `like`'s holds,
    /// so that writing a sequence no larger than `like` allocates nothing.
    pub fn reserve_like(&mut self, like: &ScheduleSequence) {
        fn at_least<T>(v: &mut Vec<T>, len: usize) {
            v.reserve_exact(len.saturating_sub(v.len()));
        }
        at_least(&mut self.records, like.records.len());
        self.names
            .reserve_exact(like.names.len().saturating_sub(self.names.len()));
        at_least(&mut self.name_ends, like.name_ends.len());
        at_least(&mut self.ints, like.ints.len());
    }

    /// Appends a primitive with its kind and stage.
    #[inline]
    fn start(&mut self, kind: PrimitiveKind, stage: &str) -> PrimitiveWriter<'_> {
        let names = offset(self.name_ends.len());
        self.records.push(Record {
            kind,
            stage: names,
            extras: names + 1,
            ints: offset(self.ints.len()),
        });
        self.push_name(stage);
        PrimitiveWriter { sequence: self }
    }

    #[inline]
    fn push_name(&mut self, name: &str) {
        self.names.push_str(name);
        self.name_ends.push(offset(self.names.len()));
    }

    /// Sequence length (number of primitives), the paper's "sequence length".
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the sequence has no primitives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The primitive at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Primitive<'_>> {
        let r = *self.records.get(index)?;
        let (names_end, ints_end) = match self.records.get(index + 1) {
            Some(next) => (next.stage as usize, next.ints as usize),
            None => (self.name_ends.len(), self.ints.len()),
        };
        let (stage, extras) = (r.stage as usize, r.extras as usize);
        let stage_start = match stage.checked_sub(1) {
            Some(before) => self.name_ends[before],
            None => 0,
        };
        let stage_end = self.name_ends[stage];
        let names = |start: u32, ends| Names {
            text: &self.names,
            start,
            ends,
        };
        Some(Primitive {
            kind: r.kind,
            stage: &self.names[stage_start as usize..stage_end as usize],
            loop_vars: names(stage_end, &self.name_ends[stage + 1..extras]),
            ints: &self.ints[r.ints as usize..ints_end],
            extras: names(
                self.name_ends[extras - 1],
                &self.name_ends[extras..names_end],
            ),
        })
    }

    /// Iterates over primitives.
    #[inline]
    pub fn iter(&self) -> Primitives<'_> {
        Primitives {
            records: self.records.iter(),
            text: &self.names,
            start: 0,
            name_ends: &self.name_ends,
            ints: &self.ints,
        }
    }

    /// Preprocesses every primitive (paper Fig. 4a).
    pub fn to_abstract(&self) -> Vec<AbstractPrimitive> {
        self.iter().map(preprocess).collect()
    }

    /// Counts primitives of a given kind.
    pub fn count_kind(&self, kind: PrimitiveKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// A stable 64-bit fingerprint of the sequence, used for uniqueness
    /// statistics (paper §4.3) and deterministic noise seeding.
    pub fn fingerprint(&self) -> u64 {
        self.salted_fingerprint(0)
    }

    /// Like [`ScheduleSequence::fingerprint`], but mixed with a caller-chosen
    /// salt. Score caches key entries by `(context salt, sequence)` so the
    /// same schedule scored under different tasks or model versions never
    /// collides; salting the hasher directly avoids a second hashing pass
    /// over the primitives.
    ///
    /// Uses a multiply-rotate word hasher rather than the standard library's
    /// SipHash: fingerprints key in-process caches and seed deterministic
    /// noise, so DoS resistance buys nothing, while the cold scoring path
    /// fingerprints every candidate in a batch and wants the probe cheap.
    ///
    /// The words hashed are those of hashing each primitive's fields as
    /// owned strings and vectors: the kind's index, the stage, the loop
    /// variables' count and names, the ints, the extras' count and names.
    /// A name is hashed as `str` hashes itself (its bytes, then `0xff`),
    /// straight off the name buffer.
    pub fn salted_fingerprint(&self, salt: u64) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        salt.hash(&mut h);
        let bytes = self.names.as_bytes();
        let mut start = 0;
        let mut names = |h: &mut crate::hash::FxHasher, ends: &[u32]| {
            for &end in ends {
                h.write(&bytes[start..end as usize]);
                h.write_u8(0xff);
                start = end as usize;
            }
        };
        let mut records = self.records.iter().peekable();
        while let Some(r) = records.next() {
            let (names_end, ints_end) = match records.peek() {
                Some(next) => (next.stage as usize, next.ints as usize),
                None => (self.name_ends.len(), self.ints.len()),
            };
            let (stage, extras) = (r.stage as usize, r.extras as usize);
            r.kind.index().hash(&mut h);
            names(&mut h, &self.name_ends[stage..=stage]);
            h.write_usize(extras - stage - 1);
            names(&mut h, &self.name_ends[stage + 1..extras]);
            self.ints[r.ints as usize..ints_end].hash(&mut h);
            h.write_usize(names_end - extras);
            names(&mut h, &self.name_ends[extras..names_end]);
        }
        h.finish()
    }
}

/// Iterator over a sequence's primitives (see [`ScheduleSequence::iter`]):
/// the buffers not yet read, each primitive cut off their fronts.
#[derive(Clone)]
pub struct Primitives<'a> {
    records: std::slice::Iter<'a, Record>,
    text: &'a str,
    /// Where the next primitive's stage starts in `text`.
    start: u32,
    /// The next primitive's name ends onward.
    name_ends: &'a [u32],
    /// The next primitive's ints onward.
    ints: &'a [i64],
}

impl<'a> Iterator for Primitives<'a> {
    type Item = Primitive<'a>;

    #[inline]
    fn next(&mut self) -> Option<Primitive<'a>> {
        let r = self.records.next()?;
        let (names, ints) = match self.records.as_slice().first() {
            Some(next) => (
                (next.stage - r.stage) as usize,
                (next.ints - r.ints) as usize,
            ),
            None => (self.name_ends.len(), self.ints.len()),
        };
        let (ends, name_ends) = self.name_ends.split_at(names);
        let (ints, rest) = self.ints.split_at(ints);
        let (&stage_end, after_stage) = ends.split_first()?;
        let (loop_ends, extra_ends) = after_stage.split_at((r.extras - r.stage - 1) as usize);
        let names = |start, ends| Names {
            text: self.text,
            start,
            ends,
        };
        let p = Primitive {
            kind: r.kind,
            stage: &self.text[self.start as usize..stage_end as usize],
            loop_vars: names(stage_end, loop_ends),
            ints,
            extras: names(*loop_ends.last().unwrap_or(&stage_end), extra_ends),
        };
        self.start = *ends.last().unwrap_or(&stage_end);
        self.name_ends = name_ends;
        self.ints = rest;
        Some(p)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Primitives<'_> {}

/// Appending writer over a [`ScheduleSequence`] (see
/// [`ScheduleSequence::rewrite`]).
pub struct SequenceWriter<'a> {
    sequence: &'a mut ScheduleSequence,
}

impl SequenceWriter<'_> {
    /// Starts the next primitive with its kind and stage; loop variables,
    /// ints and extras follow through the returned writer.
    #[inline]
    pub fn primitive(&mut self, kind: PrimitiveKind, stage: &str) -> PrimitiveWriter<'_> {
        self.sequence.start(kind, stage)
    }
}

/// Fills in the last primitive of a sequence.
pub struct PrimitiveWriter<'a> {
    sequence: &'a mut ScheduleSequence,
}

impl PrimitiveWriter<'_> {
    /// Appends a loop variable.
    #[inline]
    pub fn loop_var(&mut self, name: &str) -> &mut Self {
        let s = &mut *self.sequence;
        let Some(r) = s.records.last_mut() else {
            return self;
        };
        let at = r.extras as usize;
        r.extras += 1;
        if at == s.name_ends.len() {
            s.push_name(name);
        } else {
            // Extras came first: the loop variable goes in before them.
            let start = s.name_ends[at - 1];
            s.names.insert_str(start as usize, name);
            offset(s.names.len()); // where the last name now ends
            let len = name.len() as u32;
            for end in &mut s.name_ends[at..] {
                *end += len;
            }
            s.name_ends.insert(at, start + len);
        }
        self
    }

    /// Appends numeric parameters.
    #[inline]
    pub fn ints(&mut self, ints: impl IntoIterator<Item = i64>) -> &mut Self {
        self.sequence.ints.extend(ints);
        self
    }

    /// Appends an extra character parameter.
    #[inline]
    pub fn extra(&mut self, name: &str) -> &mut Self {
        self.sequence.push_name(name);
        self
    }
}

impl FromIterator<ConcretePrimitive> for ScheduleSequence {
    fn from_iter<T: IntoIterator<Item = ConcretePrimitive>>(iter: T) -> Self {
        let mut sequence = ScheduleSequence::new();
        sequence.extend(iter);
        sequence
    }
}

impl Extend<ConcretePrimitive> for ScheduleSequence {
    fn extend<T: IntoIterator<Item = ConcretePrimitive>>(&mut self, iter: T) {
        for p in iter {
            self.push(p);
        }
    }
}

impl<'a> IntoIterator for &'a ScheduleSequence {
    type Item = Primitive<'a>;
    type IntoIter = Primitives<'a>;
    #[inline]
    fn into_iter(self) -> Primitives<'a> {
        self.iter()
    }
}

/// Owned primitives, for editing a sequence's parts.
impl IntoIterator for ScheduleSequence {
    type Item = ConcretePrimitive;
    type IntoIter = std::vec::IntoIter<ConcretePrimitive>;
    fn into_iter(self) -> Self::IntoIter {
        let owned: Vec<ConcretePrimitive> = self.iter().map(Primitive::to_concrete).collect();
        owned.into_iter()
    }
}

impl fmt::Display for ScheduleSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ScheduleSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The shape of a struct holding `primitives: Vec<ConcretePrimitive>`.
impl Serialize for ScheduleSequence {
    fn serialize_value(&self) -> Value {
        let primitives = self.iter().map(|p| p.to_concrete().serialize_value());
        Value::Map(vec![(
            "primitives".to_string(),
            Value::Seq(primitives.collect()),
        )])
    }
}

impl<'de> Deserialize<'de> for ScheduleSequence {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let primitives = v
            .get("primitives")
            .ok_or_else(|| Error::msg("missing field `primitives` in ScheduleSequence"))?;
        Ok(Vec::<ConcretePrimitive>::deserialize_value(primitives)?
            .into_iter()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::primitive::recover;

    fn seq() -> ScheduleSequence {
        [
            ConcretePrimitive::new(PrimitiveKind::Split, "C")
                .with_loops(["i"])
                .with_ints([16, 4]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "C")
                .with_loops(["i0"])
                .with_extras(["parallel"]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn collect_and_len() {
        let s = seq();
        assert_eq!(s.len(), 2);
        assert_eq!(s.count_kind(PrimitiveKind::Split), 1);
        assert_eq!(s.count_kind(PrimitiveKind::Fuse), 0);
    }

    #[test]
    fn abstract_roundtrip_preserves_sequence() {
        let s = seq();
        let back: ScheduleSequence = s
            .to_abstract()
            .iter()
            .map(|a| recover(a).expect("recover"))
            .collect();
        assert_eq!(back, s);
    }

    #[test]
    fn fingerprint_distinguishes_parameters() {
        let a = seq();
        let mut b = seq();
        b = {
            let mut prims: Vec<_> = b.into_iter().collect();
            prims[0].ints[0] = 8;
            prims.into_iter().collect()
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), seq().fingerprint());
    }

    #[test]
    fn display_multiline() {
        let text = seq().to_string();
        assert!(text.contains("SP(C, i, [16, 4])"));
        assert!(text.contains("AN(C, i0, \"parallel\")"));
    }
}
