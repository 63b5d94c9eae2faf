//! Schedule-primitive sequences — the "sentences" of the tensor language.

use crate::kind::PrimitiveKind;
use crate::primitive::{preprocess, AbstractPrimitive, ConcretePrimitive};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// An ordered sequence of schedule primitives describing how one subgraph is
/// lowered to a tensor program.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSequence {
    primitives: Vec<ConcretePrimitive>,
}

impl ScheduleSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        ScheduleSequence {
            primitives: Vec::new(),
        }
    }

    /// Appends a primitive.
    pub fn push(&mut self, p: ConcretePrimitive) {
        self.primitives.push(p);
    }

    /// Starts writing a new sequence over this one's buffers. Whatever the
    /// writer wrote is the whole sequence once it drops; the value is the
    /// one [`push`](Self::push)ing the same primitives onto an empty
    /// sequence builds, but strings and vectors already here are refilled
    /// instead of reallocated.
    pub fn rewrite(&mut self) -> SequenceWriter<'_> {
        SequenceWriter {
            primitives: &mut self.primitives,
            written: 0,
        }
    }

    /// The primitives in order.
    pub fn primitives(&self) -> &[ConcretePrimitive] {
        &self.primitives
    }

    /// Sequence length (number of primitives), the paper's "sequence length".
    pub fn len(&self) -> usize {
        self.primitives.len()
    }

    /// Whether the sequence has no primitives.
    pub fn is_empty(&self) -> bool {
        self.primitives.is_empty()
    }

    /// Iterates over primitives.
    pub fn iter(&self) -> std::slice::Iter<'_, ConcretePrimitive> {
        self.primitives.iter()
    }

    /// Preprocesses every primitive (paper Fig. 4a).
    pub fn to_abstract(&self) -> Vec<AbstractPrimitive> {
        self.primitives.iter().map(preprocess).collect()
    }

    /// Counts primitives of a given kind.
    pub fn count_kind(&self, kind: PrimitiveKind) -> usize {
        self.primitives.iter().filter(|p| p.kind == kind).count()
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
    pub fn salted_fingerprint(&self, salt: u64) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        salt.hash(&mut h);
        for p in &self.primitives {
            p.kind.index().hash(&mut h);
            p.stage.hash(&mut h);
            p.loop_vars.hash(&mut h);
            p.ints.hash(&mut h);
            p.extras.hash(&mut h);
        }
        h.finish()
    }
}

/// In-place writer over a [`ScheduleSequence`] (see
/// [`ScheduleSequence::rewrite`]): primitive *i* written overwrites
/// primitive *i* held, and dropping the writer cuts off what is left of the
/// old sequence.
pub struct SequenceWriter<'a> {
    primitives: &'a mut Vec<ConcretePrimitive>,
    written: usize,
}

impl SequenceWriter<'_> {
    /// Starts the next primitive with its kind and stage; loop variables,
    /// ints and extras follow through the returned writer.
    pub fn primitive(&mut self, kind: PrimitiveKind, stage: &str) -> PrimitiveWriter<'_> {
        if self.written == self.primitives.len() {
            self.primitives.push(ConcretePrimitive::new(kind, stage));
        } else {
            let p = &mut self.primitives[self.written];
            p.kind = kind;
            stage.clone_into(&mut p.stage);
            p.ints.clear();
        }
        self.written += 1;
        PrimitiveWriter {
            primitive: &mut self.primitives[self.written - 1],
            loop_vars: 0,
            extras: 0,
        }
    }
}

impl Drop for SequenceWriter<'_> {
    fn drop(&mut self) {
        self.primitives.truncate(self.written);
    }
}

/// Fills in one primitive of a [`SequenceWriter`], reusing the strings the
/// overwritten primitive held; unused ones are dropped with the writer.
pub struct PrimitiveWriter<'a> {
    primitive: &'a mut ConcretePrimitive,
    loop_vars: usize,
    extras: usize,
}

impl PrimitiveWriter<'_> {
    /// Appends a loop variable.
    pub fn loop_var(&mut self, name: &str) -> &mut Self {
        refill_slot(&mut self.primitive.loop_vars, self.loop_vars, name);
        self.loop_vars += 1;
        self
    }

    /// Appends numeric parameters.
    pub fn ints(&mut self, ints: impl IntoIterator<Item = i64>) -> &mut Self {
        self.primitive.ints.extend(ints);
        self
    }

    /// Appends an extra character parameter.
    pub fn extra(&mut self, name: &str) -> &mut Self {
        refill_slot(&mut self.primitive.extras, self.extras, name);
        self.extras += 1;
        self
    }
}

impl Drop for PrimitiveWriter<'_> {
    fn drop(&mut self) {
        self.primitive.loop_vars.truncate(self.loop_vars);
        self.primitive.extras.truncate(self.extras);
    }
}

/// Writes `text` into slot `at` of a name list, over the string already
/// there if there is one.
fn refill_slot(slots: &mut Vec<String>, at: usize, text: &str) {
    match slots.get_mut(at) {
        Some(slot) => text.clone_into(slot),
        None => {
            // Most primitives name one loop or one extra: a fresh vector
            // starts at exactly that, not at `push`'s minimum of four.
            if slots.capacity() == 0 {
                slots.reserve_exact(1);
            }
            slots.push(text.to_owned());
        }
    }
}

impl FromIterator<ConcretePrimitive> for ScheduleSequence {
    fn from_iter<T: IntoIterator<Item = ConcretePrimitive>>(iter: T) -> Self {
        ScheduleSequence {
            primitives: iter.into_iter().collect(),
        }
    }
}

impl Extend<ConcretePrimitive> for ScheduleSequence {
    fn extend<T: IntoIterator<Item = ConcretePrimitive>>(&mut self, iter: T) {
        self.primitives.extend(iter);
    }
}

impl<'a> IntoIterator for &'a ScheduleSequence {
    type Item = &'a ConcretePrimitive;
    type IntoIter = std::slice::Iter<'a, ConcretePrimitive>;
    fn into_iter(self) -> Self::IntoIter {
        self.primitives.iter()
    }
}

impl IntoIterator for ScheduleSequence {
    type Item = ConcretePrimitive;
    type IntoIter = std::vec::IntoIter<ConcretePrimitive>;
    fn into_iter(self) -> Self::IntoIter {
        self.primitives.into_iter()
    }
}

impl fmt::Display for ScheduleSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.primitives.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
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
