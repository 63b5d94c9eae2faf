//! Concrete and abstract schedule primitives.
//!
//! A [`ConcretePrimitive`] is what an automatic search framework emits — a
//! step with a stage, loop variables, numeric parameters, and annotation
//! strings. It owns its parts, for building and editing; a primitive inside
//! a [`ScheduleSequence`](crate::ScheduleSequence) is read through the
//! borrowed view [`Primitive`], which has the same fields. The TLP
//! preprocessor (paper Fig. 4a) strips extraneous syntax, keeping only the
//! three basic elements: primitive type, numeric parameters, and character
//! (name) parameters — an [`AbstractPrimitive`].

use crate::kind::PrimitiveKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A framework-level schedule primitive, e.g.
/// `split(C, j, [8, 4])` or `annotate(C, i0@j0, parallel)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConcretePrimitive {
    /// The primitive type.
    pub kind: PrimitiveKind,
    /// The stage (tensor/buffer) the primitive applies to.
    pub stage: String,
    /// Loop variables named by the primitive, in order.
    pub loop_vars: Vec<String>,
    /// Numeric parameters (tile factors, pragma values, alignments).
    pub ints: Vec<i64>,
    /// Extra character parameters (annotation names, pragma keys).
    pub extras: Vec<String>,
}

impl ConcretePrimitive {
    /// Creates a primitive with just a kind and stage.
    pub fn new(kind: PrimitiveKind, stage: impl Into<String>) -> Self {
        ConcretePrimitive {
            kind,
            stage: stage.into(),
            loop_vars: Vec::new(),
            ints: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Builder-style: adds loop variables.
    pub fn with_loops<I, S>(mut self, vars: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.loop_vars.extend(vars.into_iter().map(Into::into));
        self
    }

    /// Builder-style: adds numeric parameters.
    pub fn with_ints(mut self, ints: impl IntoIterator<Item = i64>) -> Self {
        self.ints.extend(ints);
        self
    }

    /// Builder-style: adds extra character parameters.
    pub fn with_extras<I, S>(mut self, extras: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.extras.extend(extras.into_iter().map(Into::into));
        self
    }
}

impl fmt::Display for ConcretePrimitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_primitive(
            f,
            self.kind,
            &self.stage,
            self.loop_vars.iter().map(String::as_str),
            &self.ints,
            self.extras.iter().map(String::as_str),
        )
    }
}

/// Writes a primitive's pseudo-code, `KIND(stage, var, [ints], "extra")`.
fn write_primitive<'n>(
    f: &mut fmt::Formatter<'_>,
    kind: PrimitiveKind,
    stage: &str,
    loop_vars: impl Iterator<Item = &'n str>,
    ints: &[i64],
    extras: impl Iterator<Item = &'n str>,
) -> fmt::Result {
    write!(f, "{}({stage}", kind.abbrev())?;
    for v in loop_vars {
        write!(f, ", {v}")?;
    }
    if !ints.is_empty() {
        write!(f, ", [")?;
        for (i, n) in ints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")?;
    }
    for e in extras {
        write!(f, ", \"{e}\"")?;
    }
    write!(f, ")")
}

/// One primitive of a [`ScheduleSequence`](crate::ScheduleSequence), read in
/// place: the fields of a [`ConcretePrimitive`], borrowed from the
/// sequence's buffers.
#[derive(Clone, Copy, Debug)]
pub struct Primitive<'a> {
    /// The primitive type.
    pub kind: PrimitiveKind,
    /// The stage (tensor/buffer) the primitive applies to.
    pub stage: &'a str,
    /// Loop variables named by the primitive, in order.
    pub loop_vars: Names<'a>,
    /// Numeric parameters (tile factors, pragma values, alignments).
    pub ints: &'a [i64],
    /// Extra character parameters (annotation names, pragma keys).
    pub extras: Names<'a>,
}

impl Primitive<'_> {
    /// An owned copy, for editing.
    pub fn to_concrete(self) -> ConcretePrimitive {
        ConcretePrimitive::new(self.kind, self.stage)
            .with_loops(self.loop_vars)
            .with_ints(self.ints.iter().copied())
            .with_extras(self.extras)
    }
}

impl fmt::Display for Primitive<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_primitive(
            f,
            self.kind,
            self.stage,
            self.loop_vars.iter(),
            self.ints,
            self.extras.iter(),
        )
    }
}

/// A list of names inside a sequence's name buffer: the names' bytes lie
/// back to back in `text`, the first starting at `start`, and `ends` holds
/// where each one ends.
#[derive(Clone, Copy)]
pub struct Names<'a> {
    pub(crate) text: &'a str,
    pub(crate) start: u32,
    pub(crate) ends: &'a [u32],
}

impl<'a> Names<'a> {
    /// How many names there are.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The first name.
    #[inline]
    pub fn first(&self) -> Option<&'a str> {
        self.iter().next()
    }

    /// The name at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&'a str> {
        let end = *self.ends.get(index)?;
        let start = match index.checked_sub(1) {
            Some(before) => self.ends[before],
            None => self.start,
        };
        Some(&self.text[start as usize..end as usize])
    }

    /// The names in order.
    #[inline]
    pub fn iter(&self) -> NamesIter<'a> {
        NamesIter {
            rest: &self.text[self.start as usize..],
            start: self.start,
            ends: self.ends.iter(),
        }
    }
}

impl<'a> IntoIterator for Names<'a> {
    type Item = &'a str;
    type IntoIter = NamesIter<'a>;
    #[inline]
    fn into_iter(self) -> NamesIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Names<'a> {
    type Item = &'a str;
    type IntoIter = NamesIter<'a>;
    #[inline]
    fn into_iter(self) -> NamesIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Names<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over [`Names`].
#[derive(Clone)]
pub struct NamesIter<'a> {
    /// The name buffer from the next name on, which starts at `start`.
    rest: &'a str,
    start: u32,
    ends: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for NamesIter<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.next()?;
        let (name, rest) = self.rest.split_at((end - self.start) as usize);
        (self.rest, self.start) = (rest, end);
        Some(name)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for NamesIter<'_> {}

/// One element of an abstract primitive: a number or a name parameter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// A numeric parameter, kept as-is (paper Fig. 4b, `F3`).
    Num(f64),
    /// A character parameter, later tokenized (paper Fig. 4b, `F2`).
    Name(String),
}

/// A preprocessed primitive: kind plus its parameter elements in source order.
///
/// The canonical element order is: stage, loop vars, ints, extras — which
/// makes preprocessing reversible (paper §4.1: "in most frameworks, this
/// preprocessing algorithm is reversible").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbstractPrimitive {
    /// The primitive type (`F1`: becomes a one-hot vector).
    pub kind: PrimitiveKind,
    /// The ordered parameter elements.
    pub elements: Vec<Element>,
}

impl AbstractPrimitive {
    /// Number of name parameters.
    pub fn num_names(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Name(_)))
            .count()
    }

    /// Number of numeric parameters.
    pub fn num_nums(&self) -> usize {
        self.elements.len() - self.num_names()
    }
}

/// A borrowed view of one abstract-primitive element, for streaming
/// consumers that must not allocate (see [`preprocess_elements`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ElementRef<'a> {
    /// A numeric parameter (paper Fig. 4b, `F3`).
    Num(f64),
    /// A character parameter (paper Fig. 4b, `F2`).
    Name(&'a str),
}

/// Streams a primitive's abstract elements in canonical order without
/// allocating: stage, loop-var count, loop vars, int count, ints, extras —
/// element-for-element identical to [`preprocess`]'s `elements`. The scoring
/// hot path uses this to keep steady-state feature extraction heap-free.
pub fn preprocess_elements(p: Primitive<'_>) -> impl Iterator<Item = ElementRef<'_>> {
    use std::iter::once;
    // Loop-var count is recorded so recovery knows where vars end and extras
    // begin (both are name parameters).
    once(ElementRef::Name(p.stage))
        .chain(once(ElementRef::Num(p.loop_vars.len() as f64)))
        .chain(p.loop_vars.iter().map(ElementRef::Name))
        .chain(once(ElementRef::Num(p.ints.len() as f64)))
        .chain(p.ints.iter().map(|&n| ElementRef::Num(n as f64)))
        .chain(p.extras.iter().map(ElementRef::Name))
}

/// Preprocesses a primitive into its abstract three-element form.
///
/// Only the primitive type, numeric parameters, and character parameters are
/// retained; everything else (syntax, separators) is already absent from the
/// structured representation.
pub fn preprocess(p: Primitive<'_>) -> AbstractPrimitive {
    let elements = preprocess_elements(p)
        .map(|e| match e {
            ElementRef::Num(n) => Element::Num(n),
            ElementRef::Name(s) => Element::Name(s.to_owned()),
        })
        .collect();
    AbstractPrimitive {
        kind: p.kind,
        elements,
    }
}

/// Error recovering a concrete primitive from an abstract one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverPrimitiveError(String);

impl fmt::Display for RecoverPrimitiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot recover primitive: {}", self.0)
    }
}

impl std::error::Error for RecoverPrimitiveError {}

/// Inverts [`preprocess`], demonstrating that the abstract form loses nothing.
///
/// # Errors
///
/// Returns an error if the element stream does not follow the canonical
/// layout produced by [`preprocess`].
pub fn recover(a: &AbstractPrimitive) -> Result<ConcretePrimitive, RecoverPrimitiveError> {
    let mut it = a.elements.iter();
    let stage = match it.next() {
        Some(Element::Name(s)) => s.clone(),
        other => {
            return Err(RecoverPrimitiveError(format!(
                "expected stage name, got {other:?}"
            )))
        }
    };
    let n_vars = match it.next() {
        Some(Element::Num(n)) => *n as usize,
        other => {
            return Err(RecoverPrimitiveError(format!(
                "expected var count, got {other:?}"
            )))
        }
    };
    let mut loop_vars = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        match it.next() {
            Some(Element::Name(v)) => loop_vars.push(v.clone()),
            other => {
                return Err(RecoverPrimitiveError(format!(
                    "expected loop var, got {other:?}"
                )))
            }
        }
    }
    let n_ints = match it.next() {
        Some(Element::Num(n)) => *n as usize,
        other => {
            return Err(RecoverPrimitiveError(format!(
                "expected int count, got {other:?}"
            )))
        }
    };
    let mut ints = Vec::with_capacity(n_ints);
    for _ in 0..n_ints {
        match it.next() {
            Some(Element::Num(n)) => ints.push(*n as i64),
            other => {
                return Err(RecoverPrimitiveError(format!(
                    "expected int, got {other:?}"
                )))
            }
        }
    }
    let mut extras = Vec::new();
    for e in it {
        match e {
            Element::Name(s) => extras.push(s.clone()),
            other => {
                return Err(RecoverPrimitiveError(format!(
                    "expected extra, got {other:?}"
                )))
            }
        }
    }
    Ok(ConcretePrimitive {
        kind: a.kind,
        stage,
        loop_vars,
        ints,
        extras,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn sample() -> ConcretePrimitive {
        ConcretePrimitive::new(PrimitiveKind::Split, "C")
            .with_loops(["j"])
            .with_ints([8, 4, 2])
    }

    /// Preprocesses `p` as the one primitive of a sequence.
    fn preprocess_one(p: &ConcretePrimitive) -> AbstractPrimitive {
        let seq: crate::ScheduleSequence = [p.clone()].into_iter().collect();
        seq.to_abstract().remove(0)
    }

    #[test]
    fn display_pseudocode() {
        let p = sample();
        assert_eq!(p.to_string(), "SP(C, j, [8, 4, 2])");
        let a = ConcretePrimitive::new(PrimitiveKind::Annotation, "C")
            .with_loops(["i0"])
            .with_extras(["parallel"]);
        assert_eq!(a.to_string(), "AN(C, i0, \"parallel\")");
    }

    #[test]
    fn preprocess_keeps_three_basic_elements() {
        let a = preprocess_one(&sample());
        assert_eq!(a.kind, PrimitiveKind::Split);
        assert_eq!(a.num_names(), 2); // stage + 1 loop var
        assert_eq!(a.num_nums(), 5); // var count + int count + 3 ints
    }

    #[test]
    fn preprocess_is_reversible() {
        for p in [
            sample(),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "conv")
                .with_loops(["i0@j0"])
                .with_extras(["parallel"]),
            ConcretePrimitive::new(PrimitiveKind::Pragma, "C")
                .with_ints([512])
                .with_extras(["auto_unroll_max_step"]),
            ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu"),
        ] {
            let back = recover(&preprocess_one(&p)).expect("recover");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn recover_rejects_malformed_streams() {
        let bad = AbstractPrimitive {
            kind: PrimitiveKind::Split,
            elements: vec![Element::Num(1.0)],
        };
        assert!(recover(&bad).is_err());
    }
}
