//! Sequence skeletons: a sequence with its int values left out.
//!
//! Two sequences share a skeleton when they have the same primitives in the
//! same order — kinds, stages, loop variables and extras — and the same
//! number of ints in each primitive; only the int values may differ. This is
//! the paper's split of a primitive into kind, character parameters and
//! numeric parameters (§4.1) applied to a whole sequence. Candidates drawn
//! from one sketch differ mostly in their tile sizes, so a few skeletons
//! cover a large pool: a 256-candidate conv2d pool has under fifty.

use crate::sequence::{Record, ScheduleSequence};

/// A skeleton's buffer lengths and its int count. The records fix each
/// primitive's int count but the last one's, which the total fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    records: u32,
    names: u32,
    name_ends: u32,
    ints: u32,
}

impl Shape {
    fn of(sequence: &ScheduleSequence) -> Shape {
        let (records, names, name_ends) = sequence.skeleton();
        // Each length is below 2^32: a sequence refuses to grow past that.
        Shape {
            records: records.len() as u32,
            names: names.len() as u32,
            name_ends: name_ends.len() as u32,
            ints: sequence.ints().len() as u32,
        }
    }
}

/// Where one skeleton's parts start in the set's buffers, and its shape.
#[derive(Clone, Copy, Debug)]
struct Entry {
    records: u32,
    names: u32,
    name_ends: u32,
    shape: Shape,
}

/// Skeletons held in the first insertion reserves room for this many of
/// its size, so a set of a few dozen grows its buffers a few times at most.
const FIRST_ROOM: usize = 64;

/// A set of skeletons, kept back to back in four buffers so that holding
/// many costs no allocation per skeleton.
///
/// [`Skeletons::find`] compares a sequence's own buffers with each held
/// skeleton's, byte for byte: no hash stands in for the comparison.
/// Skeletons are numbered from 0 in insertion order, and
/// [`Skeletons::clear`] empties the set but keeps its storage.
#[derive(Clone, Debug, Default)]
pub struct Skeletons {
    records: Vec<Record>,
    names: String,
    name_ends: Vec<u32>,
    entries: Vec<Entry>,
}

impl Skeletons {
    /// Skeletons held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no skeleton.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes the held skeletons take in the set's buffers.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.records[..])
            + self.names.len()
            + std::mem::size_of_val(&self.name_ends[..])
            + std::mem::size_of_val(&self.entries[..])
    }

    /// Bytes `sequence`'s skeleton would add to [`Skeletons::bytes`].
    pub fn bytes_of(sequence: &ScheduleSequence) -> usize {
        let (records, names, name_ends) = sequence.skeleton();
        std::mem::size_of_val(records)
            + names.len()
            + std::mem::size_of_val(name_ends)
            + std::mem::size_of::<Entry>()
    }

    /// The number of the held skeleton `sequence` has, if any.
    pub fn find(&self, sequence: &ScheduleSequence) -> Option<usize> {
        let shape = Shape::of(sequence);
        let (records, names, name_ends) = sequence.skeleton();
        self.entries.iter().position(|e| {
            e.shape == shape
                && self.names.as_bytes()[e.names as usize..][..names.len()] == *names.as_bytes()
                && self.name_ends[e.name_ends as usize..][..name_ends.len()] == *name_ends
                && self.records[e.records as usize..][..records.len()] == *records
        })
    }

    /// Adds `sequence`'s skeleton, whether or not the set holds it already,
    /// and returns its number.
    pub fn insert(&mut self, sequence: &ScheduleSequence) -> usize {
        let (records, names, name_ends) = sequence.skeleton();
        if self.entries.capacity() == 0 {
            self.records.reserve(FIRST_ROOM * records.len());
            self.names.reserve(FIRST_ROOM * names.len());
            self.name_ends.reserve(FIRST_ROOM * name_ends.len());
            self.entries.reserve(FIRST_ROOM);
        }
        // The set's buffers index with `u32`, as a sequence's do.
        let offset = |len: usize| match u32::try_from(len) {
            Ok(at) => at,
            Err(_) => panic!("a skeleton set holds at most 4 GiB of names and 2^32 parts"),
        };
        self.entries.push(Entry {
            records: offset(self.records.len()),
            names: offset(self.names.len()),
            name_ends: offset(self.name_ends.len()),
            shape: Shape::of(sequence),
        });
        self.records.extend_from_slice(records);
        self.names.push_str(names);
        self.name_ends.extend_from_slice(name_ends);
        self.entries.len() - 1
    }

    /// Forgets every skeleton, keeping the buffers' storage.
    pub fn clear(&mut self) {
        self.records.clear();
        self.names.clear();
        self.name_ends.clear();
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::{parse_schedule, ConcretePrimitive, PrimitiveKind};

    fn parsed(text: &str) -> ScheduleSequence {
        parse_schedule(text).expect("parses")
    }

    #[test]
    fn only_int_values_are_left_out() {
        let mut set = Skeletons::default();
        let base = parsed("SP(d, i, [64, 8])\nPR(d, i.0, [16], \"auto_unroll_max_step\")");
        assert_eq!(set.insert(&base), 0);
        let same = parsed("SP(d, i, [-3, 0])\nPR(d, i.0, [512], \"auto_unroll_max_step\")");
        assert_eq!(set.find(&same), Some(0));
        for other in [
            // One more int in the first primitive, one fewer in the second.
            "SP(d, i, [64, 8, 2])\nPR(d, i.0, [], \"auto_unroll_max_step\")",
            // One more int in the last primitive, which only the total shows.
            "SP(d, i, [64, 8])\nPR(d, i.0, [16, 1], \"auto_unroll_max_step\")",
            "SP(d, j, [64, 8])\nPR(d, i.0, [16], \"auto_unroll_max_step\")",
            "FSP(d, i, [64, 8])\nPR(d, i.0, [16], \"auto_unroll_max_step\")",
            // The same bytes cut into names at other places.
            "SP(d, i, [64, 8])\nPR(d, i., [16], \"0auto_unroll_max_step\")",
            "SP(d, i, [64, 8])",
        ] {
            assert_eq!(set.find(&parsed(other)), None, "{other}");
        }
    }

    #[test]
    fn skeletons_are_numbered_in_insertion_order_and_clear_keeps_storage() {
        let mut set = Skeletons::default();
        let a: ScheduleSequence = [ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu")]
            .into_iter()
            .collect();
        let b = parsed("SP(d, i, [64, 8])");
        assert_eq!((set.insert(&a), set.insert(&b)), (0, 1));
        assert_eq!((set.find(&a), set.find(&b)), (Some(0), Some(1)));
        assert_eq!(set.find(&ScheduleSequence::new()), None);
        assert_eq!(
            set.bytes(),
            Skeletons::bytes_of(&a) + Skeletons::bytes_of(&b)
        );
        let room = set.names.capacity();
        set.clear();
        assert!(set.is_empty());
        assert_eq!((set.find(&a), set.bytes()), (None, 0));
        assert_eq!(set.names.capacity(), room);
        assert_eq!(set.insert(&ScheduleSequence::new()), 0);
        assert_eq!(set.find(&ScheduleSequence::new()), Some(0));
    }

    #[test]
    fn skeletons_of_one_shape_are_told_apart_by_their_bytes() {
        // Three-digit stage names: every sequence has the same buffer
        // lengths, and only the name bytes tell them apart.
        let same_shape = |i: usize| parsed(&format!("SP(s{i:03}, i, [64, 8])"));
        let other = |i: usize| parsed(&format!("SP(s{i}, i, [64])\nCI(relu)"));
        let mut set = Skeletons::default();
        for i in 0..3 * FIRST_ROOM {
            assert_eq!(set.insert(&same_shape(i)), 2 * i);
            assert_eq!(set.insert(&other(i)), 2 * i + 1);
        }
        for i in 0..3 * FIRST_ROOM {
            assert_eq!(set.find(&same_shape(i)), Some(2 * i));
            assert_eq!(set.find(&other(i)), Some(2 * i + 1));
        }
        assert_eq!(set.find(&same_shape(3 * FIRST_ROOM)), None);
        // A second copy gets its own number; the first is still found.
        assert_eq!(set.insert(&same_shape(5)), 6 * FIRST_ROOM);
        assert_eq!(set.find(&same_shape(5)), Some(10));
        let room = set.names.capacity();
        set.clear();
        assert_eq!(set.find(&same_shape(0)), None);
        assert_eq!(set.names.capacity(), room);
        assert_eq!(set.insert(&same_shape(7)), 0);
        assert_eq!(set.find(&same_shape(7)), Some(0));
        assert_eq!(set.find(&same_shape(0)), None);
    }
}
