//! Plans — what is left to check of a schedule whose skeleton a clean check
//! has already walked.
//!
//! A schedule's skeleton is the schedule without its int values
//! ([`Skeletons`]). Every finding but a few depends on the skeleton alone:
//! the names a step resolves, consumes and defines, its stage, its kind and
//! how many ints it carries. The rest read int values, and each has one
//! predicate that the full check calls too: a split's arity and positivity
//! (V102/V103, [`wellformed::split_ints_hold`]), an `auto_unroll_max_step`
//! pragma's value (V107/V108, [`wellformed::unroll_value_holds`]), and an
//! anchor split's recorded extent and tile product against the axis it
//! resolved (V302/V303, [`structural::anchor_split_ints_hold`]). Int values
//! also size the loops the dataflow pass defines, which only bindings read
//! (V404). So when a check of a schedule with no bindings finds nothing,
//! its plan — the skeleton and those predicates at their steps' ints — says
//! that any schedule with the same skeleton whose ints pass the predicates
//! finds nothing too. A schedule whose ints fail one gets the full check,
//! and so does every skeleton no clean check has planned.

use crate::{structural, wellformed};
use std::ops::Range;
use tlp_schedule::{ScheduleSequence, Skeletons};

/// Plans a verifier holds at most; a new plan past the cap starts the set
/// over.
const MAX_PLANS: usize = 64;

/// Bytes of skeletons and predicates a verifier holds at most; a new plan
/// that would pass the cap starts the set over, and a skeleton too large
/// for it on its own gets no plan.
const MAX_PLAN_BYTES: usize = 128 << 10;

/// Checks the first recording makes room for: a few dozen plans' worth.
const FIRST_CHECKS: usize = 256;

/// What one step's ints must satisfy.
#[derive(Clone, Copy)]
pub(crate) enum Predicate {
    /// A split's arity and signs (V102/V103).
    Split,
    /// An anchor split's arity and signs, and its recorded extent and tile
    /// product against the extent of the axis it splits (V302/V303).
    AnchorSplit { extent: i64 },
    /// An `auto_unroll_max_step` pragma's value (V107/V108).
    Unroll,
}

/// A predicate and the step's ints it reads, as a range of the schedule's
/// [`ints`](ScheduleSequence::ints).
#[derive(Clone, Copy)]
struct Check {
    start: u32,
    end: u32,
    predicate: Predicate,
}

/// A verifier's plans: their skeletons, and their checks back to back in
/// one buffer. The checks a full check records for a plan it may make
/// follow the last plan's.
#[derive(Default)]
pub(crate) struct Plans {
    skeletons: Skeletons,
    /// Per plan, where its checks end in `checks`.
    ends: Vec<u32>,
    checks: Vec<Check>,
}

impl Plans {
    /// The plan for `schedule`'s skeleton, if there is one.
    #[inline]
    pub(crate) fn find(&self, schedule: &ScheduleSequence) -> Option<usize> {
        self.skeletons.find(schedule)
    }

    /// Whether the ints of `schedule`, whose skeleton is `plan`'s, pass
    /// every check of the plan.
    pub(crate) fn holds(&self, plan: usize, schedule: &ScheduleSequence) -> bool {
        let start = plan.checked_sub(1).map_or(0, |before| self.ends[before]);
        let ints = schedule.ints();
        self.checks[start as usize..self.ends[plan] as usize]
            .iter()
            .all(|c| {
                let ints = &ints[c.start as usize..c.end as usize];
                match c.predicate {
                    Predicate::Split => wellformed::split_ints_hold(ints),
                    Predicate::AnchorSplit { extent } => {
                        wellformed::split_ints_hold(ints)
                            && structural::anchor_split_ints_hold(ints, extent)
                    }
                    Predicate::Unroll => wellformed::unroll_value_holds(ints),
                }
            })
    }

    /// Starts recording the checks of a schedule that may get a plan.
    pub(crate) fn start(&mut self) {
        if self.checks.capacity() == 0 {
            self.checks.reserve(FIRST_CHECKS);
            self.ends.reserve(MAX_PLANS);
        }
        self.checks
            .truncate(self.ends.last().map_or(0, |&end| end as usize));
    }

    /// Records that the step whose ints are `ints` must satisfy `predicate`.
    #[inline]
    pub(crate) fn record(&mut self, ints: Range<usize>, predicate: Predicate) {
        // A schedule's int offsets are below 2^32.
        self.checks.push(Check {
            start: ints.start as u32,
            end: ints.end as u32,
            predicate,
        });
    }

    /// Makes the checks recorded since [`Plans::start`] the plan of
    /// `schedule`'s skeleton, which a check just found clean.
    pub(crate) fn commit(&mut self, schedule: &ScheduleSequence) {
        const CHECK: usize = std::mem::size_of::<Check>();
        let start = self.ends.last().map_or(0, |&end| end as usize);
        let recorded = self.checks.len() - start;
        let bytes = Skeletons::bytes_of(schedule) + recorded * CHECK + 4;
        if bytes > MAX_PLAN_BYTES {
            return;
        }
        let held = self.skeletons.bytes() + start * CHECK + self.ends.len() * 4;
        if self.skeletons.len() == MAX_PLANS || held + bytes > MAX_PLAN_BYTES {
            self.checks.copy_within(start.., 0);
            self.checks.truncate(recorded);
            self.skeletons.clear();
            self.ends.clear();
        }
        self.skeletons.insert(schedule);
        // The checks take at most `MAX_PLAN_BYTES`.
        self.ends.push(self.checks.len() as u32);
    }
}
