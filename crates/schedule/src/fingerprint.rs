//! Fingerprinting many sequences at once, from their skeletons.
//!
//! A fingerprint folds a sequence's words one at a time through one
//! multiply chain, so hashing a schedule costs the chain's latency per
//! word, and most of those words are its skeleton's: candidates drawn from
//! one sketch differ mostly in their ints (see [`Skeletons`]). A
//! [`Fingerprinter`] keeps each skeleton's words — the exact stream
//! [`ScheduleSequence::salted_fingerprint`] folds, each int's word left as
//! a slot — drops a schedule's ints into its skeleton's words, and runs
//! four independent chains side by side, so the latency of one hides under
//! the others'.

use crate::hash::fold;
use crate::sequence::{int_word, Words};
use crate::{ScheduleSequence, Skeletons};

/// Skeletons a fingerprinter holds at most; a new one past the cap starts
/// the set over.
const MAX_SKELETONS: usize = 64;

/// Bytes of skeletons and their words a fingerprinter holds at most; a new
/// skeleton that would pass the cap starts the set over, and one that might
/// pass it on its own is not held: its schedules are hashed one by one.
const MAX_BYTES: usize = 256 << 10;

/// Chains hashed side by side.
const LANES: usize = 4;

/// Bytes one held skeleton's ends take.
const END: usize = std::mem::size_of::<(u32, u32)>();

/// A bounded set of skeletons with the words each one's schedules hash,
/// reused across requests.
///
/// [`Fingerprinter::salted_fingerprints_into`] returns exactly what
/// [`ScheduleSequence::salted_fingerprint`] returns for each schedule. Once
/// it holds a request's skeletons and its buffers have grown to the
/// request's size, it allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Fingerprinter {
    skeletons: Skeletons,
    /// Per skeleton, the words its schedules hash after the salt, with 0
    /// where an int's word goes; back to back.
    words: Vec<u64>,
    /// Per skeleton, where in its words each int's word goes, in the
    /// order of the schedule's ints; back to back.
    slots: Vec<u32>,
    /// Per skeleton, where its words and its slots end.
    ends: Vec<(u32, u32)>,
    /// Per lane, the words of the schedule it hashes.
    lanes: [Vec<u64>; LANES],
    found: u64,
    looked_up: u64,
}

/// Records a skeleton's words, with a slot for each int's.
struct Template<'a> {
    words: &'a mut Vec<u64>,
    slots: &'a mut Vec<u32>,
    start: usize,
}

impl Words for Template<'_> {
    #[inline]
    fn word(&mut self, word: u64) {
        self.words.push(word);
    }

    #[inline]
    fn int(&mut self, _: i64) {
        // A skeleton's words are written only if they take under `MAX_BYTES`.
        self.slots.push((self.words.len() - self.start) as u32);
        self.words.push(0);
    }
}

impl Fingerprinter {
    /// Fills `out` with each schedule's [`ScheduleSequence::fingerprint`],
    /// in order.
    pub fn fingerprints_into(&mut self, schedules: &[ScheduleSequence], out: &mut Vec<u64>) {
        self.salted_fingerprints_into(0, schedules, out);
    }

    /// Fills `out` with each schedule's
    /// [`ScheduleSequence::salted_fingerprint`] under `salt`, in order.
    pub fn salted_fingerprints_into(
        &mut self,
        salt: u64,
        schedules: &[ScheduleSequence],
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.resize(schedules.len(), 0);
        let start = fold(0, salt);
        let mut next = 0;
        // Per lane, the schedule it hashes, how many of its words are
        // folded, and the chain.
        let mut at: [Option<usize>; LANES] =
            std::array::from_fn(|lane| self.load(lane, salt, schedules, &mut next, out));
        let mut pos = [0usize; LANES];
        let mut hash = [start; LANES];
        // Once fewer schedules are left than lanes, an idle lane folds a
        // busy one's words into a chain nobody reads, so the last few
        // schedules still hash side by side.
        while let Some(busy) = at.iter().position(Option::is_some) {
            let step = (0..LANES)
                .filter(|&lane| at[lane].is_some())
                .map(|lane| self.lanes[lane].len() - pos[lane])
                .min()
                .unwrap_or(0);
            let [a, b, c, d] = [0, 1, 2, 3].map(|lane| {
                let lane = if at[lane].is_some() { lane } else { busy };
                &self.lanes[lane][pos[lane]..][..step]
            });
            let [mut ha, mut hb, mut hc, mut hd] = hash;
            for (((&wa, &wb), &wc), &wd) in a.iter().zip(b).zip(c).zip(d) {
                ha = fold(ha, wa);
                hb = fold(hb, wb);
                hc = fold(hc, wc);
                hd = fold(hd, wd);
            }
            hash = [ha, hb, hc, hd];
            for lane in 0..LANES {
                pos[lane] += step;
                if let Some(i) = at[lane].filter(|_| pos[lane] == self.lanes[lane].len()) {
                    out[i] = hash[lane];
                    (at[lane], pos[lane], hash[lane]) =
                        (self.load(lane, salt, schedules, &mut next, out), 0, start);
                }
            }
        }
    }

    /// Puts the words of the next schedule from `next` on whose skeleton is
    /// held into `lane` and returns its index, fingerprinting the ones
    /// before it whose skeleton cannot be held into `out`.
    fn load(
        &mut self,
        lane: usize,
        salt: u64,
        schedules: &[ScheduleSequence],
        next: &mut usize,
        out: &mut [u64],
    ) -> Option<usize> {
        while let Some(schedule) = schedules.get(*next) {
            let i = *next;
            *next += 1;
            let Some(skeleton) = self.skeleton(schedule) else {
                out[i] = schedule.salted_fingerprint(salt);
                continue;
            };
            let (words_start, slots_start) = match skeleton.checked_sub(1) {
                Some(before) => self.ends[before],
                None => (0, 0),
            };
            let (words_end, slots_end) = self.ends[skeleton];
            let words = &mut self.lanes[lane];
            words.clear();
            words.extend_from_slice(&self.words[words_start as usize..words_end as usize]);
            let slots = &self.slots[slots_start as usize..slots_end as usize];
            for (&slot, &value) in slots.iter().zip(schedule.ints()) {
                words[slot as usize] = int_word(value);
            }
            return Some(i);
        }
        None
    }

    /// The number of `schedule`'s skeleton, held now if it was not and it
    /// fits.
    fn skeleton(&mut self, schedule: &ScheduleSequence) -> Option<usize> {
        self.looked_up += 1;
        if let Some(skeleton) = self.skeletons.find(schedule) {
            self.found += 1;
            return Some(skeleton);
        }
        // A name of `n` bytes folds at most `n / 8 + 2` words, a primitive
        // four more and an int one, so this bounds the bytes the skeleton
        // would take before its words are written.
        let most = 5 * Skeletons::bytes_of(schedule) + 12 * schedule.ints().len() + END;
        if most > MAX_BYTES {
            return None;
        }
        let (words_start, slots_start) = (self.words.len(), self.slots.len());
        schedule.words(&mut Template {
            words: &mut self.words,
            slots: &mut self.slots,
            start: words_start,
        });
        let (words, slots) = (
            self.words.len() - words_start,
            self.slots.len() - slots_start,
        );
        let bytes = Skeletons::bytes_of(schedule) + 8 * words + 4 * slots + END;
        if self.ends.capacity() == 0 {
            self.words
                .reserve((MAX_SKELETONS * words).min(MAX_BYTES / 8));
            self.slots
                .reserve((MAX_SKELETONS * slots).min(MAX_BYTES / 4));
            self.ends.reserve(MAX_SKELETONS);
        }
        let held =
            self.skeletons.bytes() + 8 * words_start + 4 * slots_start + END * self.ends.len();
        if self.skeletons.len() == MAX_SKELETONS || held + bytes > MAX_BYTES {
            self.words.copy_within(words_start.., 0);
            self.words.truncate(words);
            self.slots.copy_within(slots_start.., 0);
            self.slots.truncate(slots);
            self.skeletons.clear();
            self.ends.clear();
        }
        // Both lengths are below `MAX_BYTES`.
        self.ends
            .push((self.words.len() as u32, self.slots.len() as u32));
        // Room for twice the longest skeleton yet, so that the lanes of a
        // pool drawn from one sketch grow once or twice.
        for lane in &mut self.lanes {
            if lane.capacity() < words {
                lane.reserve(2 * words - lane.len());
            }
        }
        Some(self.skeletons.insert(schedule))
    }

    /// Skeletons held.
    pub fn len(&self) -> usize {
        self.skeletons.len()
    }

    /// Whether no skeleton is held.
    pub fn is_empty(&self) -> bool {
        self.skeletons.is_empty()
    }

    /// Of the schedules fingerprinted so far, how many had a held skeleton,
    /// and how many there were.
    pub fn hits(&self) -> (u64, u64) {
        (self.found, self.looked_up)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::parse_schedule;

    fn fingerprints(fp: &mut Fingerprinter, salt: u64, schedules: &[ScheduleSequence]) -> Vec<u64> {
        let mut out = vec![7; 3];
        fp.salted_fingerprints_into(salt, schedules, &mut out);
        out
    }

    #[test]
    fn a_skeleton_past_the_byte_cap_is_hashed_on_its_own() {
        let huge = parse_schedule(&format!("SP(s, {}, [1, 2])", "i".repeat(MAX_BYTES))).unwrap();
        let small = parse_schedule("SP(s, i, [1, 2])").unwrap();
        let schedules = [small.clone(), huge.clone(), small.clone(), huge];
        let mut fp = Fingerprinter::default();
        let want: Vec<u64> = schedules.iter().map(|s| s.salted_fingerprint(3)).collect();
        assert_eq!(fingerprints(&mut fp, 3, &schedules), want);
        assert_eq!((fp.len(), fp.hits()), (1, (1, 4)));
    }

    #[test]
    fn the_set_starts_over_at_the_count_cap_and_keeps_its_storage() {
        let schedules: Vec<ScheduleSequence> = (0..MAX_SKELETONS + 5)
            .map(|i| parse_schedule(&format!("SP(s{i}, i, [{i}, 2])\nCI(relu)")).unwrap())
            .collect();
        let mut fp = Fingerprinter::default();
        let want: Vec<u64> = schedules
            .iter()
            .map(ScheduleSequence::fingerprint)
            .collect();
        assert_eq!(fingerprints(&mut fp, 0, &schedules), want);
        assert_eq!(fp.len(), 5);
        let room = fp.words.capacity();
        assert_eq!(fingerprints(&mut fp, 0, &schedules), want);
        assert_eq!(fp.words.capacity(), room);
        assert_eq!(fingerprints(&mut fp, 0, &[]), Vec::<u64>::new());
    }
}
