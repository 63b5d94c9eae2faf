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
//!
//! A schedule keyed a moment ago is not folded again: tuners resubmit their
//! elites, and a server sees the same candidates request after request. A
//! fingerprinter keeps a bounded memo of the schedules it keyed, by
//! skeleton number, salt and ints. A cheap hash of those picks the memo
//! slot to start from, and an exact compare of all three decides whether
//! it holds the schedule. A skeleton and its ints fix the sequence byte for
//! byte, so the fingerprint the memo returns is the one the chain would
//! fold.

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

/// Schedules the memo holds at most; one more starts it over.
const MAX_MEMOS: usize = 1024;

/// Slots of the memo's index: twice its count cap, so that it is at most
/// half full and a probe always reaches an empty slot.
const MEMO_SLOTS: usize = 2 * MAX_MEMOS;

/// Bytes of the memo's ints, entries and index together at most; a schedule
/// that would pass the cap starts the memo over, and one that might pass it
/// on its own is not memoized. A 256-candidate conv2d pool (about 21.5 ints
/// each) takes about 58 KiB.
const MAX_MEMO_BYTES: usize = 128 << 10;

/// Chains hashed side by side.
const LANES: usize = 4;

/// Bytes one held skeleton's ends take.
const END: usize = std::mem::size_of::<(u32, u32)>();

/// An index slot that holds no entry.
const EMPTY: u32 = u32::MAX;

/// One memoized schedule.
#[derive(Clone, Copy, Debug)]
struct Memoized {
    skeleton: u32,
    /// Where its ints start in the memo's arena; its skeleton fixes how
    /// many there are.
    ints: u32,
    salt: u64,
    fingerprint: u64,
}

/// The fingerprints of schedules keyed before, by skeleton number, salt and
/// ints: the ints back to back in one arena, an entry per schedule, and an
/// open-addressed index of entries. A hash only picks where a probe
/// starts; an entry answers only if its skeleton number, salt and every
/// int equal the schedule's.
#[derive(Clone, Debug, Default)]
struct Memo {
    ints: Vec<i64>,
    entries: Vec<Memoized>,
    /// [`MEMO_SLOTS`] long once the first entry is in; a slot holds an
    /// entry's number or [`EMPTY`].
    index: Vec<u32>,
}

impl Memo {
    /// Where a probe for `ints` of skeleton number `skeleton` under `salt`
    /// starts: each word xored with a seed of its own and multiplied out to
    /// 128 bits, the halves of every product xored together. No product
    /// waits on another, so the multiplies overlap. Its quality moves probe
    /// lengths only, never an answer.
    fn home(skeleton: u32, salt: u64, ints: &[i64]) -> usize {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mix = |word: u64, seed: u64| {
            let m = u128::from(word ^ seed) * u128::from(K);
            (m as u64) ^ (m >> 64) as u64
        };
        let mut h = mix(u64::from(skeleton), K) ^ mix(salt, K.wrapping_add(K));
        let mut seed = K.wrapping_mul(3);
        for &v in ints {
            h ^= mix(int_word(v), seed);
            seed = seed.wrapping_add(K);
        }
        h as usize & (MEMO_SLOTS - 1)
    }

    /// The fingerprint held for exactly these skeleton number, salt and
    /// ints, or else the empty slot a probe from `home` reaches.
    fn find(&self, home: usize, skeleton: u32, salt: u64, ints: &[i64]) -> Result<u64, usize> {
        let mut slot = home;
        while let Some(&entry) = self.index.get(slot).filter(|&&entry| entry != EMPTY) {
            let held = self.entries[entry as usize];
            if held.skeleton == skeleton
                && held.salt == salt
                && self.ints[held.ints as usize..][..ints.len()] == *ints
            {
                return Ok(held.fingerprint);
            }
            slot = (slot + 1) & (MEMO_SLOTS - 1);
        }
        Err(slot)
    }

    /// Holds `fingerprint` for these skeleton number, salt and ints, whose
    /// probe starts at `home`, unless it is held already. Starts the memo
    /// over first when it is full.
    ///
    /// Out of line: inlined into the lockstep loop, it tipped LLVM into
    /// packing the four chains into one AVX-512 vector multiply chain
    /// (`-C target-cpu=native` on a Xeon), whose latency made a miss 2.4×
    /// slower.
    #[inline(never)]
    fn insert(&mut self, home: usize, skeleton: u32, salt: u64, ints: &[i64], fingerprint: u64) {
        let bytes = 8 * ints.len() + std::mem::size_of::<Memoized>();
        if 4 * MEMO_SLOTS + bytes > MAX_MEMO_BYTES {
            return;
        }
        if self.index.is_empty() {
            self.index.resize(MEMO_SLOTS, EMPTY);
            self.entries.reserve(MAX_MEMOS);
            self.ints
                .reserve((MAX_MEMOS * ints.len()).min((MAX_MEMO_BYTES - 4 * MEMO_SLOTS) / 8));
        }
        let held =
            8 * self.ints.len() + std::mem::size_of_val(&self.entries[..]) + 4 * self.index.len();
        if self.entries.len() == MAX_MEMOS || held + bytes > MAX_MEMO_BYTES {
            self.clear();
        }
        if let Err(slot) = self.find(home, skeleton, salt, ints) {
            // Both fit in `u32`: the memo holds at most `MAX_MEMO_BYTES`.
            self.index[slot] = self.entries.len() as u32;
            self.entries.push(Memoized {
                skeleton,
                ints: self.ints.len() as u32,
                salt,
                fingerprint,
            });
            self.ints.extend_from_slice(ints);
        }
    }

    /// Forgets every schedule, keeping the storage.
    fn clear(&mut self) {
        self.ints.clear();
        self.entries.clear();
        self.index.fill(EMPTY);
    }
}

/// What a lane hashes: which schedule, its skeleton's number and the
/// skeleton set's start it was numbered in, and where its memo probe
/// starts.
#[derive(Clone, Copy)]
struct Loaded {
    schedule: usize,
    skeleton: u32,
    set: u64,
    home: usize,
}

/// A bounded set of skeletons with the words each one's schedules hash,
/// reused across requests.
///
/// [`Fingerprinter::salted_fingerprints_into`] returns exactly what
/// [`ScheduleSequence::salted_fingerprint`] returns for each schedule: from
/// its memo if it keyed the schedule under that salt before, folded from
/// its skeleton's words if not. Once it holds a request's skeletons and its
/// buffers have grown to the request's size, it allocates nothing.
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
    memo: Memo,
    /// How many times the skeleton set started over: a lane that was
    /// loaded before a start memoizes nothing, since its skeleton's number
    /// may since name another skeleton.
    starts: u64,
    memoized: u64,
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
        // Per lane, what it hashes, how many of its words are folded, and
        // the chain.
        let mut at: [Option<Loaded>; LANES] =
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
                if let Some(done) = at[lane].filter(|_| pos[lane] == self.lanes[lane].len()) {
                    out[done.schedule] = hash[lane];
                    if done.set == self.starts {
                        let ints = schedules[done.schedule].ints();
                        self.memo
                            .insert(done.home, done.skeleton, salt, ints, hash[lane]);
                    }
                    (at[lane], pos[lane], hash[lane]) =
                        (self.load(lane, salt, schedules, &mut next, out), 0, start);
                }
            }
        }
    }

    /// Puts the words of the next schedule from `next` that has to be
    /// folded into `lane` and says what it is, writing the fingerprints of
    /// the ones before it into `out`: from the memo, or one by one if their
    /// skeleton cannot be held.
    fn load(
        &mut self,
        lane: usize,
        salt: u64,
        schedules: &[ScheduleSequence],
        next: &mut usize,
        out: &mut [u64],
    ) -> Option<Loaded> {
        while let Some(schedule) = schedules.get(*next) {
            let i = *next;
            *next += 1;
            let Some(skeleton) = self.skeleton(schedule) else {
                out[i] = schedule.salted_fingerprint(salt);
                continue;
            };
            // At most `MAX_SKELETONS` are held.
            let number = skeleton as u32;
            let home = Memo::home(number, salt, schedule.ints());
            if let Ok(fingerprint) = self.memo.find(home, number, salt, schedule.ints()) {
                self.memoized += 1;
                out[i] = fingerprint;
                continue;
            }
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
            return Some(Loaded {
                schedule: i,
                skeleton: number,
                set: self.starts,
                home,
            });
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
            // Skeleton numbers are handed out again from 0.
            self.memo.clear();
            self.starts += 1;
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

    /// Of the schedules fingerprinted so far, how many the memo answered,
    /// how many had a held skeleton (the memo's among them), and how many
    /// there were.
    pub fn hits(&self) -> (u64, u64, u64) {
        (self.memoized, self.found, self.looked_up)
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
        assert_eq!((fp.len(), fp.hits()), (1, (0, 1, 4)));
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

    /// Fingerprints `schedules` through `fp` under `salt`, checks them
    /// against `salted_fingerprint`, and returns how many the memo answered.
    fn memoized(fp: &mut Fingerprinter, salt: u64, schedules: &[ScheduleSequence]) -> u64 {
        let before = fp.hits().0;
        let want: Vec<u64> = schedules
            .iter()
            .map(|s| s.salted_fingerprint(salt))
            .collect();
        assert_eq!(fingerprints(fp, salt, schedules), want);
        fp.hits().0 - before
    }

    #[test]
    fn schedules_of_one_skeleton_differing_in_one_int_or_in_order_are_told_apart() {
        let schedules: Vec<ScheduleSequence> = [
            "SP(d, i, [64, 8, 4])\nPR(d, i.0, [16], \"auto_unroll_max_step\")",
            "SP(d, i, [64, 8, 4])\nPR(d, i.0, [17], \"auto_unroll_max_step\")",
            "SP(d, i, [64, 8, 5])\nPR(d, i.0, [16], \"auto_unroll_max_step\")",
            "SP(d, i, [8, 64, 4])\nPR(d, i.0, [16], \"auto_unroll_max_step\")",
            "SP(d, i, [16, 8, 4])\nPR(d, i.0, [64], \"auto_unroll_max_step\")",
            "SP(d, i, [-64, 8, 4])\nPR(d, i.0, [16], \"auto_unroll_max_step\")",
        ]
        .iter()
        .map(|text| parse_schedule(text).unwrap())
        .collect();
        let mut fp = Fingerprinter::default();
        assert_eq!(memoized(&mut fp, 0, &schedules), 0);
        assert_eq!(fp.len(), 1);
        let mut distinct = fingerprints(&mut fp, 0, &schedules);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), schedules.len());
        assert_eq!(fp.hits(), (6, 11, 12));
        // One at a time and in reverse, each still gets its own.
        for s in schedules.iter().rev() {
            assert_eq!(memoized(&mut fp, 0, std::slice::from_ref(s)), 1);
        }
    }

    #[test]
    fn entries_forced_onto_one_slot_each_answer_for_themselves() {
        let mut memo = Memo::default();
        let home = MEMO_SLOTS - 2;
        let keys: [(u32, u64, &[i64]); 5] = [
            (0, 0, &[1, 2]),
            (0, 0, &[2, 1]),
            (1, 0, &[1, 2]),
            (0, 9, &[1, 2]),
            (0, 0, &[1, 3]),
        ];
        for (i, &(skeleton, salt, ints)) in keys.iter().enumerate() {
            assert!(memo.find(home, skeleton, salt, ints).is_err());
            memo.insert(home, skeleton, salt, ints, 100 + i as u64);
        }
        for (i, &(skeleton, salt, ints)) in keys.iter().enumerate() {
            assert_eq!(memo.find(home, skeleton, salt, ints), Ok(100 + i as u64));
        }
        // The probe wrapped past the index's end; the next empty slot is
        // where the sixth would go.
        assert_eq!(memo.find(home, 0, 0, &[1, 4]), Err(3));
        // The same key again is not held twice.
        memo.insert(home, 0, 0, &[1, 2], 7);
        assert_eq!(
            (memo.entries.len(), memo.find(home, 0, 0, &[1, 2])),
            (5, Ok(100))
        );
    }

    #[test]
    fn one_schedule_under_two_salts_gets_both_fingerprints() {
        let s = [parse_schedule("SP(d, i, [64, 8])\nCI(relu)").unwrap()];
        let mut fp = Fingerprinter::default();
        assert_eq!(memoized(&mut fp, 1, &s), 0);
        assert_eq!(memoized(&mut fp, 2, &s), 0);
        assert_eq!(memoized(&mut fp, 1, &s), 1);
        assert_eq!(memoized(&mut fp, 2, &s), 1);
        assert_ne!(s[0].salted_fingerprint(1), s[0].salted_fingerprint(2));
    }

    #[test]
    fn the_memo_starts_over_with_the_set_and_keeps_its_storage() {
        let schedules: Vec<ScheduleSequence> = (0..MAX_SKELETONS + 5)
            .map(|i| parse_schedule(&format!("SP(s{i}, i, [{i}, 2])\nCI(relu)")).unwrap())
            .collect();
        let mut fp = Fingerprinter::default();
        assert_eq!(memoized(&mut fp, 0, &schedules), 0);
        // Only the schedules numbered after the start are held.
        assert_eq!((fp.len(), fp.memo.entries.len()), (5, 5));
        let room = (fp.memo.ints.capacity(), fp.memo.entries.capacity());
        assert_eq!(memoized(&mut fp, 0, &schedules), 0);
        // Five skeletons in, the set started over again at `s59`.
        assert_eq!((fp.len(), fp.memo.entries.len()), (10, 10));
        assert_eq!(memoized(&mut fp, 0, &schedules[MAX_SKELETONS - 5..]), 10);
        assert_eq!((fp.memo.ints.capacity(), fp.memo.entries.capacity()), room);
    }

    #[test]
    fn a_lane_loaded_before_the_set_starts_over_memoizes_nothing() {
        let schedule = |stage: &str, a: i64| {
            parse_schedule(&format!("SP({stage}, i, [{a}, 2])\nCI(relu)")).unwrap()
        };
        let mut fp = Fingerprinter::default();
        let full: Vec<ScheduleSequence> = (0..MAX_SKELETONS)
            .map(|i| schedule(&format!("s{i}"), 1))
            .collect();
        memoized(&mut fp, 0, &full);
        // `s1` is skeleton 1 and its lane is loaded first; `t0` starts the
        // set over while it is folded, and `t1` is numbered 1 after it.
        assert_eq!(
            memoized(&mut fp, 0, &[schedule("s1", 7), schedule("t0", 5)]),
            0
        );
        assert_eq!(fp.len(), 1);
        assert_eq!(memoized(&mut fp, 0, &[schedule("t1", 7)]), 0);
        assert_eq!(memoized(&mut fp, 0, &[schedule("t1", 7)]), 1);
    }

    #[test]
    fn the_memo_starts_over_at_its_caps_and_keeps_its_storage() {
        // Few ints: the count cap is reached first.
        let few: Vec<ScheduleSequence> = (0..MAX_MEMOS as i64 + 5)
            .map(|i| parse_schedule(&format!("SP(d, i, [{i}])")).unwrap())
            .collect();
        // Many ints: the byte cap is reached first.
        let ints = |i: usize| (0..200).map(|k| (k * i).to_string()).collect::<Vec<_>>();
        let many: Vec<ScheduleSequence> = (0..100)
            .map(|i| parse_schedule(&format!("SP(d, i, [{}])", ints(i).join(", "))).unwrap())
            .collect();
        // Beside the index, room for this many of 200 ints.
        let fit = (MAX_MEMO_BYTES - 4 * MEMO_SLOTS) / (8 * 200 + std::mem::size_of::<Memoized>());
        for (schedules, held) in [(few, 5), (many, 100 - fit)] {
            let mut fp = Fingerprinter::default();
            assert_eq!(memoized(&mut fp, 0, &schedules), 0);
            assert_eq!(fp.memo.entries.len(), held);
            let room = (fp.memo.ints.capacity(), fp.memo.entries.capacity());
            assert_eq!(
                memoized(&mut fp, 0, &schedules[schedules.len() - held..]),
                held as u64
            );
            assert_eq!(memoized(&mut fp, 0, &schedules), 0);
            assert_eq!((fp.memo.ints.capacity(), fp.memo.entries.capacity()), room);
        }
    }
}
