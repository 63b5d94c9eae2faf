//! Compact (ragged) micro-batch descriptors for the fused inference path.
//!
//! TLP feature tensors are `[n, l, f]` with a fixed sequence length `l`
//! (25 in the paper), but real schedules rarely fill all `l` rows: unused
//! tail rows are exactly zero. And because a feature row encodes one
//! schedule primitive, candidates of one subgraph are mostly *the same
//! rows*. The dense tape path pays for every padding row and every repeat;
//! the fused inference path instead works on a *compact* representation:
//!
//! - the micro-batch's `d` distinct rows, each stored once
//!   ([`RowInterner`]), row [`PAD_ROW`] being the all-zero padding row;
//! - a `row_of` map from each of the `R = Σᵢ rowsᵢ` real rows
//!   (candidate-major) to its distinct row.
//!
//! Every row-wise stage before attention (upsampling, the Q/K/V
//! projections) runs on the `d` distinct rows: a row-wise GEMM output
//! element depends only on its own input row, so a shared row's image is
//! the bits each of its occurrences would have produced. Attention mixes a
//! row with the rest of its candidate, so nothing is shared after it:
//! post-attention stages operate on an `[(R + C), dim]` matrix whose last
//! `C` rows are the per-candidate pad rows (pad queries are identical
//! within a candidate). Because padding is a contiguous *tail*, every
//! reduction the dense path performs over the `l` axis visits real rows
//! first and then `l - rowsᵢ` copies of the pad row; replaying the identical
//! floating-point operation on the (precomputed) pad value once per padding
//! position keeps results bit-identical to the dense computation while
//! skipping all the redundant arithmetic that produces those values.

/// Shape descriptor for a tail-padded micro-batch in compact form.
///
/// Borrows the per-candidate real-row counts; `seq_len` is the dense
/// sequence length `l` every candidate is padded to.
#[derive(Clone, Copy, Debug)]
pub struct Ragged<'a> {
    rows_used: &'a [usize],
    seq_len: usize,
}

impl<'a> Ragged<'a> {
    /// Creates a descriptor over per-candidate real-row counts.
    ///
    /// # Panics
    ///
    /// Panics if any count exceeds `seq_len`.
    pub fn new(rows_used: &'a [usize], seq_len: usize) -> Self {
        assert!(
            rows_used.iter().all(|&r| r <= seq_len),
            "rows_used entry exceeds seq_len"
        );
        Ragged { rows_used, seq_len }
    }

    /// Number of candidates `C` in the micro-batch.
    pub fn candidates(&self) -> usize {
        self.rows_used.len()
    }

    /// Dense sequence length `l` candidates are padded to.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Per-candidate real-row counts.
    pub fn rows_used(&self) -> &[usize] {
        self.rows_used
    }

    /// Total number of real rows `R` across the micro-batch.
    pub fn total_rows(&self) -> usize {
        self.rows_used.iter().sum()
    }
}

/// Distinct-row id of the all-zero padding row ([`RowInterner::begin`]
/// seeds it before any real row).
pub const PAD_ROW: u32 = 0;

const EMPTY: u32 = u32::MAX;

/// Deduplicates the feature rows of one micro-batch by exact bit pattern.
///
/// An open-addressed table of row ids keyed on the row's `f32` bit
/// patterns; every probe that lands on an occupied slot compares all bits,
/// so two rows share an id only when they are bitwise equal (`+0.0` and
/// `-0.0`, or two NaN payloads, are different rows). Ids are handed out in
/// first-occurrence order and index the caller's `distinct` row storage.
/// The table and the `row_of` map keep their capacity across micro-batches,
/// so a warmed-up interner allocates nothing.
#[derive(Debug, Default)]
pub struct RowInterner {
    /// Power-of-two sized; a slot holds a distinct-row id or `EMPTY`.
    table: Vec<u32>,
    /// Distinct-row id of every interned row, in `intern` order.
    row_of: Vec<u32>,
}

impl RowInterner {
    /// Starts a micro-batch of at most `rows` rows of `width` values:
    /// empties the table (at most half full even if every row is distinct),
    /// the map and `distinct`, then stores the all-zero row as
    /// [`PAD_ROW`].
    pub fn begin(&mut self, rows: usize, width: usize, distinct: &mut Vec<f32>) {
        self.reset((2 * (rows + 1)).next_power_of_two(), width, distinct);
    }

    fn reset(&mut self, slots: usize, width: usize, distinct: &mut Vec<f32>) {
        debug_assert!(slots.is_power_of_two() && width > 0);
        self.table.clear();
        self.table.resize(slots, EMPTY);
        self.row_of.clear();
        distinct.clear();
        distinct.resize(width, 0.0);
        let slot = self.slot_of(distinct);
        self.table[slot] = PAD_ROW;
    }

    /// Interns one row: returns the id of the bit-identical row already in
    /// `distinct`, or appends `row` to it under the next id. Either way the
    /// id is also appended to [`RowInterner::row_of`].
    pub fn intern(&mut self, row: &[f32], distinct: &mut Vec<f32>) -> u32 {
        let width = row.len();
        let mask = self.table.len() - 1;
        let mut slot = self.slot_of(row);
        let id = loop {
            let id = self.table[slot];
            if id == EMPTY {
                let id = (distinct.len() / width) as u32;
                distinct.extend_from_slice(row);
                self.table[slot] = id;
                break id;
            }
            let seen = &distinct[id as usize * width..(id as usize + 1) * width];
            // Branch-free so the whole-row compare vectorizes.
            let diff = row
                .iter()
                .zip(seen)
                .fold(0, |acc, (a, b)| acc | (a.to_bits() ^ b.to_bits()));
            if diff == 0 {
                break id;
            }
            slot = (slot + 1) & mask;
        };
        self.row_of.push(id);
        id
    }

    /// Distinct-row id of each row interned since [`RowInterner::begin`].
    pub fn row_of(&self) -> &[u32] {
        &self.row_of
    }

    /// Home slot of `row`: word pairs folded through independent 64×64→128
    /// multiplies (no chain through the accumulator, so the 22-word row
    /// hashes in a handful of cycles), the pair's position entering through
    /// its seed. Hash quality only affects probe length, never ids.
    fn slot_of(&self, row: &[f32]) -> usize {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut seed = K;
        let mut h = 0u64;
        for pair in row.chunks(2) {
            let lo = u64::from(pair[0].to_bits());
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            let m = u128::from((lo | hi << 32) ^ seed) * u128::from(K);
            h ^= (m as u64) ^ (m >> 64) as u64;
            seed = seed.wrapping_add(K);
        }
        h as usize & (self.table.len() - 1)
    }
}

/// Per-candidate sums over the padded sequence axis, bit-identical to the
/// dense `reshape([n, l]) → sum_axis(1)` epilogue.
///
/// `y` holds `R + C` per-row scalars (real rows first, candidate-major,
/// then one pad-row scalar per candidate). The dense reduction starts each
/// accumulator at `+0.0` and adds the `l` row values in sequence order;
/// padding rows sit at the tail, so the compact replay adds the real values
/// first and then the pad value `seq_len - rowsᵢ` times — each addition is
/// the same f32 operation the dense path performs.
///
/// # Panics
///
/// Panics if `y` is shorter than `R + C`.
pub fn ragged_tail_sums(y: &[f32], ragged: &Ragged<'_>, out: &mut Vec<f32>) {
    let total = ragged.total_rows();
    assert!(
        y.len() >= total + ragged.candidates(),
        "ragged_tail_sums input too short"
    );
    out.clear();
    let mut base = 0usize;
    for (i, &ru) in ragged.rows_used().iter().enumerate() {
        let pad = y[total + i];
        let mut acc = 0.0f32;
        for &v in &y[base..base + ru] {
            acc += v;
        }
        for _ in ru..ragged.seq_len() {
            acc += pad;
        }
        out.push(acc);
        base += ru;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn descriptor_counts() {
        let rows = [3usize, 0, 5];
        let r = Ragged::new(&rows, 5);
        assert_eq!(r.candidates(), 3);
        assert_eq!(r.total_rows(), 8);
        assert_eq!(r.seq_len(), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds seq_len")]
    fn descriptor_rejects_overflow() {
        let rows = [6usize];
        let _ = Ragged::new(&rows, 5);
    }

    #[test]
    fn interner_shares_ids_only_between_bit_identical_rows() {
        let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002));
        let rows = [
            [1.0f32, 2.0, 3.0],
            [1.0, 2.0, 3.0],
            [1.0, 2.0, f32::from_bits(3.0f32.to_bits() ^ 1)], // one bit off
            [0.0, 0.0, 0.0],                                  // the padding row
            [0.0, -0.0, 0.0],
            [nan_a, 0.0, 0.0],
            [nan_b, 0.0, 0.0],
            [nan_a, 0.0, 0.0],
        ];
        let mut interner = RowInterner::default();
        let mut distinct = Vec::new();
        // Twice: a new micro-batch starts from an empty table and map.
        for _ in 0..2 {
            interner.begin(rows.len(), 3, &mut distinct);
            let ids = rows.map(|row| interner.intern(&row, &mut distinct));
            // First-occurrence order, after the seeded padding row.
            assert_eq!(ids, [1, 1, 2, PAD_ROW, 3, 4, 5, 4]);
            assert_eq!(interner.row_of(), ids);
            assert_eq!(distinct.len(), 6 * 3);
            for (row, id) in rows.iter().zip(ids) {
                let stored = &distinct[id as usize * 3..(id as usize + 1) * 3];
                assert!(row
                    .iter()
                    .zip(stored)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn interner_stays_correct_when_the_table_is_one_probe_chain() {
        // 31 distinct rows (padding row included) in the 32 slots that just
        // hold them: inserts and lookups walk one long chain that wraps
        // around the table's end.
        let mut interner = RowInterner::default();
        let mut distinct = Vec::new();
        interner.reset(32, 2, &mut distinct);
        for _ in 0..3 {
            for i in 0..30u32 {
                let row = [i as f32 + 1.0, (i * 7 % 5) as f32];
                assert_eq!(interner.intern(&row, &mut distinct), 1 + i);
            }
        }
        assert_eq!(distinct.len(), 31 * 2);
        assert_eq!(interner.row_of().len(), 90);
    }

    #[test]
    fn tail_sums_match_dense_reduction() {
        // Candidate 0: rows [1.5, -2.25], pad 0.125, l = 4.
        // Candidate 1: no real rows, pad -0.5.
        let rows = [2usize, 0];
        let r = Ragged::new(&rows, 4);
        let y = [1.5f32, -2.25, 0.125, -0.5];
        let mut out = Vec::new();
        ragged_tail_sums(&y, &r, &mut out);

        let dense0 = [1.5f32, -2.25, 0.125, 0.125];
        let dense1 = [-0.5f32, -0.5, -0.5, -0.5];
        let sum = |row: &[f32]| row.iter().fold(0.0f32, |a, &v| a + v);
        assert_eq!(out[0].to_bits(), sum(&dense0).to_bits());
        assert_eq!(out[1].to_bits(), sum(&dense1).to_bits());
    }
}
