//! TLP feature extraction (paper §4.1, Figs. 4–5).
//!
//! A schedule primitive is treated as a combination of three basic elements:
//! primitive type, numeric parameters, and character parameters ("Method 3").
//! The extractor (`F` in Fig. 4b) maps:
//!
//! - `F1`: primitive type → one-hot vector (14-wide here: Ansor's step kinds);
//! - `F2`: character parameter → vocabulary token;
//! - `F3`: number → itself.
//!
//! Features are concatenated in source order, then post-processed: cropped or
//! padded to `seq_len × emb_size` and normalized (`ln(1+x)` on parameter
//! values, which keeps the Euclidean distance between same-kind primitives
//! with nearby parameters small — the synonym-preserving property of §4.1).

use tlp_dataset::Dataset;
use tlp_schedule::{preprocess_elements, ElementRef, PrimitiveKind, ScheduleSequence, Vocabulary};

/// The one-hot width of the primitive-type field.
pub const ONEHOT: usize = PrimitiveKind::ALL.len();

/// A frozen feature-extraction pipeline: vocabulary plus output shape.
#[derive(Clone, Debug)]
pub struct FeatureExtractor {
    vocab: Vocabulary,
    /// Output sequence length (primitives per program).
    pub seq_len: usize,
    /// Output embedding size (features per primitive).
    pub emb_size: usize,
}

impl FeatureExtractor {
    /// Builds an extractor from a dataset corpus: the vocabulary collects all
    /// character parameters seen in the dataset's schedules.
    pub fn fit(dataset: &Dataset, seq_len: usize, emb_size: usize) -> Self {
        let mut builder = Vocabulary::builder();
        for task in &dataset.tasks {
            for rec in &task.programs {
                for p in rec.schedule.iter() {
                    for e in preprocess_elements(p) {
                        if let ElementRef::Name(n) = e {
                            builder.observe(n);
                        }
                    }
                }
            }
        }
        FeatureExtractor {
            vocab: builder.build(),
            seq_len,
            emb_size,
        }
    }

    /// Builds an extractor with an explicit vocabulary.
    pub fn with_vocab(vocab: Vocabulary, seq_len: usize, emb_size: usize) -> Self {
        FeatureExtractor {
            vocab,
            seq_len,
            emb_size,
        }
    }

    /// The extractor's vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Features per program: `seq_len × emb_size` (paper: 25 × 22 = 550).
    pub fn feature_size(&self) -> usize {
        self.seq_len * self.emb_size
    }

    /// Extracts a batch of schedules into a caller-owned [`FeatureBuf`],
    /// the single feature-extraction entry point.
    ///
    /// The buffer is reset (capacity kept) and refilled with one
    /// `seq_len × emb_size` dense block per schedule, plus the per-schedule
    /// real-row count that the fused scoring path uses to skip padding
    /// arithmetic. Steady-state callers — the engine's per-worker scratch,
    /// the training loop — re-pass the same buffer and allocate nothing.
    ///
    /// Accepts any iterator of schedule references, so the engine can feed
    /// a cache-miss subset (`idx.iter().map(|&i| &schedules[i])`) without
    /// first materializing a contiguous slice. A fresh buffer is sized
    /// exactly from the iterator's lower size bound: one allocation per
    /// field, however many candidates.
    pub fn extract_batch_into<'a, I>(&self, schedules: I, buf: &mut FeatureBuf)
    where
        I: IntoIterator<Item = &'a ScheduleSequence>,
    {
        let schedules = schedules.into_iter();
        let n = schedules.size_hint().0;
        buf.reset(self.seq_len, self.emb_size);
        buf.data.reserve_exact(n * self.feature_size());
        buf.rows_used.reserve_exact(n);
        for schedule in schedules {
            let out = buf.push_candidate(schedule.len().min(self.seq_len));
            for (row, p) in schedule.iter().take(self.seq_len).enumerate() {
                let slot = &mut out[row * self.emb_size..(row + 1) * self.emb_size];
                // F1: one-hot type.
                let kind_idx = p.kind.index();
                if kind_idx < self.emb_size {
                    slot[kind_idx] = 1.0;
                }
                // F2/F3: parameter elements in source order, cropped at
                // emb_size. Streamed straight off the concrete primitive —
                // no abstract-form materialization, no heap traffic.
                for (i, e) in preprocess_elements(p).enumerate() {
                    let col = ONEHOT + i;
                    if col >= self.emb_size {
                        break;
                    }
                    let raw = match e {
                        ElementRef::Num(n) => n as f32,
                        ElementRef::Name(n) => self.vocab.token(n) as f32,
                    };
                    // ln(1+x) normalization keeps magnitudes comparable.
                    slot[col] = (1.0 + raw.max(0.0)).ln();
                }
            }
        }
    }
}

/// A reusable dense feature batch: `n × (seq_len · emb_size)` row-major
/// values plus each candidate's count of real (non-padding) leading rows.
///
/// `FeatureBuf` is the hand-off point of the zero-copy scoring pipeline:
/// [`FeatureExtractor::extract_batch_into`] writes candidates straight into
/// it, and the model's fused forward pass reads from it — no intermediate
/// per-candidate `Vec<f32>`. The engine owns one per worker; refilling
/// reuses capacity, so steady-state extraction allocates nothing. Serving
/// queues a request as the buffer admission extracted it into, and a
/// batch gathers its requests' blocks with [`FeatureBuf::extend_from`].
///
/// Padding rows are exactly zero, and real rows always form a leading
/// prefix — the invariant the fused path's compact representation
/// (see `tlp_nn::infer`) relies on.
#[derive(Clone, Debug, Default)]
pub struct FeatureBuf {
    data: Vec<f32>,
    rows_used: Vec<usize>,
    seq_len: usize,
    emb_size: usize,
}

impl FeatureBuf {
    /// Creates an empty buffer; shape is set by the first extraction.
    pub fn new() -> Self {
        FeatureBuf::default()
    }

    /// Clears contents (keeping capacity) and fixes the per-candidate shape.
    fn reset(&mut self, seq_len: usize, emb_size: usize) {
        self.data.clear();
        self.rows_used.clear();
        self.seq_len = seq_len;
        self.emb_size = emb_size;
    }

    /// Appends one zeroed `seq_len × emb_size` block, recording `rows` real
    /// rows, and returns the block for the extractor to fill.
    fn push_candidate(&mut self, rows: usize) -> &mut [f32] {
        let fs = self.seq_len * self.emb_size;
        let base = self.data.len();
        self.data.resize(base + fs, 0.0);
        self.rows_used.push(rows);
        &mut self.data[base..]
    }

    /// Forgets every candidate, keeping the storage.
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows_used.clear();
    }

    /// Copies candidates `idx` of `src` onto the end of this buffer; an
    /// empty buffer first takes `src`'s shape.
    ///
    /// # Panics
    ///
    /// Panics if this buffer holds candidates of another shape, or an index
    /// is out of range.
    pub fn extend_from(&mut self, src: &FeatureBuf, idx: impl IntoIterator<Item = usize>) {
        if self.is_empty() {
            (self.seq_len, self.emb_size) = (src.seq_len, src.emb_size);
        }
        assert_eq!(
            (self.seq_len, self.emb_size),
            (src.seq_len, src.emb_size),
            "feature blocks of different shapes"
        );
        for i in idx {
            self.data.extend_from_slice(src.candidate(i));
            self.rows_used.push(src.rows_used[i]);
        }
    }

    /// Number of candidates in the buffer.
    pub fn len(&self) -> usize {
        self.rows_used.len()
    }

    /// Whether the buffer holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.rows_used.is_empty()
    }

    /// Dense `n × (seq_len · emb_size)` feature values, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Per-candidate count of real (non-padding) leading rows.
    pub fn rows_used(&self) -> &[usize] {
        &self.rows_used
    }

    /// Sequence length each candidate is padded to.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Features per primitive row.
    pub fn emb_size(&self) -> usize {
        self.emb_size
    }

    /// Features per candidate (`seq_len × emb_size`).
    pub fn feature_size(&self) -> usize {
        self.seq_len * self.emb_size
    }

    /// Every candidate's real (non-padding) rows, candidate-major — the
    /// rows the fused forward computes on.
    pub fn real_rows(&self) -> impl Iterator<Item = &[f32]> {
        let e = self.emb_size.max(1);
        self.data
            .chunks_exact(self.feature_size().max(1))
            .zip(&self.rows_used)
            .flat_map(move |(block, &rows)| block[..rows * e].chunks_exact(e))
    }

    /// One candidate's dense `seq_len × emb_size` block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn candidate(&self, i: usize) -> &[f32] {
        let fs = self.feature_size();
        &self.data[i * fs..(i + 1) * fs]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_schedule::ConcretePrimitive;

    fn extractor() -> FeatureExtractor {
        let mut b = Vocabulary::builder();
        for w in ["dense", "i", "j", "k", "parallel", "vectorize"] {
            b.observe(w);
        }
        FeatureExtractor::with_vocab(b.build(), 4, 22)
    }

    fn split(factors: [i64; 2]) -> ConcretePrimitive {
        ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints(factors)
    }

    fn extract_one(ex: &FeatureExtractor, seq: &ScheduleSequence) -> Vec<f32> {
        let mut buf = FeatureBuf::new();
        ex.extract_batch_into(std::slice::from_ref(seq), &mut buf);
        buf.data().to_vec()
    }

    #[test]
    fn onehot_kind_set() {
        let ex = extractor();
        let seq: ScheduleSequence = [split([8, 4])].into_iter().collect();
        let f = extract_one(&ex, &seq);
        assert_eq!(f.len(), 4 * 22);
        let row0 = &f[..22];
        assert_eq!(row0[PrimitiveKind::Split.index()], 1.0);
        let hot: usize = row0[..ONEHOT].iter().filter(|&&x| x != 0.0).count();
        assert_eq!(hot, 1, "exactly one kind bit");
    }

    #[test]
    fn padding_rows_are_zero_and_counted() {
        let ex = extractor();
        let seq: ScheduleSequence = [split([8, 4])].into_iter().collect();
        let mut buf = FeatureBuf::new();
        ex.extract_batch_into(std::slice::from_ref(&seq), &mut buf);
        assert!(buf.data()[22..].iter().all(|&x| x == 0.0));
        assert_eq!(buf.rows_used(), &[1]);
    }

    #[test]
    fn cropping_drops_extra_primitives() {
        let ex = extractor();
        let seq: ScheduleSequence = (0..10).map(|_| split([8, 4])).collect();
        let mut buf = FeatureBuf::new();
        ex.extract_batch_into(std::slice::from_ref(&seq), &mut buf);
        let f = buf.data();
        assert_eq!(f.len(), 4 * 22);
        // All four rows populated; rows_used is cropped at seq_len.
        for r in 0..4 {
            assert!(f[r * 22..(r + 1) * 22].iter().any(|&x| x != 0.0));
        }
        assert_eq!(buf.rows_used(), &[4]);
    }

    #[test]
    fn same_kind_primitives_are_close_different_kinds_far() {
        // The synonym-preservation property (paper §4.1): same-kind
        // primitives with nearby parameters are closer in Euclidean distance
        // than different-kind primitives.
        let ex = extractor();
        let a: ScheduleSequence = [split([8, 4])].into_iter().collect();
        let b: ScheduleSequence = [split([8, 8])].into_iter().collect();
        let c: ScheduleSequence = [ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
            .with_loops(["i.0"])
            .with_extras(["parallel"])]
        .into_iter()
        .collect();
        let d2 =
            |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum() };
        let (fa, fb, fc) = (
            extract_one(&ex, &a),
            extract_one(&ex, &b),
            extract_one(&ex, &c),
        );
        assert!(d2(&fa, &fb) < d2(&fa, &fc));
    }

    #[test]
    fn numeric_values_are_log_scaled() {
        let ex = extractor();
        let seq: ScheduleSequence = [split([512, 1])].into_iter().collect();
        let f = extract_one(&ex, &seq);
        let max = f.iter().cloned().fold(0.0f32, f32::max);
        assert!(max < 8.0, "log scaling keeps features small, max {max}");
    }

    #[test]
    fn batch_concatenates_and_reuses_capacity() {
        let ex = extractor();
        let seqs: Vec<ScheduleSequence> = vec![
            [split([8, 4])].into_iter().collect(),
            [split([4, 4])].into_iter().collect(),
        ];
        let mut buf = FeatureBuf::new();
        ex.extract_batch_into(&seqs, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.data().len(), 2 * ex.feature_size());
        assert_eq!(buf.candidate(0), &extract_one(&ex, &seqs[0])[..]);
        assert_eq!(buf.rows_used(), &[1, 1]);
        // Refilling reuses the allocation.
        let ptr = buf.data().as_ptr();
        let cap = buf.data.capacity();
        ex.extract_batch_into(&seqs, &mut buf);
        assert_eq!(buf.data().as_ptr(), ptr);
        assert_eq!(buf.data.capacity(), cap);
    }

    #[test]
    fn subset_extraction_via_iterator() {
        let ex = extractor();
        let seqs: Vec<ScheduleSequence> = (1..5i64)
            .map(|i| [split([i, 4])].into_iter().collect())
            .collect();
        let idx = [3usize, 0];
        let mut buf = FeatureBuf::new();
        ex.extract_batch_into(idx.iter().map(|&i| &seqs[i]), &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.candidate(0), &extract_one(&ex, &seqs[3])[..]);
        assert_eq!(buf.candidate(1), &extract_one(&ex, &seqs[0])[..]);

        // Gathering the same subset out of a whole-batch extraction is the
        // same buffer.
        let mut all = FeatureBuf::new();
        ex.extract_batch_into(&seqs, &mut all);
        let mut gathered = FeatureBuf::new();
        gathered.extend_from(&all, idx);
        assert_eq!(
            (gathered.data(), gathered.rows_used()),
            (buf.data(), buf.rows_used())
        );
    }
}
