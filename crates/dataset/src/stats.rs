//! Dataset statistics reproduced from the paper's analysis sections.
//!
//! - Figure 6: distribution of schedule-primitive sequence lengths;
//! - Table 1: maximum embedding size per primitive kind;
//! - §4.3: schedule-sequence uniqueness (repetition rate).

use crate::record::Dataset;
use std::collections::{HashMap, HashSet};
use tlp_schedule::{preprocess, PrimitiveKind};

/// Histogram of sequence lengths (paper Fig. 6).
pub fn sequence_length_distribution(ds: &Dataset) -> Vec<(usize, usize)> {
    let mut hist: HashMap<usize, usize> = HashMap::new();
    for t in &ds.tasks {
        for r in &t.programs {
            *hist.entry(r.schedule.len()).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(usize, usize)> = hist.into_iter().collect();
    out.sort_by_key(|&(len, _)| len);
    out
}

/// Maximum sequence length in the dataset.
pub fn max_sequence_length(ds: &Dataset) -> usize {
    ds.tasks
        .iter()
        .flat_map(|t| t.programs.iter())
        .map(|r| r.schedule.len())
        .max()
        .unwrap_or(0)
}

/// Maximum embedding size per primitive kind (paper Table 1): the one-hot
/// width plus the largest parameter-element count observed for that kind.
pub fn max_embedding_sizes(ds: &Dataset) -> Vec<(PrimitiveKind, usize)> {
    let onehot = PrimitiveKind::ALL.len();
    let mut maxes: HashMap<PrimitiveKind, usize> = HashMap::new();
    for t in &ds.tasks {
        for r in &t.programs {
            for p in r.schedule.iter() {
                let a = preprocess(p);
                let size = onehot + a.elements.len();
                let slot = maxes.entry(p.kind).or_insert(0);
                *slot = (*slot).max(size);
            }
        }
    }
    let mut out: Vec<(PrimitiveKind, usize)> = maxes.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Maximum embedding size over all primitives.
pub fn max_embedding_size(ds: &Dataset) -> usize {
    max_embedding_sizes(ds)
        .into_iter()
        .map(|(_, s)| s)
        .max()
        .unwrap_or(0)
}

/// Aggregate of the per-record static-verifier labels
/// ([`ProgramRecord::validity`](crate::ProgramRecord)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct ValidityStats {
    /// Total programs in the dataset.
    pub total: usize,
    /// Programs free of verifier errors (warnings/lints allowed).
    pub valid: usize,
    /// Programs with at least one verifier warning.
    pub with_warnings: usize,
    /// Programs with at least one lint.
    pub with_lints: usize,
}

/// Aggregates the recorded validity labels across the whole dataset.
pub fn validity(ds: &Dataset) -> ValidityStats {
    let mut out = ValidityStats::default();
    for t in &ds.tasks {
        for r in &t.programs {
            out.total += 1;
            if r.validity.is_valid() {
                out.valid += 1;
            }
            if r.validity.warnings > 0 {
                out.with_warnings += 1;
            }
            if r.validity.lints > 0 {
                out.with_lints += 1;
            }
        }
    }
    out
}

/// Uniqueness statistics of schedule sequences (paper §4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UniquenessStats {
    /// Total programs in the dataset.
    pub total: usize,
    /// Distinct schedule sequences (by fingerprint).
    pub distinct: usize,
}

impl UniquenessStats {
    /// The repetition rate `(total - distinct) / total` (paper: ~1%).
    pub fn repetition_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.total - self.distinct) as f64 / self.total as f64
        }
    }
}

/// Computes schedule-sequence uniqueness across the whole dataset.
pub fn uniqueness(ds: &Dataset) -> UniquenessStats {
    let mut set = HashSet::new();
    let mut total = 0usize;
    for t in &ds.tasks {
        for r in &t.programs {
            total += 1;
            set.insert(r.schedule.fingerprint());
        }
    }
    UniquenessStats {
        total,
        distinct: set.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dataset_for, DatasetConfig};
    use tlp_hwsim::Platform;
    use tlp_workload::bert_tiny;

    fn ds() -> Dataset {
        generate_dataset_for(
            &[bert_tiny(1, 64)],
            &[],
            &[Platform::i7_10510u()],
            &DatasetConfig {
                programs_per_task: 16,
                refined_fraction: 0.25,
                seed: 3,
            },
        )
    }

    #[test]
    fn histogram_counts_every_program() {
        let d = ds();
        let hist = sequence_length_distribution(&d);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, d.num_programs());
        assert!(max_sequence_length(&d) >= hist.last().unwrap().0);
    }

    #[test]
    fn embedding_sizes_exceed_onehot_width() {
        let d = ds();
        let sizes = max_embedding_sizes(&d);
        assert!(!sizes.is_empty());
        for (_, s) in &sizes {
            assert!(*s > PrimitiveKind::ALL.len());
        }
        // Sorted descending.
        assert!(sizes.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn low_repetition_rate_as_in_paper() {
        let d = ds();
        let u = uniqueness(&d);
        assert_eq!(u.total, d.num_programs());
        // Paper §4.3 reports ~1%; generation dedups per task, so across tasks
        // the rate stays low.
        assert!(u.repetition_rate() < 0.1, "rate {}", u.repetition_rate());
    }
}
