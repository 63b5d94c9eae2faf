//! Property-based tests of the top-k metric (paper §6.1).

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use tlp::top_k_score;
use tlp_dataset::{Dataset, ProgramRecord, TaskData};
use tlp_schedule::ScheduleSequence;
use tlp_workload::{AnchorOp, Subgraph};

fn dataset_from(lats: Vec<Vec<f64>>) -> Dataset {
    Dataset {
        platforms: vec![tlp_hwsim::Platform::i7_10510u()],
        tasks: lats
            .into_iter()
            .enumerate()
            .map(|(i, task_lats)| TaskData {
                subgraph: Subgraph::new(
                    format!("t{i}"),
                    AnchorOp::Dense {
                        m: 1 + i as i64,
                        n: 1,
                        k: 1,
                    },
                ),
                weight: 1 + i % 3,
                from_test_set: true,
                programs: task_lats
                    .into_iter()
                    .map(|l| ProgramRecord {
                        schedule: ScheduleSequence::new(),
                        latencies: vec![l],
                        validity: Default::default(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn arb_latencies() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(1e-6f64..1.0, 2..20), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scores lie in (0, 1]; the oracle scores exactly 1.
    #[test]
    fn bounded_and_oracle_perfect(lats in arb_latencies()) {
        let ds = dataset_from(lats);
        let oracle = top_k_score(&ds, 0, 1, |t| {
            t.programs.iter().map(|r| -(r.latencies[0] as f32)).collect()
        });
        prop_assert!((oracle - 1.0).abs() < 1e-9);
        let arbitrary = top_k_score(&ds, 0, 1, |t| {
            (0..t.programs.len()).map(|i| (i % 7) as f32).collect()
        });
        prop_assert!(arbitrary > 0.0 && arbitrary <= 1.0 + 1e-9);
    }

    /// top-k is monotone non-decreasing in k.
    #[test]
    fn monotone_in_k(lats in arb_latencies(), shift in 0usize..5) {
        let ds = dataset_from(lats);
        let scorer = |t: &TaskData| -> Vec<f32> {
            (0..t.programs.len()).map(|i| ((i + shift) % 5) as f32).collect()
        };
        let mut prev = 0.0;
        for k in 1..=6 {
            let s = top_k_score(&ds, 0, k, scorer);
            prop_assert!(s + 1e-12 >= prev, "k={k}: {s} < {prev}");
            prev = s;
        }
    }

    /// The metric is invariant to monotone transformations of the scores.
    #[test]
    fn invariant_to_monotone_score_transform(lats in arb_latencies()) {
        let ds = dataset_from(lats);
        let base = |t: &TaskData| -> Vec<f32> {
            t.programs.iter().map(|r| -(r.latencies[0] as f32).sqrt()).collect()
        };
        let transformed = |t: &TaskData| -> Vec<f32> {
            base(t).into_iter().map(|s| 3.0 * s + 11.0).collect()
        };
        let a = top_k_score(&ds, 0, 2, base);
        let b = top_k_score(&ds, 0, 2, transformed);
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// With k >= programs per task, the score is exactly 1 regardless of the
    /// scorer (every program is in the top-k).
    #[test]
    fn saturates_at_full_coverage(lats in arb_latencies()) {
        let max_len = lats.iter().map(Vec::len).max().unwrap_or(1);
        let ds = dataset_from(lats);
        let s = top_k_score(&ds, 0, max_len, |t| vec![0.0; t.programs.len()]);
        prop_assert!((s - 1.0).abs() < 1e-9);
    }
}
