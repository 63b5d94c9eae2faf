//! Dataset-based evaluation metrics (paper §6.1).
//!
//! The top-k score measures how good a cost model's best-k picks are:
//!
//! ```text
//! top-k = Σ_m Σ_s min_latency(m,s)·weight(m,s)
//!         ─────────────────────────────────────────────
//!         Σ_m Σ_s min_{i≤k} latency(m,s,i)·weight(m,s)
//! ```
//!
//! where `latency(m,s,i)` is the true latency of the program ranked `i`-th
//! by the cost model. A perfect model scores 1.0.

use tlp_dataset::{Dataset, TaskData};

/// Scores a cost model on a dataset's held-out test tasks at one `k`.
///
/// `scorer` returns one predicted score per program of a task (higher =
/// predicted faster). `platform` selects the label column.
pub fn top_k_score(
    ds: &Dataset,
    platform: usize,
    k: usize,
    scorer: impl FnMut(&TaskData) -> Vec<f32>,
) -> f64 {
    let [score] = top_k_scores(ds, platform, [k], scorer);
    score
}

/// [`top_k_score`] at every `k` of `ks` from one scoring pass: `scorer` runs
/// once per non-empty test task, and each value is bit-equal to the one-`k`
/// form's.
pub fn top_k_scores<const N: usize>(
    ds: &Dataset,
    platform: usize,
    ks: [usize; N],
    mut scorer: impl FnMut(&TaskData) -> Vec<f32>,
) -> [f64; N] {
    let mut numer = 0.0f64;
    let mut denom = [0.0f64; N];
    let mut ranked = Vec::new();
    for task in ds.test_tasks() {
        if task.programs.is_empty() {
            continue;
        }
        let scores = scorer(task);
        assert_eq!(
            scores.len(),
            task.programs.len(),
            "scorer must rank every program"
        );
        ranked.clear();
        ranked.extend(0..scores.len());
        ranked.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let w = task.weight as f64;
        numer += task.min_latency(platform) * w;
        for (d, &k) in denom.iter_mut().zip(&ks) {
            // The minimum true latency among the `k` programs ranked highest.
            let best_of_topk = ranked
                .iter()
                .take(k.max(1))
                .map(|&i| task.programs[i].latencies[platform])
                .fold(f64::INFINITY, f64::min);
            *d += best_of_topk * w;
        }
    }
    denom.map(|d| if d == 0.0 { 0.0 } else { numer / d })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_dataset::ProgramRecord;
    use tlp_schedule::ScheduleSequence;
    use tlp_workload::{AnchorOp, Subgraph};

    fn task_with_latencies(lats: &[f64], weight: usize, from_test_set: bool) -> TaskData {
        TaskData {
            subgraph: Subgraph::new("d", AnchorOp::Dense { m: 1, n: 1, k: 1 }),
            weight,
            from_test_set,
            programs: lats
                .iter()
                .map(|&l| ProgramRecord {
                    schedule: ScheduleSequence::new(),
                    latencies: vec![l],
                    validity: Default::default(),
                })
                .collect(),
        }
    }

    fn ds_with_latencies(lats: &[f64]) -> Dataset {
        Dataset {
            platforms: vec![tlp_hwsim::Platform::i7_10510u()],
            tasks: vec![task_with_latencies(lats, 2, true)],
        }
    }

    #[test]
    fn perfect_scorer_hits_one() {
        let ds = ds_with_latencies(&[3e-3, 1e-3, 2e-3]);
        // Score = -latency: perfect ranking.
        let s = top_k_score(&ds, 0, 1, |t| {
            t.programs
                .iter()
                .map(|r| -(r.latencies[0] as f32))
                .collect()
        });
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_scorer_scores_below_one() {
        let ds = ds_with_latencies(&[3e-3, 1e-3, 2e-3]);
        let s = top_k_score(&ds, 0, 1, |t| {
            t.programs.iter().map(|r| r.latencies[0] as f32).collect()
        });
        assert!((s - 1.0 / 3.0).abs() < 1e-9, "picked the slowest: 1ms/3ms");
    }

    #[test]
    fn top5_forgives_mistakes_topk_monotone() {
        let ds = ds_with_latencies(&[3e-3, 1e-3, 2e-3, 5e-3, 4e-3, 6e-3]);
        let bad = |t: &TaskData| -> Vec<f32> {
            t.programs.iter().map(|r| r.latencies[0] as f32).collect()
        };
        let s1 = top_k_score(&ds, 0, 1, bad);
        let s5 = top_k_score(&ds, 0, 5, bad);
        let s6 = top_k_score(&ds, 0, 6, bad);
        assert!(s5 >= s1);
        // Inverted ranking: top-5 of 6 misses only the true best (1 ms),
        // its best pick is 2 ms → score 0.5; top-6 covers everything.
        assert!((s5 - 0.5).abs() < 1e-9, "s5 {s5}");
        assert!((s6 - 1.0).abs() < 1e-9, "s6 {s6}");
    }

    #[test]
    fn one_pass_scores_each_test_task_once_for_every_k() {
        let ds = Dataset {
            platforms: vec![tlp_hwsim::Platform::i7_10510u()],
            tasks: vec![
                task_with_latencies(&[3e-3, 1e-3, 2e-3, 5e-3, 4e-3, 6e-3, 7e-3], 2, true),
                task_with_latencies(&[], 1, true),
                task_with_latencies(&[2e-3, 9e-3], 5, false),
                task_with_latencies(&[4e-3, 8e-3, 1e-3, 6e-3, 2e-3, 5e-3], 3, true),
                task_with_latencies(&[7e-3, 3e-3, 9e-3], 1, true),
            ],
        };
        // A poor, tie-laden ranker: the top-k of each task matters.
        let scorer = |t: &TaskData| -> Vec<f32> {
            t.programs
                .iter()
                .map(|r| (r.latencies[0] * 1e3).round() as f32 % 4.0)
                .collect()
        };
        let mut calls = 0usize;
        let [s1, s5] = top_k_scores(&ds, 0, [1, 5], |t| {
            calls += 1;
            scorer(t)
        });
        assert_eq!(calls, 3, "once per non-empty test task");
        // The per-k reference: the scoring pass repeated for each k.
        let reference = |k: usize| {
            let (mut numer, mut denom) = (0.0f64, 0.0f64);
            for task in ds.test_tasks().filter(|t| !t.programs.is_empty()) {
                let scores = scorer(task);
                let mut idx: Vec<usize> = (0..scores.len()).collect();
                idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
                let best = idx[..k.min(idx.len())]
                    .iter()
                    .map(|&i| task.programs[i].latencies[0])
                    .fold(f64::INFINITY, f64::min);
                numer += task.min_latency(0) * task.weight as f64;
                denom += best * task.weight as f64;
            }
            numer / denom
        };
        for (k, got) in [(1, s1), (5, s5)] {
            assert_eq!(got.to_bits(), reference(k).to_bits(), "top-{k}");
            assert_eq!(got.to_bits(), top_k_score(&ds, 0, k, scorer).to_bits());
        }
        assert!(s5 > s1);
    }
}
