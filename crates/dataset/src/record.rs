//! Dataset record types.

use serde::{Deserialize, Serialize};
use tlp_hwsim::Platform;
use tlp_schedule::ScheduleSequence;
use tlp_verify::ValiditySummary;
use tlp_workload::Subgraph;

/// One sampled tensor program: its schedule and its measured latency on every
/// platform of the dataset (TenSet-style multi-platform collection; MTL-TLP
/// consumes the per-platform label vector).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgramRecord {
    /// The schedule-primitive sequence (TLP's feature-extraction object).
    pub schedule: ScheduleSequence,
    /// Latency in seconds on each dataset platform (same order as
    /// [`Dataset::platforms`](crate::Dataset)).
    pub latencies: Vec<f64>,
    /// Static-verifier label for the schedule ([`tlp_verify::verify`]),
    /// recorded at generation time so consumers can filter or stratify
    /// without re-running the analyzer.
    pub validity: ValiditySummary,
}

/// All sampled programs of one tuning task (subgraph).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskData {
    /// The subgraph.
    pub subgraph: Subgraph,
    /// Occurrence weight across the workloads that contain it.
    pub weight: usize,
    /// Whether this task belongs to one of the five held-out test networks.
    pub from_test_set: bool,
    /// Sampled programs.
    pub programs: Vec<ProgramRecord>,
}

impl TaskData {
    /// Minimum latency over all programs on platform `p` (the label
    /// normalizer: `label = min_latency / latency`).
    pub fn min_latency(&self, p: usize) -> f64 {
        self.programs
            .iter()
            .map(|r| r.latencies[p])
            .fold(f64::INFINITY, f64::min)
    }

    /// Normalized labels `min_latency/latency ∈ (0, 1]` on platform `p`
    /// (paper §4.4).
    pub fn labels(&self, p: usize) -> Vec<f32> {
        let min = self.min_latency(p);
        self.programs
            .iter()
            .map(|r| (min / r.latencies[p]) as f32)
            .collect()
    }
}

/// A TenSet-like multi-platform tensor-program dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// The platforms latencies were collected on (all CPUs or all GPUs).
    pub platforms: Vec<Platform>,
    /// Per-task program collections.
    pub tasks: Vec<TaskData>,
}

impl Dataset {
    /// Index of a platform by name.
    pub fn platform_index(&self, name: &str) -> Option<usize> {
        self.platforms.iter().position(|p| p.name == name)
    }

    /// Total number of programs across tasks.
    pub fn num_programs(&self) -> usize {
        self.tasks.iter().map(|t| t.programs.len()).sum()
    }

    /// Tasks belonging to the held-out test networks.
    pub fn test_tasks(&self) -> impl Iterator<Item = &TaskData> {
        self.tasks.iter().filter(|t| t.from_test_set)
    }

    /// Tasks available for training/validation.
    pub fn train_tasks(&self) -> impl Iterator<Item = &TaskData> {
        self.tasks.iter().filter(|t| !t.from_test_set)
    }

    /// Drops every program whose recorded validity label carries verifier
    /// errors, returning how many were removed. Warnings and lints are kept:
    /// they are legal programs the model should learn to rank.
    pub fn retain_valid(&mut self) -> usize {
        let mut removed = 0;
        for t in &mut self.tasks {
            let before = t.programs.len();
            t.programs.retain(|r| r.validity.is_valid());
            removed += before - t.programs.len();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_workload::AnchorOp;

    #[test]
    fn labels_are_in_unit_interval_with_max_one() {
        let task = TaskData {
            subgraph: Subgraph::new("d", AnchorOp::Dense { m: 1, n: 1, k: 1 }),
            weight: 1,
            from_test_set: false,
            programs: vec![
                ProgramRecord {
                    schedule: ScheduleSequence::new(),
                    latencies: vec![2.0e-3],
                    validity: Default::default(),
                },
                ProgramRecord {
                    schedule: ScheduleSequence::new(),
                    latencies: vec![1.0e-3],
                    validity: Default::default(),
                },
                ProgramRecord {
                    schedule: ScheduleSequence::new(),
                    latencies: vec![4.0e-3],
                    validity: Default::default(),
                },
            ],
        };
        let labels = task.labels(0);
        assert_eq!(labels, vec![0.5, 1.0, 0.25]);
        assert!(labels.iter().all(|&l| l > 0.0 && l <= 1.0));
    }
}
