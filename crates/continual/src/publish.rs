//! Validation-gated snapshot publishing with canary rollback.
//!
//! After every adaptation round, the candidate model is snapshotted
//! ([`tlp::persist::snapshot`] — the same versioned [`SavedTlp`] format
//! the training pipeline persists), restored (exercising the exact bytes a
//! cold-started server would load), and hot-swapped into a live
//! [`ModelRegistry`] under the new platform's head. The registry swap is the
//! atomic-`Arc` exchange: a request is scored by the version that admitted
//! it, so publishing never surfaces a request failure.
//!
//! Publishing is *gated*: the freshly installed version scores a canary set
//! (held-out schedules with known new-platform latencies) **through the
//! registry** — the same engine path real traffic takes — and if ranking
//! accuracy regressed beyond [`CANARY_TOLERANCE`], the previous good
//! snapshot is reinstalled (another atomic swap) and the candidate is
//! discarded.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tlp::persist::{snapshot, PersistError, SavedTlp};
use tlp::{FeatureExtractor, TlpModel};
use tlp_autotuner::SearchTask;
use tlp_dataset::Dataset;
use tlp_modelcheck::StoreFault;
use tlp_schedule::ScheduleSequence;
use tlp_serve::ModelRegistry;

/// A candidate whose canary rank accuracy is more than this far below the
/// last good snapshot's is rolled back.
pub const CANARY_TOLERANCE: f64 = 0.02;

/// One canary task: schedules with ground-truth latencies on the new
/// platform, scored through the installed model at publish time.
#[derive(Clone, Debug)]
pub struct CanarySet {
    /// The tuning task (subgraph + new platform) the schedules belong to.
    pub task: SearchTask,
    /// The canary schedules.
    pub schedules: Vec<ScheduleSequence>,
    /// Ground-truth latencies, aligned with `schedules`.
    pub latencies: Vec<f64>,
}

impl CanarySet {
    /// Builds canary sets from a dataset's held-out test tasks, using the
    /// latency column of platform `platform_idx`. `max_tasks == 0` keeps
    /// every test task.
    pub fn from_dataset(ds: &Dataset, platform_idx: usize, max_tasks: usize) -> Vec<CanarySet> {
        let platform = &ds.platforms[platform_idx];
        let take = if max_tasks == 0 {
            usize::MAX
        } else {
            max_tasks
        };
        ds.test_tasks()
            .filter(|t| t.programs.len() >= 2)
            .take(take)
            .map(|t| CanarySet {
                task: SearchTask::new(t.subgraph.clone(), platform.clone()),
                schedules: t.programs.iter().map(|r| r.schedule.clone()).collect(),
                latencies: t
                    .programs
                    .iter()
                    .map(|r| r.latencies[platform_idx])
                    .collect(),
            })
            .collect()
    }
}

/// What one [`SnapshotPublisher::publish`] call did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PublishOutcome {
    /// The candidate passed the canary gate and is now serving.
    Published {
        /// Registry version tag of the installed candidate.
        version: u64,
        /// Canary rank accuracy the candidate scored.
        accuracy: f64,
    },
    /// The candidate regressed; the last good snapshot was reinstalled.
    RolledBack {
        /// Canary rank accuracy of the rejected candidate.
        rejected_accuracy: f64,
        /// Registry version tag of the reinstalled good snapshot.
        restored_version: u64,
        /// The accuracy the good snapshot had scored.
        good_accuracy: f64,
    },
    /// The candidate's store failed the check on the restore / install
    /// path and never became resolvable; the previously serving version is
    /// untouched. (The canary only measures ranking quality, so NaN weights
    /// or a torn layout must be stopped here.)
    RejectedInvalid {
        /// What the check found.
        fault: StoreFault,
    },
}

/// Publishes adaptation snapshots into a live registry with canary-gated
/// rollback. See the module docs for the full protocol.
#[derive(Debug)]
pub struct SnapshotPublisher {
    registry: Arc<ModelRegistry>,
    name: String,
    head: usize,
    canaries: Vec<CanarySet>,
    /// Last accepted snapshot and its canary accuracy.
    last_good: Option<(SavedTlp, f64)>,
    events: Vec<PublishOutcome>,
}

impl SnapshotPublisher {
    /// A publisher that installs under `name`, serving head `head`, gated
    /// against `canaries`.
    pub fn new(
        registry: Arc<ModelRegistry>,
        name: impl Into<String>,
        head: usize,
        canaries: Vec<CanarySet>,
    ) -> Self {
        SnapshotPublisher {
            registry,
            name: name.into(),
            head,
            canaries,
            last_good: None,
            events: Vec::new(),
        }
    }

    /// The registry this publisher installs into.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The registry name published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every outcome so far, in call order.
    pub fn events(&self) -> &[PublishOutcome] {
        &self.events
    }

    /// Number of accepted publishes.
    pub fn published(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, PublishOutcome::Published { .. }))
            .count()
    }

    /// Number of canary rollbacks.
    pub fn rolled_back(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, PublishOutcome::RolledBack { .. }))
            .count()
    }

    /// Number of candidates the restore/install check refused.
    pub fn rejected_invalid(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, PublishOutcome::RejectedInvalid { .. }))
            .count()
    }

    /// Checked restore of `snap` (the exact bytes a cold-started server
    /// would load), installed under this publisher's name and head.
    fn install(&self, snap: &SavedTlp) -> Result<u64, PersistError> {
        let (model, extractor) = snap.restore()?;
        self.registry
            .install_head(&self.name, model, extractor, self.head)
    }

    /// Snapshot → checked restore + install → canary-score →
    /// keep-or-rollback. A candidate whose store fails the check is
    /// reported as
    /// [`PublishOutcome::RejectedInvalid`], not as an error.
    ///
    /// # Errors
    ///
    /// Propagates any other [`PersistError`] from snapshot restore —
    /// impossible for a well-formed model but surfaced rather than
    /// swallowed.
    pub fn publish(
        &mut self,
        model: &TlpModel,
        extractor: &FeatureExtractor,
    ) -> Result<PublishOutcome, PersistError> {
        let candidate = snapshot(model, extractor);
        let version = match self.install(&candidate) {
            Ok(version) => version,
            Err(PersistError::Invalid(fault)) => {
                let outcome = PublishOutcome::RejectedInvalid { fault };
                self.events.push(outcome.clone());
                return Ok(outcome);
            }
            Err(e) => return Err(e),
        };
        let accuracy = match self.registry.resolve(&self.name) {
            Some(v) => canary_accuracy(&v, &self.canaries),
            // Raced external removal: treat as a total regression so the
            // gate below reinstalls the last good snapshot.
            None => 0.0,
        };
        let outcome = match &self.last_good {
            // The reinstall may fail (typed error); last_good stays intact.
            Some((good, good_accuracy)) if accuracy + CANARY_TOLERANCE < *good_accuracy => {
                PublishOutcome::RolledBack {
                    rejected_accuracy: accuracy,
                    restored_version: self.install(good)?,
                    good_accuracy: *good_accuracy,
                }
            }
            _ => {
                self.last_good = Some((candidate, accuracy));
                PublishOutcome::Published { version, accuracy }
            }
        };
        self.events.push(outcome.clone());
        Ok(outcome)
    }
}

/// Scores every canary set through the installed version and pools the
/// pairwise rank accuracy.
fn canary_accuracy(version: &tlp_serve::ModelVersion, canaries: &[CanarySet]) -> f64 {
    let mut concordant = 0u64;
    let mut total = 0u64;
    for c in canaries {
        let (scores, _) = version.score(&c.task, &c.schedules);
        let (con, tot) = concordant_pairs(&scores, &c.latencies);
        concordant += con;
        total += tot;
    }
    if total == 0 {
        1.0
    } else {
        concordant as f64 / total as f64
    }
}

/// Fraction of comparable pairs ranked concordantly: a higher score must
/// mean a lower latency. Unscored schedules (`None`) and latency ties are
/// skipped; returns `1.0` when no pair is comparable (vacuously correct).
pub fn rank_accuracy(scores: &[Option<f32>], latencies: &[f64]) -> f64 {
    let (con, tot) = concordant_pairs(scores, latencies);
    if tot == 0 {
        1.0
    } else {
        con as f64 / tot as f64
    }
}

fn concordant_pairs(scores: &[Option<f32>], latencies: &[f64]) -> (u64, u64) {
    let mut concordant = 0u64;
    let mut total = 0u64;
    for i in 0..scores.len() {
        let Some(si) = scores[i] else { continue };
        for j in (i + 1)..scores.len() {
            let Some(sj) = scores[j] else { continue };
            let (li, lj) = (latencies[i], latencies[j]);
            if !li.is_finite() || !lj.is_finite() || li == lj || si == sj {
                continue;
            }
            total += 1;
            if (si > sj) == (li < lj) {
                concordant += 1;
            }
        }
    }
    (concordant, total)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn rank_accuracy_counts_concordant_pairs() {
        // Scores perfectly inverse to latency → accuracy 1.
        let scores = vec![Some(3.0), Some(2.0), Some(1.0)];
        let lats = vec![1.0, 2.0, 3.0];
        assert_eq!(rank_accuracy(&scores, &lats), 1.0);
        // Fully reversed → accuracy 0.
        let rev = vec![Some(1.0), Some(2.0), Some(3.0)];
        assert_eq!(rank_accuracy(&rev, &lats), 0.0);
        // Unscored entries and infinite latencies are skipped.
        let holes = vec![Some(3.0), None, Some(1.0)];
        let hl = vec![1.0, f64::INFINITY, 3.0];
        assert_eq!(rank_accuracy(&holes, &hl), 1.0);
        // No comparable pairs → vacuous pass.
        assert_eq!(rank_accuracy(&[None, None], &[1.0, 2.0]), 1.0);
    }
}
