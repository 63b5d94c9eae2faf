//! Program measurement against the simulated hardware.
//!
//! Measurement is the unreliable part of a real tuning system: builds fail,
//! devices hang and reset, and latency samples carry noise and outliers.
//! [`Measurer::measure`] therefore returns a typed
//! `Result<f64, MeasureError>` and implements the defenses a production
//! measurer needs — bounded retry with exponential backoff (charged to the
//! simulated clock, like the wall-clock a real farm burns), N-repeat median
//! aggregation with MAD outlier rejection, and per-class failure
//! accounting. Faults come from a deterministic [`FaultModel`]; with all
//! rates at zero the measurer is bit-identical to the historical
//! infallible path.

#![warn(clippy::disallowed_methods)]

use crate::task::SearchTask;
use serde::{Deserialize, Serialize};
use tlp_hwsim::{lower, FaultClass, FaultModel, InjectedFault, MeasureCost, SimClock, Simulator};
use tlp_schedule::ScheduleSequence;

/// Why a measurement produced no latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasureError {
    /// The program failed to build. `injected: false` means the schedule
    /// can never lower (a deterministic compiler rejection, never retried);
    /// `injected: true` means a transient build failure that exhausted its
    /// retries.
    BuildError {
        /// Whether the failure was injected (transient) rather than a
        /// deterministic lowering rejection.
        injected: bool,
    },
    /// Every attempt hung past the timeout budget.
    Timeout,
    /// The device reset during every attempt (or the measurement landed in
    /// another reset's poison window).
    DeviceReset,
    /// MAD filtering rejected every repeat as an outlier on every attempt.
    Outlier,
}

impl MeasureError {
    /// The TenSet-style error class this failure is recorded as.
    pub fn class(&self) -> FaultClass {
        match self {
            MeasureError::BuildError { .. } => FaultClass::BuildError,
            MeasureError::Timeout => FaultClass::Timeout,
            MeasureError::DeviceReset => FaultClass::DeviceReset,
            MeasureError::Outlier => FaultClass::Outlier,
        }
    }
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::BuildError { injected: false } => {
                write!(f, "schedule failed to lower (deterministic build error)")
            }
            MeasureError::BuildError { injected: true } => {
                write!(f, "transient build failure persisted through retries")
            }
            MeasureError::Timeout => write!(f, "measurement timed out on every attempt"),
            MeasureError::DeviceReset => write!(f, "device reset during every attempt"),
            MeasureError::Outlier => write!(f, "every repeat rejected as a latency outlier"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Backoff before retry `k` (1-based): `BACKOFF_BASE_S · BACKOFF_MULT^(k-1)`
/// simulated seconds, charged to the [`SimClock`].
const BACKOFF_BASE_S: f64 = 0.5;

/// Multiplier of the exponential backoff.
const BACKOFF_MULT: f64 = 2.0;

/// Simulated seconds a hung measurement burns before the measurer gives up
/// on the attempt.
const TIMEOUT_S: f64 = 10.0;

/// MAD outlier rejection: repeats farther than `MAD_K · MAD` from the median
/// are discarded before the median is taken.
const MAD_K: f64 = 3.5;

/// Retries after a transient failure (injected build failure, timeout,
/// device reset, all-outlier repeats) before the measurement fails.
pub const MAX_RETRIES: u32 = 2;

/// Per-class counts of fault events observed during measurement. Events are
/// counted per *attempt*, so a measurement that failed twice and then
/// succeeded contributes two events and zero failed measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureCounts {
    /// Build failures (deterministic lowering rejections + injected).
    pub build: u64,
    /// Timeouts.
    pub timeout: u64,
    /// Device resets (including poisoned-window casualties).
    pub device_reset: u64,
    /// Attempts whose repeats were all MAD-rejected.
    pub outlier: u64,
}

impl FailureCounts {
    /// Total fault events across all classes.
    pub fn total(&self) -> u64 {
        self.build + self.timeout + self.device_reset + self.outlier
    }

    fn bump(&mut self, class: FaultClass) {
        match class {
            FaultClass::BuildError => self.build += 1,
            FaultClass::Timeout => self.timeout += 1,
            FaultClass::DeviceReset => self.device_reset += 1,
            FaultClass::Outlier => self.outlier += 1,
        }
    }
}

/// One measured tensor program: the schedule, its latency, and — for failed
/// measurements — the TenSet-style error class.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasureRecord {
    /// The measured schedule.
    pub schedule: ScheduleSequence,
    /// Measured latency in seconds ([`f64::INFINITY`] for failures).
    pub latency_s: f64,
    /// Error class of a failed measurement; `None` = clean success.
    pub error: Option<FaultClass>,
}

impl MeasureRecord {
    /// Whether the record carries a usable latency.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Measures schedules on the simulated target, charging simulated time.
///
/// Construct with [`Measurer::new`] for the fault-free path or
/// [`Measurer::with_faults`] to measure through a [`FaultModel`].
#[derive(Debug)]
pub struct Measurer {
    sim: Simulator,
    cost: MeasureCost,
    faults: FaultModel,
    /// Simulated + real time spent so far.
    pub clock: SimClock,
    /// Total number of measurements requested (successes and failures).
    pub count: u64,
    /// Measurements that ultimately failed after retries.
    pub count_failed: u64,
    /// Retry attempts performed (beyond each measurement's first try).
    pub retries: u64,
    /// Per-class fault events observed (counted per attempt).
    pub failures: FailureCounts,
}

impl Measurer {
    /// Creates a fault-free measurer for a task's platform (CPU vs GPU
    /// measurement cost).
    pub fn new(gpu: bool) -> Self {
        Measurer::with_faults(gpu, FaultModel::inert())
    }

    /// Creates a measurer that draws faults from `faults`.
    pub fn with_faults(gpu: bool, faults: FaultModel) -> Self {
        Measurer {
            sim: Simulator::new(),
            cost: if gpu {
                MeasureCost::gpu()
            } else {
                MeasureCost::cpu()
            },
            faults,
            clock: SimClock::new(),
            count: 0,
            count_failed: 0,
            retries: 0,
            failures: FailureCounts::default(),
        }
    }

    /// The fault model driving injection (poison state included).
    pub fn fault_model(&self) -> &FaultModel {
        &self.faults
    }

    /// Measures one schedule.
    ///
    /// Transient faults (injected build failures, timeouts, device resets)
    /// are retried up to [`MAX_RETRIES`] times with exponential backoff;
    /// every attempt's cost — compile time, timeout budget, backoff — is
    /// charged to the [`SimClock`] so search-time accounting stays honest
    /// under faults. Noisy repeats are aggregated
    /// by MAD-filtered median.
    ///
    /// # Errors
    ///
    /// [`MeasureError::BuildError`] with `injected: false` for schedules
    /// that cannot lower (never retried); otherwise the class of the fault
    /// that survived all retries.
    pub fn measure(
        &mut self,
        task: &SearchTask,
        schedule: &ScheduleSequence,
    ) -> Result<f64, MeasureError> {
        self.count += 1;
        let spec = match lower(&task.subgraph, schedule) {
            Ok(spec) => spec,
            Err(_) => {
                // Deterministic compiler rejection: retrying cannot help.
                // Only the compile stage was paid.
                self.clock
                    .charge_simulated(self.cost.compile_only_seconds());
                self.failures.build += 1;
                self.count_failed += 1;
                return Err(MeasureError::BuildError { injected: false });
            }
        };
        let fp = schedule.fingerprint();
        let true_lat = self.sim.latency(&task.platform, &task.subgraph, &spec, fp);

        let mut attempt: u32 = 0;
        loop {
            let error = match self.faults.draw(fp, attempt) {
                InjectedFault::None => match self.run_repeats(fp, attempt, true_lat) {
                    Ok(lat) => return Ok(lat),
                    Err(e) => e,
                },
                InjectedFault::BuildFail => {
                    self.clock
                        .charge_simulated(self.cost.compile_only_seconds());
                    MeasureError::BuildError { injected: true }
                }
                InjectedFault::Timeout => {
                    self.clock
                        .charge_simulated(self.cost.compile_only_seconds() + TIMEOUT_S);
                    MeasureError::Timeout
                }
                InjectedFault::DeviceReset => {
                    self.clock
                        .charge_simulated(self.cost.compile_only_seconds());
                    MeasureError::DeviceReset
                }
            };
            self.failures.bump(error.class());
            if attempt >= MAX_RETRIES {
                self.count_failed += 1;
                return Err(error);
            }
            // Exponential backoff before the retry, charged as simulated
            // wall time (a real farm sleeps here too).
            self.clock
                .charge_simulated(BACKOFF_BASE_S * BACKOFF_MULT.powi(attempt as i32));
            self.retries += 1;
            attempt += 1;
        }
    }

    /// Runs the repeat loop of one successful attempt: samples perturbed by
    /// the fault model, MAD-filtered, median-aggregated. On the unperturbed
    /// path this charges the closed-form measurement cost and returns the
    /// exact simulated latency — bit-identical to the historical code.
    fn run_repeats(&mut self, fp: u64, attempt: u32, true_lat: f64) -> Result<f64, MeasureError> {
        if !self.faults.perturbs_samples() {
            self.clock.charge_measurement(&self.cost, true_lat);
            return Ok(true_lat);
        }
        let repeats = self.cost.repeats.max(1);
        let mut samples = Vec::with_capacity(repeats as usize);
        let mut spent = self.cost.compile_only_seconds();
        for r in 0..repeats {
            let s = true_lat * self.faults.sample_factor(fp, attempt, r);
            spent += s + self.cost.per_repeat_overhead_s;
            samples.push(s);
        }
        self.clock.charge_simulated(spent);
        match mad_median(&mut samples, MAD_K) {
            Some(lat) => Ok(lat),
            None => Err(MeasureError::Outlier),
        }
    }

    /// Measures a batch, returning one record per schedule — successes carry
    /// latencies, failures carry their error class (TenSet-style labels).
    pub fn measure_batch(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
    ) -> Vec<MeasureRecord> {
        schedules
            .iter()
            .map(|s| match self.measure(task, s) {
                Ok(latency_s) => MeasureRecord {
                    schedule: s.clone(),
                    latency_s,
                    error: None,
                },
                Err(e) => MeasureRecord {
                    schedule: s.clone(),
                    latency_s: f64::INFINITY,
                    error: Some(e.class()),
                },
            })
            .collect()
    }
}

/// Median of the samples surviving MAD outlier rejection; `None` when the
/// filter leaves nothing (all repeats disagree pathologically).
///
/// Classic robust-statistics recipe: reject samples farther than
/// `k · MAD` from the median, where MAD is the median absolute deviation
/// (with the usual guard for MAD = 0: keep only exact-median samples).
fn mad_median(samples: &mut [f64], k: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let med = median_of(samples)?;
    let mut devs: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    let mad = median_of(&mut devs)?;
    let kept: Vec<f64> = if mad <= 0.0 {
        // All-but-outliers identical: keep the exact-median mass.
        samples.iter().copied().filter(|s| *s == med).collect()
    } else {
        samples
            .iter()
            .copied()
            .filter(|s| (s - med).abs() <= k * mad)
            .collect()
    };
    let mut kept = kept;
    median_of(&mut kept)
}

/// In-place median (lower of the two middles for even lengths, so the value
/// is always an actually-observed sample).
fn median_of(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(xs[(xs.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::sketch::{Candidate, SketchPolicy};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlp_hwsim::{FaultRates, Platform};
    use tlp_workload::{AnchorOp, Subgraph};

    fn dense_task() -> SearchTask {
        SearchTask::new(
            Subgraph::new(
                "d",
                AnchorOp::Dense {
                    m: 64,
                    n: 64,
                    k: 64,
                },
            ),
            Platform::i7_10510u(),
        )
    }

    fn candidate(task: &SearchTask, seed: u64) -> Candidate {
        let mut rng = SmallRng::seed_from_u64(seed);
        Candidate::random(&SketchPolicy::cpu(), &task.subgraph, &mut rng)
    }

    #[test]
    fn measuring_charges_the_clock() {
        let task = dense_task();
        let mut m = Measurer::new(false);
        let c = candidate(&task, 1);
        let lat = m.measure(&task, &c.sequence).expect("measures");
        assert!(lat > 0.0);
        assert!(m.clock.simulated_s > 0.2, "compile+run time charged");
        assert_eq!(m.count, 1);
        assert_eq!(m.count_failed, 0);
        assert_eq!(m.failures.total(), 0);
    }

    #[test]
    fn inert_faults_are_bit_identical_to_default_path() {
        let task = dense_task();
        let c = candidate(&task, 2);
        let mut plain = Measurer::new(false);
        let mut faulty = Measurer::with_faults(
            false,
            FaultModel::for_platform(0x7190, FaultRates::ZERO, &task.platform),
        );
        let a = plain.measure(&task, &c.sequence).expect("plain");
        let b = faulty.measure(&task, &c.sequence).expect("rate-0");
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            plain.clock.simulated_s.to_bits(),
            faulty.clock.simulated_s.to_bits()
        );
    }

    #[test]
    fn transient_faults_are_retried_and_charged() {
        let task = dense_task();
        let c = candidate(&task, 3);
        // Guaranteed injected build failure on every attempt.
        let rates = FaultRates {
            build_fail: 1.0,
            ..FaultRates::ZERO
        };
        let mut m =
            Measurer::with_faults(false, FaultModel::for_platform(1, rates, &task.platform));
        let err = m
            .measure(&task, &c.sequence)
            .expect_err("all attempts fail");
        assert_eq!(err, MeasureError::BuildError { injected: true });
        assert_eq!(m.count_failed, 1);
        assert_eq!(m.retries, u64::from(MAX_RETRIES));
        assert_eq!(m.failures.build, u64::from(MAX_RETRIES) + 1);
        // Charged: (retries+1) compiles + backoff 0.5 + 1.0.
        let expected = 3.0 * MeasureCost::cpu().compile_s + 0.5 + 1.0;
        assert!(
            (m.clock.simulated_s - expected).abs() < 1e-9,
            "got {} want {expected}",
            m.clock.simulated_s
        );
    }

    #[test]
    fn device_reset_poisons_the_batch_tail() {
        let task = dense_task();
        let rates = FaultRates {
            device_reset: 1.0,
            ..FaultRates::ZERO
        };
        let mut m =
            Measurer::with_faults(false, FaultModel::for_platform(1, rates, &task.platform));
        let seqs: Vec<ScheduleSequence> =
            (0..3).map(|i| candidate(&task, 10 + i).sequence).collect();
        let records = m.measure_batch(&task, &seqs);
        assert_eq!(records.len(), 3);
        assert!(records
            .iter()
            .all(|r| r.error == Some(FaultClass::DeviceReset)));
        assert_eq!(m.count_failed, 3);
        assert_eq!(m.retries, 3 * u64::from(MAX_RETRIES));
    }

    #[test]
    fn noise_is_tamed_by_mad_median() {
        let task = dense_task();
        let c = candidate(&task, 4);
        let mut clean = Measurer::new(false);
        let true_lat = clean.measure(&task, &c.sequence).expect("clean");
        // Heavy outliers + mild noise: the median must stay close to truth.
        let rates = FaultRates {
            outlier: 0.25,
            noise: 0.05,
            ..FaultRates::ZERO
        };
        let mut noisy =
            Measurer::with_faults(false, FaultModel::for_platform(5, rates, &task.platform));
        let lat = noisy.measure(&task, &c.sequence).expect("recovers");
        assert!(
            (lat - true_lat).abs() / true_lat < 0.1,
            "MAD median {lat} vs true {true_lat}"
        );
    }

    #[test]
    fn mad_median_rejects_spikes() {
        let mut s = vec![1.0, 1.01, 0.99, 1.02, 20.0, 1.0, 0.98];
        let m = mad_median(&mut s, 3.5).expect("median");
        assert!((0.98..=1.02).contains(&m), "got {m}");
        assert_eq!(mad_median(&mut [], 3.5), None);
        assert_eq!(mad_median(&mut [2.5], 3.5), Some(2.5));
    }
}
