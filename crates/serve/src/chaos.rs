//! Fault injection for the serving path.
//!
//! [`FlakyTransport`] wraps any [`ScoreTransport`] and deterministically
//! fails a configured fraction of requests with a transient
//! [`ServeError`] before they reach the server — the client-side analogue
//! of the hardware-measurement [`FaultModel`](tlp_hwsim::FaultModel). The
//! failure schedule is a pure hash of `(seed, request counter)`, so chaos
//! tests are reproducible, and the rate can be changed mid-run to model a
//! server that gets sick and then recovers.

use crate::backend::ScoreTransport;
use crate::error::ServeError;
use crate::server::ScoreReply;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tlp_autotuner::SearchTask;
use tlp_schedule::hash::splitmix64;
use tlp_schedule::ScheduleSequence;

/// A [`ScoreTransport`] that deterministically injects transient failures.
///
/// All state is atomic (the rate is stored as `f64` bits), so one
/// `FlakyTransport` can be shared across threads; the failure draw stays a
/// pure function of `(seed, counter)`.
pub struct FlakyTransport<T: ScoreTransport> {
    inner: T,
    seed: u64,
    fail_rate_bits: AtomicU64,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl<T: ScoreTransport> FlakyTransport<T> {
    /// Wraps `inner`, failing each request with probability `fail_rate`
    /// (drawn deterministically from `seed` and the request counter).
    pub fn new(inner: T, seed: u64, fail_rate: f64) -> Self {
        FlakyTransport {
            inner,
            seed,
            fail_rate_bits: AtomicU64::new(fail_rate.to_bits()),
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Changes the failure rate mid-run (e.g. `1.0` to wedge the server,
    /// then `0.0` to let a half-open breaker probe succeed).
    pub fn set_fail_rate(&self, rate: f64) {
        self.fail_rate_bits.store(rate.to_bits(), Ordering::Relaxed);
    }

    /// The current failure rate.
    pub fn fail_rate(&self) -> f64 {
        f64::from_bits(self.fail_rate_bits.load(Ordering::Relaxed))
    }

    /// Requests seen so far (injected failures included).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<T: ScoreTransport> FlakyTransport<T> {
    /// Draws the next failure (if any) from the deterministic schedule.
    fn draw_failure(&self) -> Option<ServeError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let rate = self.fail_rate();
        if rate > 0.0 {
            let u = (splitmix64(self.seed ^ n) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u < rate {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // Cycle the transient classes so retry handling sees all of
                // them.
                return Some(match n % 3 {
                    0 => ServeError::Overloaded { capacity: 0 },
                    1 => ServeError::DeadlineExceeded,
                    _ => ServeError::Disconnected,
                });
            }
        }
        None
    }
}

impl<T: ScoreTransport> ScoreTransport for FlakyTransport<T> {
    fn score(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<ScoreReply, ServeError> {
        match self.draw_failure() {
            Some(err) => Err(err),
            None => self.inner.score(model, task, schedules, deadline),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    /// A transport that always succeeds with an empty reply.
    struct AlwaysOk;
    impl ScoreTransport for AlwaysOk {
        fn score(
            &self,
            _model: &str,
            _task: &SearchTask,
            schedules: &[ScheduleSequence],
            _deadline: Option<Duration>,
        ) -> Result<ScoreReply, ServeError> {
            Ok(ScoreReply {
                scores: vec![None; schedules.len()],
                model_version: 1,
                stats: Default::default(),
                queue_us: 0,
                batch_jobs: 1,
            })
        }
    }

    fn probe(t: &FlakyTransport<AlwaysOk>) -> Result<ScoreReply, ServeError> {
        let task = SearchTask::new(
            tlp_workload::Subgraph::new("d", tlp_workload::AnchorOp::Dense { m: 8, n: 8, k: 8 }),
            tlp_hwsim::Platform::i7_10510u(),
        );
        t.score("m", &task, &[], None)
    }

    #[test]
    fn rate_zero_never_injects_rate_one_always_injects() {
        let t = FlakyTransport::new(AlwaysOk, 7, 0.0);
        for _ in 0..50 {
            assert!(probe(&t).is_ok());
        }
        assert_eq!(t.injected(), 0);
        t.set_fail_rate(1.0);
        for _ in 0..6 {
            let err = probe(&t).expect_err("always fails");
            assert!(crate::backend::is_transient(&err));
        }
        assert_eq!(t.injected(), 6);
        assert_eq!(t.calls(), 56);
    }

    #[test]
    fn failure_schedule_is_deterministic_in_seed() {
        let collect = |seed| {
            let t = FlakyTransport::new(AlwaysOk, seed, 0.3);
            (0..200).map(|_| probe(&t).is_err()).collect::<Vec<bool>>()
        };
        assert_eq!(collect(11), collect(11));
        assert_ne!(collect(11), collect(12));
    }
}
