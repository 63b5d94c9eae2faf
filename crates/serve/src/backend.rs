//! The serving layer as an autotuner scoring backend.
//!
//! [`RemoteCostModel`] wraps a [`ScoreTransport`] (normally a
//! [`ServeClient`]) in the [`CostModel`] trait, so `tune_network` can score
//! through the shared server — coalescing its batches with other concurrent
//! tuners — instead of owning a private engine. The backend is built to
//! survive an unreliable server:
//!
//! - transient [`ServeError`]s ([`Overloaded`](ServeError::Overloaded),
//!   [`DeadlineExceeded`](ServeError::DeadlineExceeded),
//!   [`Disconnected`](ServeError::Disconnected)) are retried with jittered
//!   exponential backoff;
//! - a [`CircuitBreaker`] trips after consecutive failed requests, stops
//!   hammering the sick server, and probes it again after a cooldown
//!   (half-open) before closing;
//! - while the breaker is open, and when retries run out, a request
//!   degrades to an all-invalid batch the tuner's rank-last handling absorbs
//!   without aborting the search.

use crate::error::ServeError;
use crate::server::{ScoreReply, ServeClient};
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::time::Duration;
use tlp::search::TLP_PIPELINE_COST;
use tlp_autotuner::{CostModel, PipelineCost, ScoreBatch, ScoreRequest, SearchTask};
use tlp_schedule::hash::splitmix64;
use tlp_schedule::ScheduleSequence;

/// The request channel a [`RemoteCostModel`] scores through. Implemented by
/// [`ServeClient`] for real serving and by
/// [`FlakyTransport`](crate::chaos::FlakyTransport) for chaos testing.
pub trait ScoreTransport {
    /// Scores `schedules` against the named model, honoring `deadline` when
    /// given.
    fn score(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<ScoreReply, ServeError>;
}

impl ScoreTransport for ServeClient {
    fn score(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<ScoreReply, ServeError> {
        self.submit(model, task, schedules, deadline)?.wait()
    }
}

/// Whether an error is worth retrying: the server may recover (queue drains,
/// a batcher catches up, a restart reconnects). Schedule and model errors
/// are deterministic and never retried.
pub(crate) fn is_transient(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::Overloaded { .. } | ServeError::DeadlineExceeded | ServeError::Disconnected
    )
}

/// Base backoff before retry 1; doubles each further retry.
const BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Jitter fraction in `[0, 1]`: each backoff is scaled by a deterministic
/// pseudo-random factor in `[1 - JITTER, 1 + JITTER]`, decorrelating retry
/// storms across concurrent tuners.
const JITTER: f64 = 0.5;

/// Retry knob for transient serving errors (backoff base and jitter are
/// fixed constants of this module).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failed request (`0` disables retry).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2 }
    }
}

/// Circuit-breaker knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failed requests (after retries) that trip the breaker.
    pub failure_threshold: u32,
    /// Requests short-circuited while open before one probe is let through
    /// (the half-open transition). Counting calls instead of wall time keeps
    /// recovery deterministic under test.
    pub cooldown_calls: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_calls: 8,
        }
    }
}

/// Breaker state machine: `Closed` (healthy) → `Open` (failing fast) →
/// `HalfOpen` (probing) → `Closed` or back to `Open`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast to a masked batch; the server is not called.
    Open,
    /// One probe request is in flight; its outcome decides the next state.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// A consecutive-failure circuit breaker with call-count cooldown.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    calls_while_open: u32,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            calls_while_open: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Decides whether the next request may go to the server. While open,
    /// counts short-circuited calls and lets one probe through (half-open)
    /// after the cooldown.
    pub fn allow_request(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.calls_while_open += 1;
                if self.calls_while_open >= self.config.cooldown_calls {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful request; a half-open probe success closes the
    /// breaker.
    pub fn on_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.recoveries += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.calls_while_open = 0;
    }

    /// Records a failed request (after retries); trips the breaker at the
    /// threshold, and a failed half-open probe re-opens it immediately.
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.calls_while_open = 0;
                self.trips += 1;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open;
                    self.calls_while_open = 0;
                    self.trips += 1;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Point-in-time view for observability.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            trips: self.trips,
            recoveries: self.recoveries,
        }
    }
}

/// Serializable breaker state, from [`RemoteCostModel::breaker_snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failures observed while closed.
    pub consecutive_failures: u32,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Times a half-open probe succeeded and closed the breaker.
    pub recoveries: u64,
}

/// A [`CostModel`] scoring through a serving transport, with retry, circuit
/// breaking, and degradation to masked batches.
pub struct RemoteCostModel<T: ScoreTransport = ServeClient> {
    transport: T,
    model: String,
    label: String,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    breaker: RefCell<CircuitBreaker>,
    errors: Cell<u64>,
    retries: Cell<u64>,
    fallback_scores: Cell<u64>,
    jitter_counter: Cell<u64>,
}

impl<T: ScoreTransport> RemoteCostModel<T> {
    /// A backend scoring against the model named `model` through
    /// `transport`, with default retry and breaker settings.
    pub fn new(transport: T, model: impl Into<String>) -> Self {
        let model = model.into();
        RemoteCostModel {
            label: format!("serve:{model}"),
            transport,
            model,
            deadline: None,
            retry: RetryPolicy::default(),
            breaker: RefCell::new(CircuitBreaker::new(BreakerConfig::default())),
            errors: Cell::new(0),
            retries: Cell::new(0),
            fallback_scores: Cell::new(0),
            jitter_counter: Cell::new(0),
        }
    }

    /// Attaches a per-request deadline; requests exceeding it are treated as
    /// transient failures (retried, then degraded) instead of blocking the
    /// tuner.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the circuit-breaker thresholds.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = RefCell::new(CircuitBreaker::new(config));
        self
    }

    /// Number of requests that ultimately failed (retries exhausted or
    /// short-circuited by the open breaker) and were degraded to a masked
    /// batch.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Retry attempts performed beyond first tries.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Batches degraded to all-invalid instead of scored by the server.
    pub fn fallback_scores(&self) -> u64 {
        self.fallback_scores.get()
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.borrow().state()
    }

    /// Point-in-time breaker counters.
    pub fn breaker_snapshot(&self) -> BreakerSnapshot {
        self.breaker.borrow().snapshot()
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Deterministic jitter factor in `[1 - JITTER, 1 + JITTER]` from a
    /// splitmix-mixed call counter (no RNG stream, no wall clock).
    fn jitter_factor(&self) -> f64 {
        let n = self.jitter_counter.get();
        self.jitter_counter.set(n.wrapping_add(1));
        let u = (splitmix64(n) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        1.0 + JITTER * (2.0 * u - 1.0)
    }

    /// One request with bounded retry on transient errors.
    fn score_with_retry(
        &self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
    ) -> Result<ScoreReply, ServeError> {
        let mut attempt = 0u32;
        loop {
            match self
                .transport
                .score(&self.model, task, schedules, self.deadline)
            {
                Ok(reply) => return Ok(reply),
                Err(err) => {
                    if !is_transient(&err) || attempt >= self.retry.max_retries {
                        return Err(err);
                    }
                    std::thread::sleep(
                        BACKOFF_BASE
                            .mul_f64(f64::from(1u32 << attempt.min(16)) * self.jitter_factor()),
                    );
                    self.retries.set(self.retries.get() + 1);
                    attempt += 1;
                }
            }
        }
    }

    /// Degrades a request the server did not answer to an all-invalid batch.
    fn score_fallback(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        self.fallback_scores.set(self.fallback_scores.get() + 1);
        ScoreBatch::masked(vec![None; request.len()], TLP_PIPELINE_COST)
    }
}

impl<T: ScoreTransport> CostModel for RemoteCostModel<T> {
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        if !self.breaker.borrow_mut().allow_request() {
            // Open breaker: fail fast, don't touch the server.
            return self.score_fallback(request);
        }
        match self.score_with_retry(request.task, request.candidates) {
            Ok(reply) => {
                self.breaker.borrow_mut().on_success();
                let mut batch = ScoreBatch::masked(reply.scores, TLP_PIPELINE_COST);
                batch.stats = reply.stats;
                batch
            }
            Err(err) => {
                // Deterministic rejections (invalid schedule, unknown model)
                // degrade too, but never count against the breaker.
                self.errors.set(self.errors.get() + 1);
                if is_transient(&err) {
                    self.breaker.borrow_mut().on_failure();
                }
                self.score_fallback(request)
            }
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn pipeline_cost(&self) -> PipelineCost {
        TLP_PIPELINE_COST
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_calls: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..2 {
            assert!(b.allow_request());
            b.on_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.allow_request());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().trips, 1);
        // Cooldown: first short-circuited call stays open, second probes.
        assert!(!b.allow_request());
        assert!(b.allow_request());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe fails → straight back to open, another full cooldown.
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().trips, 2);
        assert!(!b.allow_request());
        assert!(b.allow_request());
        // Probe succeeds → closed, recovery counted.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.snapshot().recoveries, 1);
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&ServeError::Overloaded { capacity: 4 }));
        assert!(is_transient(&ServeError::DeadlineExceeded));
        assert!(is_transient(&ServeError::Disconnected));
        assert!(!is_transient(&ServeError::UnknownModel("x".into())));
        assert!(!is_transient(&ServeError::ShuttingDown));
    }
}
