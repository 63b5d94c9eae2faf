//! Serving-side observability: lock-free latency histograms and counter
//! snapshots.
//!
//! The hot path records one histogram sample and a handful of relaxed
//! atomic increments per request; quantiles are computed only when a
//! snapshot is taken. Snapshots are plain serde data so they can be dumped
//! as JSON or polled by an operator.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use tlp::EngineStats;

/// Number of power-of-two buckets; covers 1 ns … ~584 years.
const BUCKETS: usize = 64;

/// A lock-free log₂-bucketed latency histogram.
///
/// Sample `v` (nanoseconds) lands in bucket `⌊log₂ v⌋`, so reported
/// quantiles carry at most 2× relative error — plenty for p50/p95/p99
/// monitoring, and recording is a single relaxed `fetch_add`.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record_ns(&self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one latency sample from a [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The latency at quantile `q` in [0, 1], in nanoseconds (upper bound of
    /// the containing bucket), or 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the target sample (1-based), clamped into range.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper edge of bucket i = 2^(i+1) - 1, capped by the true max.
                let edge = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return edge.min(self.max_ns.load(Ordering::Relaxed));
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Computes the percentile summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let mean_us = if count == 0 {
            0.0
        } else {
            self.sum_ns.load(Ordering::Relaxed) as f64 / count as f64 / 1e3
        };
        HistogramSnapshot {
            count,
            mean_us,
            p50_us: self.quantile_ns(0.50) as f64 / 1e3,
            p95_us: self.quantile_ns(0.95) as f64 / 1e3,
            p99_us: self.quantile_ns(0.99) as f64 / 1e3,
            max_us: self.max_ns.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

/// Percentile summary of a [`LatencyHistogram`] (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Mean latency, µs (exact — from the running sum, not the buckets).
    pub mean_us: f64,
    /// Median latency, µs (bucket upper bound; ≤2× relative error).
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Largest observed latency, µs (exact).
    pub max_us: f64,
}

/// Cumulative serving counters. All increments are relaxed atomics.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests admitted: queued, or answered at admission.
    pub submitted: AtomicU64,
    /// Requests answered with scores.
    pub completed: AtomicU64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Requests rejected at admission because a schedule failed static
    /// verification.
    pub rejected_invalid: AtomicU64,
    /// Requests dropped because their deadline expired before scoring.
    pub expired: AtomicU64,
    /// Requests refused at admission for naming a model the registry does
    /// not hold.
    pub unknown_model: AtomicU64,
    /// Engine batches executed by batcher threads.
    pub batches: AtomicU64,
    /// Client jobs coalesced into those batches (≥ `batches`).
    pub coalesced_jobs: AtomicU64,
    /// Requests answered by the admission-time cache probe: every candidate
    /// was cached, so the request never queued and rode in no batch.
    pub answered_at_admission: AtomicU64,
    /// Candidates scored (cache hits included).
    pub candidates: AtomicU64,
    /// End-to-end latency (enqueue → reply) of completed requests.
    pub latency: LatencyHistogram,
}

impl ServeStats {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the counters plus the current queue depth, the registry's
    /// rejected-install count, and per-model engine stats into a
    /// serializable snapshot.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        rejected_installs: u64,
        models: Vec<ModelStatsSnapshot>,
    ) -> ServeSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let coalesced = self.coalesced_jobs.load(Ordering::Relaxed);
        ServeSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_quota: 0,
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            unknown_model: self.unknown_model.load(Ordering::Relaxed),
            rejected_installs,
            batches,
            coalesced_jobs: coalesced,
            mean_jobs_per_batch: if batches == 0 {
                0.0
            } else {
                coalesced as f64 / batches as f64
            },
            answered_at_admission: self.answered_at_admission.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            queue_depth,
            latency_us: self.latency.snapshot(),
            models,
        }
    }
}

/// One installed model version's identity and engine counters.
#[derive(Clone, Debug, Serialize)]
pub struct ModelStatsSnapshot {
    /// Registry name.
    pub name: String,
    /// Monotonic version installed under that name.
    pub version: u64,
    /// The version's private engine counters (cache traffic, micro-batches).
    pub engine: EngineStats,
}

/// A point-in-time JSON-serializable view of the whole serving layer.
#[derive(Clone, Debug, Serialize)]
pub struct ServeSnapshot {
    /// Requests admitted: queued, or answered at admission.
    pub submitted: u64,
    /// Requests answered with scores.
    pub completed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected_overload: u64,
    /// Always 0 (per-tenant quotas are gone); kept for the system
    /// benchmark's reader until ROADMAP item 2 next edits it.
    pub rejected_quota: u64,
    /// Requests rejected at admission (schedule failed static verification).
    pub rejected_invalid: u64,
    /// Requests dropped on deadline expiry.
    pub expired: u64,
    /// Requests refused at admission for naming an unknown model. Only
    /// admission counts here: a queued request is scored by the version
    /// that admitted it, so a later removal never fails it.
    pub unknown_model: u64,
    /// Model installs the registry's check refused (a store that differs
    /// from its declared layout, a non-finite value or a checksum
    /// mismatch: a model that never became resolvable).
    pub rejected_installs: u64,
    /// Engine batches executed.
    pub batches: u64,
    /// Client jobs coalesced into those batches.
    pub coalesced_jobs: u64,
    /// Average jobs amortized per engine batch (`coalesced_jobs / batches`).
    /// Describes queued work only: requests answered at admission ride in no
    /// batch and enter neither term.
    pub mean_jobs_per_batch: f64,
    /// Requests answered by the admission-time cache probe, without queueing.
    pub answered_at_admission: u64,
    /// Candidates scored.
    pub candidates: u64,
    /// Jobs waiting in the queue at snapshot time.
    pub queue_depth: usize,
    /// End-to-end request latency percentiles.
    pub latency_us: HistogramSnapshot,
    /// Per-model engine counters.
    pub models: Vec<ModelStatsSnapshot>,
}

impl ServeSnapshot {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0.0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }

    #[test]
    fn quantiles_bracket_samples_within_bucket_error() {
        let h = LatencyHistogram::new();
        // 100 samples: 1µs … 100µs.
        for i in 1..=100u64 {
            h.record_ns(i * 1_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // log2 buckets give at most 2x overestimate, never underestimate of
        // the true quantile's bucket floor.
        assert!(s.p50_us >= 50.0 && s.p50_us <= 128.0, "p50 {}", s.p50_us);
        assert!(s.p99_us >= 99.0 && s.p99_us <= 200.0, "p99 {}", s.p99_us);
        assert!((s.max_us - 100.0).abs() < 1e-9);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        // Quantiles are monotone.
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
    }

    #[test]
    fn max_caps_bucket_upper_edge() {
        let h = LatencyHistogram::new();
        h.record_ns(1_025); // bucket [1024, 2047]
        let s = h.snapshot();
        // With one sample every quantile is that sample, capped at true max.
        assert!((s.p50_us - 1.025).abs() < 1e-9);
        assert!((s.p99_us - 1.025).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let stats = ServeStats::default();
        stats.latency.record_ns(5_000);
        ServeStats::bump(&stats.submitted);
        ServeStats::bump(&stats.completed);
        let snap = stats.snapshot(3, 0, vec![]);
        let json = snap.to_json();
        assert!(json.contains("\"submitted\": 1"));
        assert!(json.contains("\"queue_depth\": 3"));
        assert!(json.contains("p99_us"));
    }
}
