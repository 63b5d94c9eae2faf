//! The trial loop shared by all workloads: one untimed warm-up trial, then
//! fixed-work trials on a fresh system under test until `--seconds` have been
//! measured. Each trial sits between two runs of the machine-speed reference
//! (`reference.rs`) and is scaled to calm machine speed; every end-to-end
//! metric is the median over the untraced trials.

use std::time::{Duration, Instant};

use crate::layers::machine_threads;
use crate::metrics::LayerReport;
use crate::reference;
use crate::stats::{median, percentile};
use crate::trace::Trace;

/// What one fixed-work trial on a fresh system under test observed, in raw
/// wall-clock time.
pub struct Trial {
    /// Model init, extractor build, install (audit on), server start and
    /// warm-up/prefill. Excludes pool generation and the oracle.
    pub setup_s: f64,
    /// Wall time of the timed fixed work.
    pub wall_s: f64,
    /// Candidates completed by ops that passed the oracle.
    pub candidates: u64,
    /// Ops attempted: `predict` calls, requests or tuning rounds.
    pub attempted: u64,
    /// Ops that returned an error, were refused, or carried a score not
    /// bit-equal to the oracle.
    pub failed: u64,
    /// Latency of every completed op, µs.
    pub op_us: Vec<f64>,
}

/// The traced trial's surroundings, for [`Workload::layers`].
pub struct TracedContext {
    /// Median `cand_per_s` of the untraced trials, at calm machine speed.
    pub untraced_cand_per_s: f64,
    /// Speed factor of the traced trial: multiply its durations by this.
    pub speed: f64,
}

/// One benchmark workload over inputs generated from the seed.
pub trait Workload {
    /// What a traced trial keeps for [`Workload::layers`].
    type Observed;

    /// Runs one trial on a freshly built system under test. A traced trial
    /// additionally keeps per-op timings and the layers' own counters.
    fn trial(&self, traced: bool) -> (Trial, Option<Self::Observed>);

    /// Turns the traced trial into per-layer rows (durations at calm machine
    /// speed) and spans (on the trial's raw clock).
    fn layers(
        &self,
        context: &TracedContext,
        trial: &Trial,
        observed: Self::Observed,
        report: &mut LayerReport,
    ) -> Trace;
}

/// End-to-end medians over the untraced trials of one run, at calm machine
/// speed except where named raw.
pub struct EndToEndValues {
    pub cand_per_s: f64,
    pub op_p50_us: f64,
    pub op_p95_us: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Wall-clock medians of `cand_per_s`, `op_p50_us`, `op_p95_us` and
    /// `setup_s`, before scaling.
    pub raw: [f64; 4],
    /// Median speed factor of the untraced trials.
    pub speed: f64,
    /// `cand_per_s` of each untraced timed trial, in run order.
    pub per_trial: Vec<f64>,
    /// Op latencies per trial behind each percentile (the smallest trial).
    pub samples_per_trial: usize,
}

impl EndToEndValues {
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "cand_per_s" => self.cand_per_s,
            "op_p50_us" => self.op_p50_us,
            "op_p95_us" => self.op_p95_us,
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            _ => panic!("unknown end-to-end metric {name}"),
        }
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub end_to_end: EndToEndValues,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer rows and the spans behind them, from the traced pass.
    pub traced: Option<(LayerReport, Trace)>,
}

/// How long to measure and how.
pub struct RunOptions {
    pub measure: Duration,
    /// Fewest untraced timed trials, whatever `measure` says.
    pub min_trials: usize,
    pub traced: bool,
}

/// Two trials of whatever size the test built, traced: what the per-workload
/// smoke tests run.
#[cfg(test)]
pub const SMOKE: RunOptions = RunOptions {
    measure: Duration::ZERO,
    min_trials: 2,
    traced: true,
};

/// Peak resident set of this process (`VmHWM`), MiB. The harness's own pool
/// and oracle table are part of it; they are fixed by the workload sizes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs the warm-up trial, the timed trials and (when asked) the traced pass.
/// With tracing on, untraced and traced trials alternate so both see the
/// same machine state; end-to-end medians never include a traced trial.
pub fn run<W: Workload>(workload: &W, opts: &RunOptions) -> Outcome {
    let threads = machine_threads();
    let (warm_up, _) = workload.trial(false);
    let (mut attempted, mut failed) = (warm_up.attempted, warm_up.failed);
    // Each entry: the trial and its speed factor.
    let mut untraced: Vec<(Trial, f64)> = Vec::new();
    let mut traced: Vec<(Trial, f64, W::Observed)> = Vec::new();
    let start = Instant::now();
    let mut before = reference::speed(threads);
    while untraced.len() < opts.min_trials || start.elapsed() < opts.measure {
        let trial = workload.trial(false).0;
        let after = reference::speed(threads);
        untraced.push((trial, (before + after) / 2.0));
        before = after;
        if opts.traced {
            let (trial, observed) = workload.trial(true);
            let after = reference::speed(threads);
            if let Some(observed) = observed {
                traced.push((trial, (before + after) / 2.0, observed));
            }
            before = after;
        }
    }
    let all = untraced
        .iter()
        .map(|(t, _)| t)
        .chain(traced.iter().map(|(t, ..)| t));
    for t in all {
        attempted += t.attempted;
        failed += t.failed;
    }

    // Median over the untraced trials of `f(trial, its speed factor)`.
    let over_trials = |f: &dyn Fn(&Trial, f64) -> f64| {
        median(&untraced.iter().map(|(t, s)| f(t, *s)).collect::<Vec<_>>())
    };
    // A trial without op latencies (its set-up failed) has no percentile;
    // infinity keeps the run from passing as correct.
    let quantile = |t: &Trial, q: f64| {
        if t.op_us.is_empty() {
            f64::INFINITY
        } else {
            percentile(&t.op_us, q)
        }
    };
    // `cand_per_s`, `op_p50_us`, `op_p95_us`, `setup_s`: scaled to calm
    // machine speed, or as the wall clock had them.
    let medians = |calm: bool| {
        let factor = |speed: f64| if calm { speed } else { 1.0 };
        [
            over_trials(&|t, s| t.candidates as f64 / (t.wall_s * factor(s))),
            over_trials(&|t, s| quantile(t, 0.50) * factor(s)),
            over_trials(&|t, s| quantile(t, 0.95) * factor(s)),
            over_trials(&|t, s| t.setup_s * factor(s)),
        ]
    };
    let [cand_per_s, op_p50_us, op_p95_us, setup_s] = medians(true);
    let end_to_end = EndToEndValues {
        cand_per_s,
        op_p50_us,
        op_p95_us,
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        raw: medians(false),
        speed: over_trials(&|_, speed| speed),
        per_trial: untraced
            .iter()
            .map(|(t, s)| t.candidates as f64 / (t.wall_s * s))
            .collect(),
        samples_per_trial: untraced
            .iter()
            .map(|(t, _)| t.op_us.len())
            .min()
            .unwrap_or(0),
    };
    let traced = (!traced.is_empty()).then(|| {
        let calm_wall = |t: &Trial, speed: f64| t.wall_s * speed;
        let traced_wall = median(
            &traced
                .iter()
                .map(|(t, s, _)| calm_wall(t, *s))
                .collect::<Vec<_>>(),
        );
        let n_traced = traced.len();
        // The spans and counters written out are the last traced trial's.
        let (trial, speed, observed) = traced.pop().expect("checked non-empty");
        let context = TracedContext {
            untraced_cand_per_s: end_to_end.cand_per_s,
            speed,
        };
        let mut report = LayerReport::new();
        let trace = workload.layers(&context, &trial, observed, &mut report);
        report.set("trace.overhead_x", traced_wall / over_trials(&calm_wall));
        report.set("bench.trials", n_traced as f64);
        report.set("bench.threads", threads as f64);
        report.set("bench.speed_x", end_to_end.speed);
        (report, trace)
    });
    Outcome {
        end_to_end,
        attempted,
        failed,
        traced,
    }
}
