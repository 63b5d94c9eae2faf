//! `score_cold`: one caller, `FeatureModel::predict` at batch 512 over a
//! distinct-candidate pool, the score cache invalidated before every pass.
//!
//! This is the paper's Fig. 10 path — per-candidate cost of the cost model
//! with nothing to reuse. `tlp::features`, the `tlp::model`/`tlp-nn` kernels
//! and the engine's thread fan-out do nearly all the work; `tlp-serve`,
//! `tlp-verify` and `tlp-autotuner` do none.

use std::time::Instant;
use tlp::{EngineStats, FeatureModel};
use tlp_autotuner::{BatchStats, CostModel, ScoreRequest, SearchTask};
use tlp_schedule::ScheduleSequence;

use crate::harness::{TracedContext, Trial, Workload};
use crate::inputs::{self, ScoreBits};
use crate::layers::{self, Group};
use crate::metrics::LayerReport;
use crate::trace::{Span, Trace};

/// Candidates per `predict` call.
pub const BATCH: usize = 512;
/// Candidates the layer replays run over.
const REPLAY: usize = 2048;

pub struct ScoreCold {
    task: SearchTask,
    pool: Vec<ScheduleSequence>,
    table: Vec<ScoreBits>,
    /// Cold passes over the pool per trial.
    passes: usize,
    pub pool_build_s: f64,
    pub oracle_s: f64,
}

/// A traced trial's raw observations: each call's interval on the trial
/// clock with the engine's own account of it, and the engine's counters.
pub struct Observed {
    calls: Vec<(u64, u64, BatchStats)>,
    engine: EngineStats,
}

impl ScoreCold {
    /// Generates the pool and its oracle table from `seed`.
    ///
    /// # Errors
    ///
    /// Fails when the oracle's two reference paths disagree.
    pub fn new(pool: usize, passes: usize, seed: u64) -> Result<ScoreCold, String> {
        let task = inputs::conv_task();
        let t = Instant::now();
        let pool = inputs::pool(&task, pool, seed);
        let pool_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let table = inputs::oracle(&task, &pool)?;
        Ok(ScoreCold {
            task,
            pool,
            table,
            passes,
            pool_build_s,
            oracle_s: t.elapsed().as_secs_f64(),
        })
    }
}

impl Workload for ScoreCold {
    type Observed = Observed;

    fn trial(&self, traced: bool) -> (Trial, Option<Observed>) {
        // Set-up: model init, extractor build, default engine, and one call
        // so the engine's scratch pools exist before timing starts.
        let t = Instant::now();
        let model = FeatureModel::from_scorer(inputs::scorer(inputs::extractor_for(&self.pool)));
        model.predict(ScoreRequest::new(&self.task, &self.pool[..BATCH]));
        let setup_s = t.elapsed().as_secs_f64();

        let before = model.engine().stats();
        let calls_planned = self.passes * self.pool.len().div_ceil(BATCH);
        let mut op_us = Vec::with_capacity(calls_planned);
        let mut calls = Vec::with_capacity(if traced { calls_planned } else { 0 });
        let (mut candidates, mut failed) = (0, 0);
        let start = Instant::now();
        for _ in 0..self.passes {
            model.engine().invalidate();
            for (chunk, expected) in self.pool.chunks(BATCH).zip(self.table.chunks(BATCH)) {
                let t0 = Instant::now();
                let batch = model.predict(ScoreRequest::new(&self.task, chunk));
                let t1 = Instant::now();
                op_us.push(t1.duration_since(t0).as_nanos() as f64 / 1e3);
                let got = batch
                    .scores()
                    .zip(&batch.valid)
                    .map(|(s, &ok)| ok.then_some(s.to_bits()));
                if batch.len() == expected.len() && got.eq(expected.iter().copied()) {
                    candidates += chunk.len() as u64;
                } else {
                    failed += 1;
                }
                if traced {
                    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
                    calls.push((since(t0), since(t1), batch.stats));
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let observed = traced.then(|| Observed {
            calls,
            engine: layers::engine_delta(&before, &model.engine().stats()),
        });
        let trial = Trial {
            setup_s,
            wall_s,
            candidates,
            attempted: calls_planned as u64,
            failed,
            op_us,
        };
        (trial, observed)
    }

    fn layers(
        &self,
        context: &TracedContext,
        trial: &Trial,
        observed: Observed,
        report: &mut LayerReport,
    ) -> Trace {
        layers::replay(
            &[Group {
                task: &self.task,
                cands: &self.pool[..self.pool.len().min(REPLAY)],
            }],
            &inputs::extractor_for(&self.pool),
            report,
        );
        layers::engine_rows(&observed.engine, trial.wall_s, report);

        // One observed `engine.score` span per call; under it the three
        // per-candidate stages at their replayed single-thread cost, spread
        // over the workers the engine reports having used.
        let stages = [
            ("schedule.fingerprint", "schedule.fingerprint_ns"),
            ("features.extract", "features.extract_ns"),
            ("model.predict", "model.predict_ns"),
        ];
        let mut trace = Trace::default();
        for (req, &(start_ns, end_ns, stats)) in observed.calls.iter().enumerate() {
            let req = req as u64;
            let root = trace.push(Span {
                name: "engine.score",
                start_ns,
                end_ns,
                parent: None,
                req,
                replayed: false,
            });
            let n = f64::from(stats.cache_hits + stats.cache_misses);
            let mut at = start_ns;
            for (name, metric) in stages {
                // Report rows are at calm speed; the span clock is raw.
                let workers = f64::from(stats.threads.max(1));
                let dur = (n * report.get(metric) / context.speed / workers) as u64;
                trace.push(Span {
                    name,
                    start_ns: at,
                    end_ns: at + dur,
                    parent: Some(root),
                    req,
                    replayed: true,
                });
                at += dur;
            }
        }

        // Thread-time the single-thread per-candidate cost explains, out of
        // the thread-time the engine's fan-out had available.
        let threads = layers::machine_threads();
        let scored = (observed.engine.cache_hits + observed.engine.cache_misses) as f64;
        report.set(
            "trace.coverage",
            scored * report.get("engine.miss_ns")
                / 1e9
                / (trial.wall_s * context.speed * threads as f64),
        );
        report.set("bench.pool_build_s", self.pool_build_s);
        report.set("bench.oracle_s", self.oracle_s);
        report.set("bench.oracle_digest", inputs::table_digest(&self.table));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, SMOKE};

    #[test]
    fn score_cold_smoke_is_all_miss_and_bit_equal_to_the_oracle() {
        let w = ScoreCold::new(1024, 1, 3).expect("oracle agrees with itself");
        let o = harness::run(&w, &SMOKE);
        assert_eq!(o.failed, 0);
        assert_eq!(o.attempted, 5 * 2, "warm-up + 2 untraced + 2 traced");
        assert!(o.end_to_end.cand_per_s > 0.0);
        let (report, trace) = o.traced.expect("traced pass ran");
        assert_eq!(report.get("engine.hit_ratio"), 0.0);
        assert_eq!(report.get("serve.batches"), 0.0, "tlp-serve does no work");
        assert_eq!(trace.spans.len(), 2 * 4);
        assert!(report.get("model.predict_ns") > report.get("schedule.fingerprint_ns"));
    }

    #[test]
    fn a_corrupted_oracle_entry_fails_the_call_that_covers_it() {
        let mut w = ScoreCold::new(1024, 1, 3).expect("oracle agrees with itself");
        w.table[700] = w.table[700].map(|b| b ^ 1);
        let (trial, _) = w.trial(false);
        assert_eq!(trial.failed, 1);
        assert_eq!(trial.candidates, 512);
    }
}
