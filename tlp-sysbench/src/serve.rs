//! `serve_warm` and `serve_miss`: the same server, the same closed loop, the
//! score cache used in opposite ways.
//!
//! - `serve_warm`: 16-candidate requests are rotating windows over a shared
//!   256-candidate pool whose scores are prefilled, so nearly every candidate
//!   hits. Admission (verify + clone + fingerprint), the queue and condvar,
//!   coalescing and the reply channels dominate; the model idles. This is the
//!   0.40x of ROADMAP item 1.
//! - `serve_miss`: every request carries 16 never-seen candidates, so the
//!   cache is written, not read, and coalesced batches carry real GEMM work.
//!   A change that speeds cache probes at the cost of inserts, or shortens
//!   `max_wait` at the cost of batch size, shows here as a loss; it is also
//!   ROADMAP item 1's "≥0.9x on an all-miss mix" gate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tlp::engine::EngineConfig;
use tlp::{EngineStats, FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{CostModel, ScoreRequest, SearchTask};
use tlp_schedule::ScheduleSequence;
use tlp_serve::{ModelRegistry, ServeConfig, ServeSnapshot, Server};

use crate::harness::{TracedContext, Trial, Workload};
use crate::inputs::{self, ScoreBits};
use crate::layers::{self, Group};
use crate::loadgen::{self, LoadResult, LoadShape, RequestTiming, MODEL};
use crate::metrics::LayerReport;
use crate::reference;
use crate::stats::{median, percentile};
use crate::trace::{Span, Trace};

/// Candidates per request.
pub const REQUEST: usize = 16;
/// Distinct candidates behind `serve_warm`.
const WARM_POOL: usize = 256;
/// Candidates the layer replays run over.
const REPLAY: usize = 2048;
/// Times the direct replay behind `serve.vs_direct_x` runs; median reported.
const DIRECT_REPLAYS: usize = 3;

pub struct Serve {
    warm: bool,
    shape: LoadShape,
    task: SearchTask,
    /// `serve_warm`: the pool followed by its own first request, so a window
    /// that wraps is still one slice. `serve_miss`: one slice per request.
    pool: Vec<ScheduleSequence>,
    table: Vec<ScoreBits>,
    /// Distinct candidates in `pool`.
    distinct: usize,
    warmup_task: SearchTask,
    warmup_pool: Vec<ScheduleSequence>,
    pub pool_build_s: f64,
    pub oracle_s: f64,
}

/// A traced trial's raw observations.
pub struct Observed {
    timings: Vec<RequestTiming>,
    server: ServeSnapshot,
    engine: EngineStats,
}

impl Serve {
    /// Generates the pool and its oracle table from `seed`.
    ///
    /// # Errors
    ///
    /// Fails when the oracle's two reference paths disagree.
    pub fn new(warm: bool, shape: LoadShape, seed: u64) -> Result<Serve, String> {
        let task = inputs::conv_task();
        let distinct = if warm {
            WARM_POOL
        } else {
            shape.threads * shape.requests_per_thread * REQUEST
        };
        let t = Instant::now();
        let mut pool = inputs::pool(&task, distinct, seed);
        let warmup_task = inputs::warmup_task();
        let warmup_pool = inputs::pool(&warmup_task, 4 * REQUEST, seed ^ 0x3a9d_11c4);
        let pool_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut table = inputs::oracle(&task, &pool)?;
        let oracle_s = t.elapsed().as_secs_f64();
        if warm {
            pool.extend_from_within(..REQUEST);
            table.extend_from_within(..REQUEST);
        }
        Ok(Serve {
            warm,
            shape,
            task,
            pool,
            table,
            distinct,
            warmup_task,
            warmup_pool,
            pool_build_s,
            oracle_s,
        })
    }

    fn request(&self, thread: usize, index: usize) -> (&[ScheduleSequence], &[ScoreBits]) {
        let begin = if self.warm {
            (thread * 17 + index * REQUEST) % self.distinct
        } else {
            (thread * self.shape.requests_per_thread + index) * REQUEST
        };
        (
            &self.pool[begin..begin + REQUEST],
            &self.table[begin..begin + REQUEST],
        )
    }

    /// Builds the system under test and warms it: model init, extractor
    /// build, audited install, server start, then either the cache prefill
    /// (`serve_warm`) or a few requests on another task (`serve_miss`).
    fn set_up(&self) -> Result<Server, String> {
        let extractor = inputs::extractor_for(&self.pool[..self.distinct]);
        let model = TlpModel::new(TlpConfig::default());
        let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
        registry
            .install_tlp(MODEL, model, extractor)
            .map_err(|e| format!("install refused: {e}"))?;
        let server = Server::start(registry, ServeConfig::default());
        let client = server.client();
        let (task, pool) = if self.warm {
            (&self.task, &self.pool[..self.distinct])
        } else {
            (&self.warmup_task, &self.warmup_pool[..])
        };
        for chunk in pool.chunks(REQUEST) {
            client
                .score(MODEL, task, chunk)
                .map_err(|e| format!("warm-up request failed: {e}"))?;
        }
        Ok(server)
    }

    fn planned(&self) -> u64 {
        (self.shape.threads * self.shape.requests_per_thread) as u64
    }

    /// One caller replaying the identical request stream through a private
    /// default-engine `FeatureModel`, cache prefilled the same way.
    fn direct_cand_per_s(&self) -> f64 {
        let model = FeatureModel::from_scorer(inputs::scorer(inputs::extractor_for(
            &self.pool[..self.distinct],
        )));
        if self.warm {
            for chunk in self.pool[..self.distinct].chunks(REQUEST) {
                black_box(model.predict(ScoreRequest::new(&self.task, chunk)));
            }
        }
        let t = Instant::now();
        for index in 0..self.shape.requests_per_thread {
            for thread in 0..self.shape.threads {
                let (candidates, _) = self.request(thread, index);
                black_box(model.predict(ScoreRequest::new(&self.task, candidates)));
            }
        }
        (self.planned() as usize * REQUEST) as f64 / t.elapsed().as_secs_f64()
    }
}

fn engine_of(snapshot: &ServeSnapshot) -> EngineStats {
    snapshot
        .models
        .iter()
        .find(|m| m.name == MODEL)
        .map(|m| m.engine)
        .unwrap_or_default()
}

fn refused(s: &ServeSnapshot) -> u64 {
    s.rejected_overload + s.rejected_quota + s.rejected_invalid + s.expired + s.unknown_model
}

impl Workload for Serve {
    type Observed = Observed;

    fn trial(&self, traced: bool) -> (Trial, Option<Observed>) {
        let t = Instant::now();
        let server = match self.set_up() {
            Ok(server) => server,
            Err(why) => {
                eprintln!("tlp-sysbench: set-up failed: {why}");
                let trial = Trial {
                    setup_s: t.elapsed().as_secs_f64(),
                    wall_s: f64::INFINITY,
                    candidates: 0,
                    attempted: self.planned(),
                    failed: self.planned(),
                    op_us: Vec::new(),
                };
                return (trial, None);
            }
        };
        let setup_s = t.elapsed().as_secs_f64();
        let before = server.stats();
        let LoadResult {
            wall_s,
            attempted,
            ok,
            failed,
            latency_us,
            timings,
        } = loadgen::run(
            &server.client(),
            &self.task,
            self.shape,
            traced,
            |thread, index| self.request(thread, index),
        );
        let mut after = server.shutdown();
        let observed = traced.then(|| {
            let engine = layers::engine_delta(&engine_of(&before), &engine_of(&after));
            after.batches -= before.batches;
            after.coalesced_jobs -= before.coalesced_jobs;
            Observed {
                timings,
                server: after,
                engine,
            }
        });
        let trial = Trial {
            setup_s,
            wall_s,
            candidates: ok * REQUEST as u64,
            attempted,
            failed,
            op_us: latency_us,
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
        let replayed = &self.pool[..self.distinct.min(REPLAY)];
        layers::replay(
            &[Group {
                task: &self.task,
                cands: replayed,
            }],
            &inputs::extractor_for(&self.pool[..self.distinct]),
            report,
        );
        layers::engine_rows(&observed.engine, trial.wall_s, report);

        // Spans per request. `serve.queue` and `engine.score` are laid out
        // from the reply's own numbers, back to back from the end of
        // `submit`; the server's enqueue stamp precedes that by the clone.
        let mut trace = Trace::default();
        for r in &observed.timings {
            let req = (r.thread * self.shape.requests_per_thread + r.index) as u64;
            let span = |name, start_ns, end_ns, parent, replayed| Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
                replayed,
            };
            let root = trace.push(span(
                "client.request",
                r.submit_start_ns,
                r.done_ns,
                None,
                false,
            ));
            trace.push(span(
                "serve.submit",
                r.submit_start_ns,
                r.submit_end_ns,
                Some(root),
                false,
            ));
            let wait = trace.push(span(
                "serve.wait",
                r.submit_end_ns,
                r.done_ns,
                Some(root),
                false,
            ));
            let scored_ns = r.submit_end_ns + r.queue_us * 1000;
            let engine_start_ns = scored_ns.saturating_sub((r.engine_us * 1e3) as u64);
            trace.push(span(
                "serve.queue",
                r.submit_end_ns,
                engine_start_ns.max(r.submit_end_ns),
                Some(wait),
                true,
            ));
            trace.push(span(
                "engine.score",
                engine_start_ns.max(r.submit_end_ns),
                scored_ns,
                Some(wait),
                true,
            ));
        }
        // Medians of the traced trial's durations, at calm machine speed.
        let med = |v: Vec<f64>| {
            if v.is_empty() {
                0.0
            } else {
                median(&v) * context.speed
            }
        };
        let t = &observed.timings;
        report.set(
            "serve.submit_us",
            med(t
                .iter()
                .map(|r| (r.submit_end_ns - r.submit_start_ns) as f64 / 1e3)
                .collect()),
        );
        report.set(
            "serve.queue_wait_us",
            med(t
                .iter()
                .map(|r| (r.queue_us as f64 - r.engine_us).max(0.0))
                .collect()),
        );
        report.set(
            "serve.engine_us",
            med(t.iter().map(|r| r.engine_us).collect()),
        );
        // What is left of the in-flight interval once queueing and scoring
        // are taken out: reply channel, wake-up, and the thread being busy
        // with an older request.
        report.set(
            "serve.reply_gap_us",
            med(trace.self_times_of("serve.wait")) / 1e3,
        );
        let s = &observed.server;
        report.set(
            "serve.jobs_per_batch",
            s.coalesced_jobs as f64 / s.batches.max(1) as f64,
        );
        report.set("serve.batches", s.batches as f64);
        report.set("serve.rejected", refused(s) as f64);
        report.set("verify.rejected", s.rejected_invalid as f64);
        if !trial.op_us.is_empty() {
            report.set(
                "serve.req_p99_us",
                percentile(&trial.op_us, 0.99) * context.speed,
            );
        }
        let threads = layers::machine_threads();
        let direct: Vec<f64> = (0..DIRECT_REPLAYS)
            .map(|_| {
                let (rate, speed) = reference::bracket(threads, || self.direct_cand_per_s());
                rate / speed
            })
            .collect();
        report.set(
            "serve.vs_direct_x",
            context.untraced_cand_per_s / median(&direct),
        );

        // Thread-time the known per-candidate costs explain: admission on
        // the client threads plus the engine calls on the batchers.
        let admitted = (t.len() * REQUEST) as f64;
        let admission_s = admitted
            * (report.get("verify.check_ns")
                + report.get("schedule.clone_ns")
                + report.get("schedule.fingerprint_ns"))
            / 1e9;
        report.set(
            "trace.coverage",
            (admission_s + observed.engine.wall_s * context.speed)
                / (trial.wall_s * context.speed * threads as f64),
        );
        report.set("bench.pool_build_s", self.pool_build_s);
        report.set("bench.oracle_s", self.oracle_s);
        report.set(
            "bench.oracle_digest",
            inputs::table_digest(&self.table[..self.distinct]),
        );
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, SMOKE};

    fn smoke(warm: bool) -> (Serve, harness::Outcome) {
        let shape = LoadShape {
            threads: 2,
            window: 4,
            requests_per_thread: 60,
        };
        let w = Serve::new(warm, shape, 5).expect("oracle agrees with itself");
        let outcome = harness::run(&w, &SMOKE);
        (w, outcome)
    }

    #[test]
    fn serve_warm_smoke_hits_the_cache_and_fails_nothing() {
        let (_, o) = smoke(true);
        assert_eq!(o.failed, 0);
        assert_eq!(o.attempted, 5 * 120, "warm-up + 2 untraced + 2 traced");
        let (report, trace) = o.traced.expect("traced pass ran");
        assert!(report.get("engine.hit_ratio") > 0.9);
        assert_eq!(report.get("serve.rejected"), 0.0);
        assert_eq!(trace.spans.len(), 120 * 5);
        assert!(o.end_to_end.op_p95_us >= o.end_to_end.op_p50_us);
    }

    #[test]
    fn serve_miss_smoke_never_hits_and_fails_nothing() {
        let (_, o) = smoke(false);
        assert_eq!(o.failed, 0);
        let (report, _) = o.traced.expect("traced pass ran");
        assert_eq!(report.get("engine.hit_ratio"), 0.0);
        assert!(report.get("serve.batches") >= 1.0);
        assert!(report.get("serve.jobs_per_batch") >= 1.0);
    }

    #[test]
    fn a_corrupted_oracle_entry_fails_the_run() {
        let shape = LoadShape {
            threads: 2,
            window: 4,
            requests_per_thread: 20,
        };
        let mut w = Serve::new(true, shape, 5).expect("oracle agrees with itself");
        let flipped = w.table[3].map(|b| b ^ 1);
        w.table[3] = flipped;
        let (trial, _) = w.trial(false);
        assert!(trial.failed > 0, "a one-bit score difference must fail ops");
        assert!(trial.candidates < trial.attempted * REQUEST as u64);
    }
}
