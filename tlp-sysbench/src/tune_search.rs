//! `tune_search`: `tune_network` on BERT-tiny with the TLP cost model and
//! default tuning options — the user-facing tuner loop.
//!
//! Sketch generation and mutation, the `static_prune` verify gate,
//! `tlp-hwsim` measurement and the engine at its natural reuse (elites
//! survive generations, so about half the scored candidates hit the cache)
//! split the time; `tlp-serve` does none of it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::time::Instant;
use tlp::engine::EngineConfig;
use tlp::{EngineStats, FeatureModel, TlpCostModel};
use tlp_autotuner::{
    tune_network, Candidate, CostModel, PipelineCost, ScoreBatch, ScoreRequest, SearchStats,
    SearchTask, SketchPolicy, TuningOptions, TuningReport, UpdateError,
};
use tlp_hwsim::Platform;
use tlp_schedule::ScheduleSequence;
use tlp_workload::{bert_tiny, Network};

use crate::harness::{TracedContext, Trial, Workload};
use crate::inputs;
use crate::layers::{self, Group};
use crate::metrics::LayerReport;
use crate::stats::{median, Digest};
use crate::trace::{Span, Trace};

/// Random candidates per task the extractor's vocabulary is observed from.
const VOCAB_PER_TASK: usize = 16;
/// Measured schedules per task the layer replays run over.
const REPLAY_PER_TASK: usize = 256;

pub struct TuneSearch {
    platform: Platform,
    options: TuningOptions,
    vocab_pool: Vec<ScheduleSequence>,
    /// Digest of the same tuning run through a single-threaded, uncached
    /// model: what every trial's result must equal.
    expected_digest: f64,
    pub pool_build_s: f64,
    pub oracle_s: f64,
}

/// A traced trial's raw observations.
pub struct Observed {
    report: TuningReport,
    /// `predict` calls on the trial clock: start and end.
    calls: Vec<(u64, u64)>,
    /// End of each round's `update` on the trial clock.
    round_ends_ns: Vec<u64>,
    model_s: f64,
    engine: EngineStats,
}

fn network() -> Network {
    bert_tiny(1, 128)
}

/// Bits of the tuning result and its search counts: equal for equal seeds
/// unless scoring, search or measurement changed behaviour.
pub fn result_digest(report: &TuningReport) -> f64 {
    let mut d = Digest::new();
    d.word(report.final_latency_s().to_bits());
    report
        .best_per_task
        .iter()
        .for_each(|b| d.word(b.to_bits()));
    d.word(report.rounds.len() as u64);
    d.word(report.measurements);
    d.word(report.search.generated);
    d.word(report.search.pruned);
    d.word(report.search.full_scored);
    d.as_f64()
}

/// Times the tuner's calls into the cost model from outside: `predict` and
/// `update` durations, and the end of each round (the tuner updates the
/// model once per round, right after measuring).
struct Timed {
    inner: TlpCostModel,
    epoch: Instant,
    traced: bool,
    model_ns: Cell<u64>,
    /// `predict` answers of the wrong length or with unscored candidates.
    bad_batches: Cell<u64>,
    calls: RefCell<Vec<(u64, u64)>>,
    round_ends_ns: Vec<u64>,
}

impl Timed {
    fn since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl CostModel for Timed {
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        let start = self.since_epoch();
        let batch = self.inner.predict(request);
        let end = self.since_epoch();
        self.model_ns.set(self.model_ns.get() + (end - start));
        if batch.len() != request.len() || batch.num_invalid() > 0 {
            self.bad_batches.set(self.bad_batches.get() + 1);
        }
        if self.traced {
            self.calls.borrow_mut().push((start, end));
        }
        batch
    }

    fn update(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<(), UpdateError> {
        let start = self.since_epoch();
        let result = self.inner.update(task, schedules, latencies);
        let end = self.since_epoch();
        self.model_ns.set(self.model_ns.get() + (end - start));
        self.round_ends_ns.push(end);
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pipeline_cost(&self) -> PipelineCost {
        self.inner.pipeline_cost()
    }
}

impl TuneSearch {
    /// Seeds the tuner and the vocabulary pool from `seed` and records the
    /// reference digest.
    pub fn new(rounds: usize, seed: u64) -> TuneSearch {
        let platform = Platform::i7_10510u();
        let options = TuningOptions {
            rounds,
            seed,
            ..TuningOptions::default()
        };
        let t = Instant::now();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x70ca_b001);
        let policy = SketchPolicy::cpu();
        let vocab_pool: Vec<ScheduleSequence> = SearchTask::from_network(&network(), &platform)
            .iter()
            .flat_map(|task| {
                let sequences: Vec<_> = (0..VOCAB_PER_TASK)
                    .map(|_| Candidate::random(&policy, &task.subgraph, &mut rng).sequence)
                    .collect();
                sequences
            })
            .collect();
        let pool_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut reference = FeatureModel::with_engine(
            inputs::scorer(inputs::extractor_for(&vocab_pool)),
            EngineConfig::sequential_uncached(),
        );
        let expected_digest = result_digest(&tune_network(
            &network(),
            &platform,
            &mut reference,
            &options,
        ));
        TuneSearch {
            platform,
            options,
            vocab_pool,
            expected_digest,
            pool_build_s,
            oracle_s: t.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for TuneSearch {
    type Observed = Observed;

    fn trial(&self, traced: bool) -> (Trial, Option<Observed>) {
        // Set-up: network, model init, extractor build, default engine, and
        // one scored batch so the engine's scratch pools exist.
        let t = Instant::now();
        let net = network();
        let inner =
            FeatureModel::from_scorer(inputs::scorer(inputs::extractor_for(&self.vocab_pool)));
        let first = SearchTask::from_network(&net, &self.platform).swap_remove(0);
        inner.predict(ScoreRequest::new(
            &first,
            &self.vocab_pool[..VOCAB_PER_TASK],
        ));
        inner.engine().invalidate();
        let setup_s = t.elapsed().as_secs_f64();

        let before = inner.engine().stats();
        let mut model = Timed {
            inner,
            epoch: Instant::now(),
            traced,
            model_ns: Cell::new(0),
            bad_batches: Cell::new(0),
            calls: RefCell::default(),
            round_ends_ns: Vec::with_capacity(self.options.rounds),
        };
        let report = tune_network(&net, &self.platform, &mut model, &self.options);
        let wall_s = model.epoch.elapsed().as_secs_f64();

        let rounds = self.options.rounds as u64;
        let intact =
            report.rounds.len() as u64 == rounds && result_digest(&report) == self.expected_digest;
        let failed = if intact {
            model.bad_batches.get().min(rounds)
        } else {
            rounds
        };
        let mut op_us = Vec::with_capacity(model.round_ends_ns.len());
        let mut last = 0;
        for &end in &model.round_ends_ns {
            op_us.push((end - last) as f64 / 1e3);
            last = end;
        }
        let trial = Trial {
            setup_s,
            wall_s,
            candidates: (rounds - failed) * self.options.programs_per_round as u64,
            attempted: rounds,
            failed,
            op_us,
        };
        let observed = traced.then(|| Observed {
            engine: layers::engine_delta(&before, &model.inner.engine().stats()),
            report,
            calls: model.calls.take(),
            round_ends_ns: model.round_ends_ns,
            model_s: model.model_ns.get() as f64 / 1e9,
        });
        (trial, observed)
    }

    fn layers(
        &self,
        context: &TracedContext,
        trial: &Trial,
        observed: Observed,
        report: &mut LayerReport,
    ) -> Trace {
        let Observed {
            report: tuning,
            calls,
            round_ends_ns,
            model_s,
            engine,
        } = observed;
        // Replay the layers over the schedules the tuner measured, per task.
        let tasks = SearchTask::from_network(&network(), &self.platform);
        let mut measured: Vec<Vec<ScheduleSequence>> = vec![Vec::new(); tasks.len()];
        for (task_index, record) in &tuning.records {
            if measured[*task_index].len() < REPLAY_PER_TASK {
                measured[*task_index].push(record.schedule.clone());
            }
        }
        let groups: Vec<Group<'_>> = tasks
            .iter()
            .zip(&measured)
            .filter(|(_, cands)| !cands.is_empty())
            .map(|(task, cands)| Group { task, cands })
            .collect();
        layers::replay(&groups, &inputs::extractor_for(&self.vocab_pool), report);
        layers::engine_rows(&engine, trial.wall_s, report);

        let rounds = tuning.rounds.len();
        let calm_wall_s = trial.wall_s * context.speed;
        report.set("search.generated", tuning.search.generated as f64);
        report.set("search.pruned", tuning.search.pruned as f64);
        report.set("search.full_scored", tuning.search.full_scored as f64);
        report.set("verify.rejected", tuning.search.pruned as f64);
        report.set("tuner.rounds_per_s", rounds as f64 / calm_wall_s);
        if !trial.op_us.is_empty() {
            report.set("tuner.round_ms", median(&trial.op_us) / 1e3 * context.speed);
        }
        report.set("tuner.model_share", model_s / trial.wall_s);
        report.set("tuner.result_digest", result_digest(&tuning));

        // Per generated candidate the tuner pays sketch work and the verify
        // gate; per measured program, lowering and simulation. The initial
        // population of each round is sampled, the rest is bred.
        let population = self.options.evolution.population as f64;
        let sketch_and_verify_ns = |stats: &SearchStats, rounds: usize| {
            let generated = stats.generated as f64;
            let sampled = (rounds as f64 * population).min(generated);
            let sketch = sampled * report.get("sketch.random_ns")
                + (generated - sampled) * report.get("sketch.mutate_emit_ns");
            (sketch, generated * report.get("verify.check_ns"))
        };
        let measure_ns = report.get("measure.program_ns");
        let (sketch_ns, verify_ns) = sketch_and_verify_ns(&tuning.search, rounds);
        let replayed_s = (sketch_ns + verify_ns + tuning.measurements as f64 * measure_ns) / 1e9;

        let mut trace = Trace::default();
        let root = trace.push(Span {
            name: "tuner.tune_network",
            start_ns: 0,
            end_ns: (trial.wall_s * 1e9) as u64,
            parent: None,
            req: 0,
            replayed: false,
        });
        for &(start_ns, end_ns) in &calls {
            trace.push(Span {
                name: "model.predict",
                start_ns,
                end_ns,
                parent: Some(root),
                req: 0,
                replayed: false,
            });
        }
        let mut round_start = 0;
        for (log, &round_end) in tuning.rounds.iter().zip(&round_ends_ns) {
            let req = log.round as u64;
            let round = trace.push(Span {
                name: "tuner.round",
                start_ns: round_start,
                end_ns: round_end,
                parent: Some(root),
                req,
                replayed: false,
            });
            let (sketch, verify) = sketch_and_verify_ns(&log.stats, 1);
            let measure = self.options.programs_per_round as f64 * measure_ns;
            // Report rows are at calm speed; the span clock is raw.
            let raw = |calm_ns: f64| (calm_ns / context.speed) as u64;
            let mut at = round_start;
            for (name, dur) in [
                ("sketch.generate", sketch),
                ("verify.check", verify),
                ("measure.program", measure),
            ] {
                trace.push(Span {
                    name,
                    start_ns: at,
                    end_ns: at + raw(dur),
                    parent: Some(round),
                    req,
                    replayed: true,
                });
                at += raw(dur);
            }
            round_start = round_end;
        }

        // The tuner runs on one thread (the engine fans out inside
        // `predict`, whose wall time is what the tuner waits for).
        report.set(
            "trace.coverage",
            (model_s * context.speed + replayed_s) / calm_wall_s,
        );
        report.set("bench.pool_build_s", self.pool_build_s);
        report.set("bench.oracle_s", self.oracle_s);
        report.set("bench.oracle_digest", self.expected_digest);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, SMOKE};

    #[test]
    fn tune_search_smoke_repeats_its_digest_and_shares_time_with_the_model() {
        let w = TuneSearch::new(12, 11);
        let o = harness::run(&w, &SMOKE);
        assert_eq!(o.failed, 0, "every trial reproduced the reference digest");
        assert_eq!(o.attempted, 5 * 12);
        let (report, trace) = o.traced.expect("traced pass ran");
        assert_eq!(report.get("tuner.result_digest"), w.expected_digest);
        assert!(report.get("search.generated") > report.get("search.full_scored") / 2.0);
        let share = report.get("tuner.model_share");
        assert!(share > 0.0 && share < 1.0, "model share {share}");
        assert!(trace.spans.iter().any(|s| s.name == "model.predict"));
    }

    #[test]
    fn a_different_reference_digest_fails_every_round() {
        let mut w = TuneSearch::new(8, 11);
        w.expected_digest += 1.0;
        let (trial, _) = w.trial(false);
        assert_eq!(trial.failed, 8);
        assert_eq!(trial.candidates, 0);
    }

    #[test]
    fn digest_sees_the_seed() {
        assert_ne!(
            TuneSearch::new(8, 11).expected_digest,
            TuneSearch::new(8, 12).expected_digest
        );
    }
}
