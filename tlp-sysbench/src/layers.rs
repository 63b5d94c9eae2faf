//! Per-layer costs measured from outside: each layer's public call is timed
//! on the workload's own inputs, on one thread, after the trials. Nothing in
//! the program is instrumented.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tlp::engine::EngineConfig;
use tlp::features::{FeatureBuf, FeatureExtractor};
use tlp::search::TlpScorer;
use tlp::{EngineStats, FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, CostModel, Measurer, ScoreRequest, SearchTask, SketchPolicy};
use tlp_nn::Workspace;
use tlp_schedule::ScheduleSequence;
use tlp_serve::ModelRegistry;

use crate::inputs::scorer;
use crate::metrics::LayerReport;
use crate::reference;
use crate::stats::median;

/// Candidates of one task to replay the layers on.
pub struct Group<'a> {
    pub task: &'a SearchTask,
    pub cands: &'a [ScheduleSequence],
}

/// Each replay is repeated this often; the median is reported.
const REPS: usize = 5;
/// At most this many programs go through the (slow) measurer per replay.
const MEASURED: usize = 256;
/// The engine's micro-batch size, which `model.predict_ns` is timed at.
const MICRO_BATCH: usize = 64;
/// The batch size engine replays call `predict` with.
const BATCH: usize = 512;

/// Dense forward FLOPs per candidate implied by `cfg` (multiply and add
/// counted separately, all `seq_len` rows; the fused path skips padding
/// rows, so achieved FLOP/s is below `model.gflop_per_s`).
pub fn flop_per_candidate(cfg: &TlpConfig) -> f64 {
    let (l, e, h) = (cfg.seq_len, cfg.emb_size, cfg.hidden);
    let mid = (h / 2).max(1);
    let upsample = l * (2 * e * h + 2 * h * h);
    let projections = l * 4 * 2 * h * h;
    let attention = 2 * 2 * l * l * h;
    let residual = cfg.res_blocks * l * 2 * 2 * h * h;
    let head = l * (2 * h * mid + 2 * mid);
    (upsample + projections + attention + residual + head) as f64
}

fn predict_all(model: &FeatureModel<TlpScorer>, groups: &[Group<'_>]) {
    for g in groups {
        for chunk in g.cands.chunks(BATCH) {
            black_box(model.predict(ScoreRequest::new(g.task, chunk)));
        }
    }
}

/// Times every layer's public call over `groups` and fills the `*_ns`,
/// `model.*`, `engine.{miss,hit,self}_ns`, `engine.parallel_x` and
/// `registry.install_ms` rows of `report`, at calm machine speed.
///
/// The stages run round-robin, [`REPS`] rounds, and each row is the median
/// over rounds; rows derived from several stages (`engine.self_ns`,
/// `engine.parallel_x`) are derived within a round, from stages timed moments
/// apart, so a drift in machine speed between rounds does not leak into them.
pub fn replay(groups: &[Group<'_>], extractor: &FeatureExtractor, report: &mut LayerReport) {
    let n: usize = groups.iter().map(|g| g.cands.len()).sum();
    let per_group = MEASURED.div_ceil(groups.len().max(1));
    let programs: usize = groups.iter().map(|g| g.cands.len().min(per_group)).sum();

    let opts = tlp_verify::VerifyOptions {
        gpu: Some(false),
        ..tlp_verify::VerifyOptions::default()
    };
    let policy = SketchPolicy::cpu();
    let (mut sample_rng, mut breed_rng) = (
        SmallRng::seed_from_u64(0x51e7),
        SmallRng::seed_from_u64(0xb4ee),
    );
    let mut decisions: Vec<Vec<_>> = groups
        .iter()
        .map(|g| {
            (0..g.cands.len())
                .map(|_| policy.random_decision(&g.task.subgraph, &mut breed_rng))
                .collect()
        })
        .collect();
    let model = TlpModel::new(TlpConfig::default());
    let mut buf = FeatureBuf::new();
    let bufs: Vec<FeatureBuf> = groups
        .iter()
        .flat_map(|g| g.cands.chunks(MICRO_BATCH))
        .map(|chunk| {
            let mut b = FeatureBuf::new();
            extractor.extract_batch_into(chunk, &mut b);
            b
        })
        .collect();
    let (mut ws, mut out) = (Workspace::new(), Vec::new());
    let single = FeatureModel::with_engine(
        scorer(extractor.clone()),
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    );
    let fanned = FeatureModel::from_scorer(scorer(extractor.clone()));

    type Stage<'a> = (&'static str, usize, Box<dyn FnMut() + 'a>);
    let mut stages: Vec<Stage<'_>> = vec![
        // tlp-schedule
        (
            "schedule.fingerprint_ns",
            n,
            Box::new(|| {
                for g in groups {
                    for s in g.cands {
                        black_box(s.salted_fingerprint(0x5a17));
                    }
                }
            }),
        ),
        (
            "schedule.clone_ns",
            n,
            Box::new(|| {
                for g in groups {
                    for s in g.cands {
                        drop(black_box(s.clone()));
                    }
                }
            }),
        ),
        // tlp-verify, as admission calls it
        (
            "verify.check_ns",
            n,
            Box::new(|| {
                for g in groups {
                    for s in g.cands {
                        black_box(tlp_verify::verify_with(&g.task.subgraph, s, &opts).has_errors());
                    }
                }
            }),
        ),
        // tlp-autotuner: sketch sampling, mutation + emission, measurement
        (
            "sketch.random_ns",
            n,
            Box::new(|| {
                for g in groups {
                    for _ in 0..g.cands.len() {
                        black_box(Candidate::random(
                            &policy,
                            &g.task.subgraph,
                            &mut sample_rng,
                        ));
                    }
                }
            }),
        ),
        (
            "sketch.mutate_emit_ns",
            n,
            Box::new(|| {
                for (g, ds) in groups.iter().zip(decisions.iter_mut()) {
                    for d in ds {
                        policy.mutate(&g.task.subgraph, d, &mut breed_rng);
                        black_box(policy.emit(&g.task.subgraph, d));
                    }
                }
            }),
        ),
        (
            "measure.program_ns",
            programs,
            Box::new(|| {
                let mut measurer = Measurer::new(false);
                for g in groups {
                    let batch = &g.cands[..g.cands.len().min(per_group)];
                    black_box(measurer.measure_batch(g.task, batch));
                }
            }),
        ),
        // tlp::features and tlp::model at the engine's micro-batch size
        (
            "features.extract_ns",
            n,
            Box::new(|| {
                for g in groups {
                    for chunk in g.cands.chunks(MICRO_BATCH) {
                        extractor.extract_batch_into(chunk, &mut buf);
                        black_box(buf.len());
                    }
                }
            }),
        ),
        (
            "model.predict_ns",
            n,
            Box::new(|| {
                for b in &bufs {
                    model.predict_into(&mut ws, b, &mut out);
                    black_box(out.len());
                }
            }),
        ),
        // tlp::engine on one thread: all-miss, then all-hit on what that left
        // in the cache; then all-miss at the default thread count
        (
            "engine.miss_ns",
            n,
            Box::new(|| {
                single.engine().invalidate();
                predict_all(&single, groups);
            }),
        ),
        (
            "engine.hit_ns",
            n,
            Box::new(|| predict_all(&single, groups)),
        ),
        // Timed under the name of the row it feeds: the ratio below replaces
        // this stage's own duration in the report.
        (
            "engine.parallel_x",
            n,
            Box::new(|| {
                fanned.engine().invalidate();
                predict_all(&fanned, groups);
            }),
        ),
    ];
    // One reference bracket per round: the round's durations are scaled to
    // calm machine speed like every other duration the benchmark reports.
    let threads = machine_threads();
    let mut rounds: Vec<Vec<f64>> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (mut round, speed) = reference::bracket(threads, || {
            stages
                .iter_mut()
                .map(|(_, items, stage)| {
                    let t = Instant::now();
                    stage();
                    t.elapsed().as_nanos() as f64 / (*items).max(1) as f64
                })
                .collect::<Vec<f64>>()
        });
        round.iter_mut().for_each(|ns| *ns *= speed);
        rounds.push(round);
    }
    let at = |name: &str| {
        stages
            .iter()
            .position(|(stage, ..)| *stage == name)
            .expect("stage names are literals of this function")
    };
    let over_rounds =
        |f: &dyn Fn(&[f64]) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    for (i, (name, ..)) in stages.iter().enumerate() {
        report.set(name, over_rounds(&|r| r[i]));
    }
    let (miss, fanned_miss) = (at("engine.miss_ns"), at("engine.parallel_x"));
    let parts = [
        at("schedule.fingerprint_ns"),
        at("features.extract_ns"),
        at("model.predict_ns"),
    ];
    report.set(
        "engine.self_ns",
        over_rounds(&|r| r[miss] - parts.iter().map(|&p| r[p]).sum::<f64>()),
    );
    report.set(
        "engine.parallel_x",
        over_rounds(&|r| r[miss] / r[fanned_miss]),
    );
    let flop = flop_per_candidate(&model.config);
    report.set("model.flop_per_cand", flop);
    report.set("model.gflop_per_s", flop / report.get("model.predict_ns"));

    // tlp-serve::registry + tlp-modelcheck: install with the audit on
    let (installs, speed) = reference::bracket(threads, || -> Vec<f64> {
        (0..REPS)
            .map(|_| {
                let registry = ModelRegistry::new(EngineConfig::default());
                let (model, extractor) = (TlpModel::new(TlpConfig::default()), extractor.clone());
                let t = Instant::now();
                black_box(registry.install_tlp("tlp", model, extractor)).ok();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    });
    report.set("registry.install_ms", median(&installs) * speed);
}

/// Engine counters accumulated between two snapshots.
pub fn engine_delta(before: &EngineStats, after: &EngineStats) -> EngineStats {
    EngineStats {
        requests: after.requests - before.requests,
        micro_batches: after.micro_batches - before.micro_batches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        wall_s: after.wall_s - before.wall_s,
        micro_batch_wall_s: after.micro_batch_wall_s - before.micro_batch_wall_s,
        invalidations: after.invalidations - before.invalidations,
        cache_len: after.cache_len,
    }
}

/// Fills the `engine.*` counts and shares from a traced trial's counters.
/// `engine.mb_share` sums micro-batch time over workers, so it exceeds 1
/// when they overlap.
pub fn engine_rows(engine: &EngineStats, trial_wall_s: f64, report: &mut LayerReport) {
    report.set("engine.hit_ratio", engine.hit_rate());
    report.set("engine.micro_batches", engine.micro_batches as f64);
    report.set("engine.busy_share", engine.wall_s / trial_wall_s);
    if engine.wall_s > 0.0 {
        report.set("engine.mb_share", engine.micro_batch_wall_s / engine.wall_s);
    }
}

/// Threads the machine offers the program, as the engine sizes its fan-out.
pub fn machine_threads() -> usize {
    EngineConfig::default().effective_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_follows_the_config() {
        let cfg = TlpConfig::default();
        // 25×22 features, hidden 48, 2 residual blocks: ≈1.27 MFLOP.
        assert_eq!(flop_per_candidate(&cfg), 1_268_400.0);
        let wide = TlpConfig {
            hidden: 96,
            ..cfg.clone()
        };
        assert!(flop_per_candidate(&wide) > 3.0 * flop_per_candidate(&cfg));
    }
}
