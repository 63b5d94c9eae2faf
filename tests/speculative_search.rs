//! Draft-then-verify search properties: `draft_keep: 1.0` is the
//! score-everything search, full-model savings are monotone in `draft_keep`,
//! the candidate stream never depends on the draft, and results do not
//! depend on how the full model batches or caches.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp::engine::EngineConfig;
use tlp::search::TlpScorer;
use tlp::{FeatureExtractor, FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{
    tune_network, tune_network_with_draft, DraftScorer, EvolutionConfig, RandomModel, SearchTask,
    Searcher, SketchPolicy, SpecConfig, TuningOptions, TuningReport,
};
use tlp_hwsim::Platform;
use tlp_schedule::Vocabulary;
use tlp_workload::{bert_tiny, AnchorOp, Subgraph};

fn dense_task() -> SearchTask {
    SearchTask::new(
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 256,
                n: 256,
                k: 256,
            },
        ),
        Platform::i7_10510u(),
    )
}

fn opts(spec: SpecConfig) -> TuningOptions {
    TuningOptions {
        rounds: 9,
        programs_per_round: 4,
        evolution: EvolutionConfig {
            population: 16,
            generations: 2,
            speculative: spec,
            ..EvolutionConfig::default()
        },
        seed: 0xD1CE,
        ..TuningOptions::default()
    }
}

/// Everything observable about a tuning run except the knobs themselves
/// (the `evolution` field necessarily differs between compared arms) and
/// `search_time_s` (which charges real wall-clock time and is therefore
/// never bit-stable across runs).
fn outcome_fingerprint(r: &TuningReport) -> String {
    let rounds: Vec<_> = r
        .rounds
        .iter()
        .map(|l| {
            (
                l.round,
                l.task_index,
                (l.workload_latency_s, l.seeded),
                l.stats,
            )
        })
        .collect();
    let parts = [
        serde_json::to_string(&rounds),
        serde_json::to_string(&r.best_per_task),
        serde_json::to_string(&r.measurements),
        serde_json::to_string(&r.records),
        serde_json::to_string(&r.search),
    ];
    parts
        .into_iter()
        .map(|p| p.expect("report serializes"))
        .collect::<Vec<_>>()
        .join("|")
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |d, b| {
        (d ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn full_keep_is_the_score_everything_search_and_trains_no_head() {
    // `draft_keep >= 1.0` reproduces the search that never drafted: the
    // digest was captured from the off switch at the last commit that
    // had an off switch. The lent scorer comes back without a head.
    let net = bert_tiny(1, 64);
    let platform = Platform::i7_10510u();
    let mut model = RandomModel::new(8);
    let mut draft = DraftScorer::default();
    let full_keep = tune_network_with_draft(
        &net,
        &platform,
        &mut model,
        &opts(SpecConfig::keeping(1.0)),
        &mut draft,
    );
    let digest = fnv(&outcome_fingerprint(&full_keep));
    assert_eq!(digest, 0x2598_642f_4944_91fa, "got {digest:#x}");
    assert_eq!(full_keep.search.draft_scored, 0);
    assert_eq!(full_keep.search.draft_checked, 0);
    assert_eq!(full_keep.search.full_scored, 9 * 16 * 3);
    assert_eq!(
        draft.updates(),
        0,
        "a head no ranking consults is not trained"
    );
}

#[test]
fn the_default_is_the_single_cause_of_the_sysbench_gate_rebaseline() {
    // `scripts/sysbench-gate.sh` runs `tune_search --smoke --seed 1`: 12
    // rounds of default options on BERT-tiny. Its `search.full_scored`
    // literal moved 7680 -> 3840 with the default; at full keep the same
    // configuration still counts what the gate counted before. (Counts do
    // not depend on the model: each task's first round scores two warm-up
    // pools whole, 2·128 + 2·32 + 64, every later round 4·32 + 64.)
    let net = bert_tiny(1, 128);
    let platform = Platform::i7_10510u();
    let tune = |speculative: SpecConfig| {
        let options = TuningOptions {
            rounds: 12,
            seed: 1,
            evolution: EvolutionConfig {
                speculative,
                ..EvolutionConfig::default()
            },
            ..TuningOptions::default()
        };
        tune_network(&net, &platform, &mut RandomModel::new(1), &options)
    };
    let counts = |report: &TuningReport| {
        let s = report.search;
        (s.generated, s.pruned, s.full_scored)
    };
    assert_eq!(counts(&tune(SpecConfig::keeping(1.0))), (6168, 0, 7680));
    let default = tune(SpecConfig::default());
    assert_eq!(counts(&default), (6168, 0, 8 * 384 + 4 * 192));
    // The gate script compares the benchmark's result digest with an oracle
    // the same binary computes, so a change that shifts the search's RNG
    // stream on both sides passes it. This literal is the absolute outcome
    // of that configuration, captured at the commit before candidate
    // generation moved to the compiled sketch.
    let digest = fnv(&outcome_fingerprint(&default));
    assert_eq!(digest, 0x5bd0_3e57_3bf7_ad9e, "got {digest:#x}");
}

#[test]
fn drafted_tuning_does_not_depend_on_engine_batching_or_caching() {
    // The system benchmark's oracle: default options through a parallel,
    // cached engine and through a sequential, uncached one find the same
    // schedules. Per-candidate score bits are the engine's contract; which
    // candidates the full model is asked about must not break it.
    let net = bert_tiny(1, 128);
    let platform = Platform::i7_10510u();
    let options = TuningOptions {
        rounds: 2 * net.num_tasks(),
        seed: 3,
        ..TuningOptions::default()
    };
    let run = |engine: EngineConfig| {
        let cfg = TlpConfig::default();
        let scorer = TlpScorer {
            model: TlpModel::new(cfg.clone()),
            extractor: FeatureExtractor::with_vocab(
                Vocabulary::builder().build(),
                cfg.seq_len,
                cfg.emb_size,
            ),
        };
        let mut model = FeatureModel::with_engine(scorer, engine);
        outcome_fingerprint(&tune_network(&net, &platform, &mut model, &options))
    };
    let cached = run(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    assert!(cached.contains("\"draft_scored\":"));
    assert_eq!(cached, run(EngineConfig::sequential_uncached()));
}

#[test]
fn lower_draft_keep_never_increases_full_model_scoring() {
    // The whole point of drafting: full-model invocations are monotone
    // non-increasing in `draft_keep`, while the candidate stream (which
    // speculation must not perturb) stays identical.
    let task = dense_task();
    let policy = SketchPolicy::cpu();
    let mut prev_full = u64::MAX;
    let mut generated = None;
    for keep in [1.0, 0.5, 0.25, 0.1] {
        let config = EvolutionConfig {
            population: 32,
            generations: 3,
            speculative: SpecConfig {
                draft_keep: keep,
                warmup_full_generations: 0,
            },
            ..EvolutionConfig::default()
        };
        let model = RandomModel::new(7);
        let mut draft = DraftScorer::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let outcome = Searcher::new(&task, &policy, &model, &config)
            .with_draft(&mut draft)
            .run(8, &mut rng);
        assert!(
            outcome.stats.full_scored <= prev_full,
            "keep {keep}: {} full scores after {prev_full}",
            outcome.stats.full_scored
        );
        prev_full = outcome.stats.full_scored;
        // Drafting must not change what gets generated.
        let g = *generated.get_or_insert(outcome.stats.generated);
        assert_eq!(outcome.stats.generated, g, "keep {keep} perturbed the RNG");
    }
    // The extremes actually differ (the loop exercised speculation).
    assert!(prev_full < 32 * 4 / 2);
}

#[test]
fn speculative_tuning_cuts_full_scoring_and_reports_acceptance() {
    let net = bert_tiny(1, 64);
    let platform = Platform::i7_10510u();

    let mut model = RandomModel::new(4);
    let baseline = tune_network(&net, &platform, &mut model, &opts(SpecConfig::keeping(1.0)));

    let mut model = RandomModel::new(4);
    let spec = tune_network(
        &net,
        &platform,
        &mut model,
        // Warm-up is per task, and at 9 rounds over 7 tasks nearly every
        // round is a task's first visit — zero it so the accounting below
        // measures speculation, not warm-up.
        &opts(SpecConfig {
            draft_keep: 0.25,
            warmup_full_generations: 0,
        }),
    );

    // Same candidate stream, far fewer full-model scores. With keep = 0.25
    // generation rankings cut 4x and the final ranking (verifying twice the
    // fraction) 2x, so assert the 2x floor.
    assert_eq!(baseline.search.generated, spec.search.generated);
    assert!(
        spec.search.full_scored * 2 <= baseline.search.full_scored,
        "spec {} vs baseline {} full scores",
        spec.search.full_scored,
        baseline.search.full_scored
    );
    assert!(spec.search.draft_scored > 0);
    assert!(spec.search.draft_checked > 0);
    let acc = spec.search.draft_acceptance();
    assert!((0.0..=1.0).contains(&acc), "acceptance {acc}");
    // Per-round acceptance is populated once the head is warmed up.
    assert!(
        spec.rounds
            .iter()
            .skip(2)
            .any(|r| r.stats.draft_checked > 0),
        "no round ever speculated"
    );
    // Measured quality is tracked either way; both runs finish seeded.
    assert!(baseline.final_latency_s().is_finite());
    assert!(spec.final_latency_s().is_finite());
}

#[test]
fn shared_draft_scorer_is_deterministic_across_runs() {
    // Two fresh scorers fed the identical tuning run end bit-identical:
    // same distilled-batch count and same report, so speculation adds no
    // hidden nondeterminism on top of the seeded RNG.
    let net = bert_tiny(1, 64);
    let platform = Platform::i7_10510u();
    let run = || {
        let mut model = RandomModel::new(6);
        let mut draft = DraftScorer::default();
        let report = tune_network_with_draft(
            &net,
            &platform,
            &mut model,
            &opts(SpecConfig::keeping(0.25)),
            &mut draft,
        );
        (outcome_fingerprint(&report), draft.updates())
    };
    let (fp_a, updates_a) = run();
    let (fp_b, updates_b) = run();
    assert_eq!(fp_a, fp_b);
    assert_eq!(updates_a, updates_b);
    assert!(updates_a > 0, "tuning must have distilled the draft head");
}
