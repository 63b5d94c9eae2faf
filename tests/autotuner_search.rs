//! Search-framework integration tests: dedup, exploration, the task
//! scheduler, and the online baseline inside the tuner.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use tlp::search::AnsorCostModel;
use tlp_autotuner::{
    tune_network, EvolutionConfig, RandomModel, SearchTask, Searcher, SketchPolicy, TuningOptions,
};
use tlp_hwsim::Platform;
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

#[test]
fn tuner_never_measures_the_same_program_twice_per_task() {
    let net = bert_tiny(1, 64);
    let platform = Platform::i7_10510u();
    let mut model = RandomModel::new(9);
    let opts = TuningOptions {
        rounds: net.num_tasks() * 3,
        programs_per_round: 4,
        evolution: EvolutionConfig {
            population: 16,
            generations: 1,
            ..EvolutionConfig::default()
        },
        seed: 21,
        ..TuningOptions::default()
    };
    let report = tune_network(&net, &platform, &mut model, &opts);
    // Per task, fingerprints of measured schedules must be unique.
    let mut seen: Vec<HashSet<u64>> = vec![HashSet::new(); net.num_tasks()];
    for (task_idx, rec) in &report.records {
        assert!(
            seen[*task_idx].insert(rec.schedule.fingerprint()),
            "task {task_idx} re-measured a schedule"
        );
    }
}

#[test]
fn epsilon_zero_returns_model_ranked_candidates() {
    let task = dense_task();
    let mut rng = SmallRng::seed_from_u64(4);
    let config = EvolutionConfig {
        population: 24,
        generations: 1,
        epsilon: 0.0,
        ..EvolutionConfig::default()
    };
    let model = RandomModel::new(2);
    let outcome = Searcher::new(&task, &SketchPolicy::cpu(), &model, &config).run(6, &mut rng);
    assert_eq!(outcome.candidates.len(), 6);
    // Without a draft every scored candidate went through the full model.
    assert_eq!(outcome.stats.full_scored, 24 * 2);
    assert_eq!(outcome.stats.draft_scored, 0);
}

#[test]
fn task_scheduler_prioritizes_heavy_tasks_after_seeding() {
    let net = bert_tiny(1, 128);
    let platform = Platform::i7_10510u();
    let mut model = RandomModel::new(3);
    let n = net.num_tasks();
    let opts = TuningOptions {
        rounds: n * 3,
        programs_per_round: 2,
        evolution: EvolutionConfig {
            population: 8,
            generations: 1,
            ..EvolutionConfig::default()
        },
        seed: 5,
        ..TuningOptions::default()
    };
    let report = tune_network(&net, &platform, &mut model, &opts);
    // Seeding phase: rounds 1..=n touch tasks 0..n in order.
    for (i, r) in report.rounds.iter().take(n).enumerate() {
        assert_eq!(r.task_index, i);
    }
    // After seeding, the scheduler should concentrate on the highest
    // weighted-latency tasks, not round-robin blindly: at least one task is
    // revisited more than once.
    let mut counts = vec![0usize; n];
    for r in report.rounds.iter().skip(n) {
        counts[r.task_index] += 1;
    }
    assert!(counts.iter().any(|&c| c >= 2), "counts {counts:?}");
}

#[test]
fn ansor_online_model_improves_search_over_random() {
    // With enough rounds on one subgraph, learning from measurements should
    // find an equal-or-better schedule than blind random search at equal
    // measurement budget.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 512,
            n: 512,
            k: 512,
        },
    );
    let platform = Platform::e5_2673();
    let mut net = tlp_workload::Network {
        name: "single-task".into(),
        instances: vec![tlp_workload::SubgraphInstance {
            subgraph: sg,
            weight: 1,
        }],
    };
    let opts = TuningOptions {
        rounds: 12,
        programs_per_round: 8,
        evolution: EvolutionConfig {
            population: 32,
            generations: 2,
            epsilon: 0.1,
            ..EvolutionConfig::default()
        },
        seed: 31,
        ..TuningOptions::default()
    };
    let mut ansor = AnsorCostModel::new();
    let ansor_report = tune_network(&net, &platform, &mut ansor, &opts);
    let mut random = RandomModel::new(17);
    let random_report = tune_network(&net, &platform, &mut random, &opts);
    net.name.clear(); // silence unused-mut lint paranoia
    assert!(
        ansor_report.final_latency_s() <= random_report.final_latency_s() * 1.1,
        "ansor {} vs random {}",
        ansor_report.final_latency_s(),
        random_report.final_latency_s()
    );
    assert!(
        ansor.num_records() > 0,
        "online model absorbed measurements"
    );
}
