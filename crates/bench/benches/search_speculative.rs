//! Draft-then-verify search quality at equal *rounds*: the default
//! configuration (the draft head ranks every pool, the full model verifies
//! a quarter) against the `draft_keep: 1.0` score-everything reference.
//!
//! Both arms tune the five test networks for six rounds per task with
//! Ansor's online GBDT as the full model — meaningful scores that evolve
//! during the run, like the TLP model's, while keeping the bench fast —
//! over the same seeds. Nothing here reads a clock: final weighted latency
//! comes from the hardware simulator and full-model passes are counted, so
//! every number in `BENCH_search.json` repeats exactly and CI gates on them.
//!
//! The decision rule, fixed before the matrix was run: the pooled
//! geometric-mean latency ratio (default / reference) is at most
//! [`POOLED_MAX`] **and** no network's is above [`NETWORK_MAX`].
//!
//! Run with `cargo bench -p tlp-bench --bench search_speculative`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::search::AnsorCostModel;
use tlp_autotuner::{
    tune_network, CostModel, EvolutionConfig, SpecConfig, TuningOptions, TuningReport,
};
use tlp_bench::{print_table, write_json};
use tlp_hwsim::Platform;
use tlp_workload::{test_networks, Network};

const SEEDS: std::ops::Range<u64> = 0x5EED0..0x5EEDC;
const ROUNDS_PER_TASK: usize = 6;
const POOLED_MAX: f64 = 1.02;
const NETWORK_MAX: f64 = 1.05;

#[derive(Serialize)]
struct SeedRow {
    seed: u64,
    reference_final_latency_ms: f64,
    default_final_latency_ms: f64,
    /// `default / reference`; ≤ 1 means drafting matched or beat the
    /// fully-scored search in the same number of rounds.
    latency_ratio: f64,
    draft_acceptance: f64,
}

#[derive(Serialize)]
struct NetworkRows {
    network: String,
    tasks: usize,
    rounds: usize,
    /// Full-model forward passes per round, exact (equal across seeds).
    reference_full_per_round: f64,
    default_full_per_round: f64,
    latency_ratio_geomean: f64,
    rows: Vec<SeedRow>,
}

#[derive(Serialize)]
struct Results {
    platform: String,
    model: String,
    rounds_per_task: usize,
    /// The default arm's knobs; the reference differs in `draft_keep: 1.0`.
    evolution: EvolutionConfig,
    draft_features: String,
    networks: Vec<NetworkRows>,
    pooled_latency_ratio_geomean: f64,
    pooled_max: f64,
    network_max: f64,
    rule_holds: bool,
}

fn tune(net: &Network, seed: u64, evolution: EvolutionConfig) -> TuningReport {
    let opts = TuningOptions {
        rounds: net.num_tasks() * ROUNDS_PER_TASK,
        seed,
        evolution,
        ..TuningOptions::default()
    };
    tune_network(
        net,
        &Platform::i7_10510u(),
        &mut AnsorCostModel::new(),
        &opts,
    )
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0), |(s, n), r| (s + r.ln(), n + 1));
    (sum / n as f64).exp()
}

/// Full passes per round of a run, asserted equal across the seeds of one
/// arm: the count depends on the round schedule, not on what was found.
fn full_per_round(reports: &[TuningReport]) -> f64 {
    let per = |r: &TuningReport| r.search.full_scored as f64 / r.rounds.len() as f64;
    let first = per(&reports[0]);
    assert!(
        reports.iter().all(|r| per(r) == first),
        "full passes per round differ between seeds"
    );
    first
}

fn main() {
    let reference = EvolutionConfig {
        speculative: SpecConfig::keeping(1.0),
        ..EvolutionConfig::default()
    };
    let mut networks = Vec::new();
    for net in test_networks() {
        let (references, defaults): (Vec<_>, Vec<_>) = SEEDS
            .map(|seed| {
                (
                    tune(&net, seed, reference),
                    tune(&net, seed, EvolutionConfig::default()),
                )
            })
            .unzip();
        let rows: Vec<SeedRow> = SEEDS
            .zip(references.iter().zip(&defaults))
            .map(|(seed, (r, d))| SeedRow {
                seed,
                reference_final_latency_ms: r.final_latency_s() * 1e3,
                default_final_latency_ms: d.final_latency_s() * 1e3,
                latency_ratio: d.final_latency_s() / r.final_latency_s(),
                draft_acceptance: d.search.draft_acceptance(),
            })
            .collect();
        eprintln!("[search_speculative] {} done", net.name);
        networks.push(NetworkRows {
            network: net.name.clone(),
            tasks: net.num_tasks(),
            rounds: net.num_tasks() * ROUNDS_PER_TASK,
            reference_full_per_round: full_per_round(&references),
            default_full_per_round: full_per_round(&defaults),
            latency_ratio_geomean: geomean(rows.iter().map(|r| r.latency_ratio)),
            rows,
        });
    }

    let ratios = |n: &NetworkRows| -> Vec<f64> { n.rows.iter().map(|r| r.latency_ratio).collect() };
    print_table(
        "draft-then-verify (default) vs score-everything (draft_keep 1.0) at equal rounds",
        &[
            "network",
            "tasks",
            "rounds",
            "full/rnd ref",
            "full/rnd default",
            "ratio geomean",
            "ratio min",
            "ratio max",
            "acceptance",
        ],
        &networks
            .iter()
            .map(|n| {
                let r = ratios(n);
                vec![
                    n.network.clone(),
                    n.tasks.to_string(),
                    n.rounds.to_string(),
                    format!("{:.0}", n.reference_full_per_round),
                    format!("{:.0}", n.default_full_per_round),
                    format!("{:.3}", n.latency_ratio_geomean),
                    format!("{:.3}", r.iter().copied().fold(f64::INFINITY, f64::min)),
                    format!("{:.3}", r.iter().copied().fold(0.0, f64::max)),
                    format!(
                        "{:.1}%",
                        100.0 * n.rows.iter().map(|r| r.draft_acceptance).sum::<f64>()
                            / n.rows.len() as f64
                    ),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let pooled = geomean(networks.iter().flat_map(ratios));
    let rule_holds = pooled <= POOLED_MAX
        && networks
            .iter()
            .all(|n| n.latency_ratio_geomean <= NETWORK_MAX);
    println!(
        "\npooled latency ratio geomean {pooled:.4} (rule: pooled <= {POOLED_MAX}, every network <= {NETWORK_MAX}): {}",
        if rule_holds { "holds" } else { "NOT MET" }
    );

    write_json(
        "BENCH_search",
        &Results {
            platform: Platform::i7_10510u().name.clone(),
            model: AnsorCostModel::new().name().to_string(),
            rounds_per_task: ROUNDS_PER_TASK,
            evolution: EvolutionConfig::default(),
            draft_features: "schedule-stats".to_string(),
            networks,
            pooled_latency_ratio_geomean: pooled,
            pooled_max: POOLED_MAX,
            network_max: NETWORK_MAX,
            rule_holds,
        },
    );
}
