//! Chaos degradation curve: tuning quality and measurement overhead as a
//! function of the injected hardware fault rate (ISSUE 5 acceptance).
//!
//! For each fault rate the same network is tuned with the same seed; only
//! the deterministic [`FaultModel`](tlp_hwsim::FaultModel) rates differ.
//! The table reports the tuning objective (final weighted workload
//! latency), its degradation versus the fault-free arm, and the price paid
//! in measurement budget: failed measurements, retries, per-class fault
//! events, and total search time (timeouts and retry backoff are charged to
//! the simulated clock, so overhead is visible even though faults are
//! injected, not real).
//!
//! Run with `cargo bench -p tlp-bench --bench chaos_degradation`.
//! Writes `BENCH_chaos.json`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp_autotuner::{
    tune_network, EvolutionConfig, RandomModel, SpecConfig, TuningOptions, TuningReport,
};
use tlp_bench::{print_table, write_json};
use tlp_hwsim::{FaultRates, Platform};
use tlp_workload::bert_tiny;

#[derive(Serialize)]
struct ChaosRow {
    fault_rate: f64,
    final_latency_ms: f64,
    degradation_pct: f64,
    measurements: u64,
    measurements_failed: u64,
    retries: u64,
    fault_events: u64,
    build_errors: u64,
    timeouts: u64,
    device_resets: u64,
    outliers: u64,
    failed_rounds: u64,
    search_time_s: f64,
    overhead_pct: f64,
}

fn tune_at(rate: f64) -> TuningReport {
    let net = bert_tiny(1, 64);
    let mut model = RandomModel::new(5);
    let opts = TuningOptions {
        rounds: 16,
        programs_per_round: 4,
        evolution: EvolutionConfig {
            population: 24,
            generations: 1,
            // The score-everything reference: BENCH_chaos.json tracks
            // fault handling, not the draft.
            speculative: SpecConfig::keeping(1.0),
            ..EvolutionConfig::default()
        },
        seed: 0xC4A0,
        faults: FaultRates::uniform(rate),
    };
    tune_network(&net, &Platform::i7_10510u(), &mut model, &opts)
}

fn main() {
    let rates = [0.0, 0.05, 0.1, 0.2];
    let reports: Vec<(f64, TuningReport)> = rates.iter().map(|&r| (r, tune_at(r))).collect();
    let baseline_latency = reports[0].1.final_latency_s();
    let baseline_time = reports[0].1.total_search_time_s();

    let rows: Vec<ChaosRow> = reports
        .iter()
        .map(|(rate, rep)| {
            let latency = rep.final_latency_s();
            assert!(latency.is_finite(), "rate {rate}: tuning found no schedule");
            ChaosRow {
                fault_rate: *rate,
                final_latency_ms: latency * 1e3,
                degradation_pct: (latency / baseline_latency - 1.0) * 100.0,
                measurements: rep.measurements,
                measurements_failed: rep.measurements_failed,
                retries: rep.retries,
                fault_events: rep.failures.total(),
                build_errors: rep.failures.build,
                timeouts: rep.failures.timeout,
                device_resets: rep.failures.device_reset,
                outliers: rep.failures.outlier,
                failed_rounds: rep.failed_rounds,
                search_time_s: rep.total_search_time_s(),
                overhead_pct: (rep.total_search_time_s() / baseline_time.max(1e-9) - 1.0) * 100.0,
            }
        })
        .collect();

    print_table(
        "tuning degradation vs injected fault rate",
        &[
            "rate",
            "final ms",
            "degrade %",
            "measured",
            "failed",
            "retries",
            "events",
            "bad rounds",
            "search s",
            "overhead %",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.fault_rate),
                    format!("{:.4}", r.final_latency_ms),
                    format!("{:+.1}%", r.degradation_pct),
                    r.measurements.to_string(),
                    r.measurements_failed.to_string(),
                    r.retries.to_string(),
                    r.fault_events.to_string(),
                    r.failed_rounds.to_string(),
                    format!("{:.1}", r.search_time_s),
                    format!("{:+.1}%", r.overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );

    write_json("BENCH_chaos", &rows);
}
