//! The chaos harness: drives tuning under injected faults and asserts the
//! robustness contract end to end.
//!
//! Contract (see DESIGN.md §8):
//! - **No panics, no stalls**: tuning at fault rates up to 0.2 completes
//!   every round; whole-batch failures are skipped, not fatal.
//! - **Bounded degradation**: injected faults may cost measurement budget
//!   but only boundedly degrade the tuning objective.
//! - **Rate 0 is free**: a zero-rate fault model is bit-identical to the
//!   fault-free path — same best latencies, same records, same accounting.
//! - **Serving degrades, never aborts**: a request the server answers with
//!   an error becomes an all-invalid batch the tuner ranks last
//!   (`crates/serve/tests/serving.rs`, `remote_cost_model_degrades_on_*`).

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use tlp_autotuner::{tune_network, EvolutionConfig, RandomModel, TuningOptions, TuningReport};
use tlp_hwsim::{FaultModel, FaultRates, InjectedFault, Platform};
use tlp_workload::bert_tiny;

// ---------------------------------------------------------------- tuning --

fn tuning_opts(rate: f64) -> TuningOptions {
    TuningOptions {
        rounds: 10,
        programs_per_round: 4,
        evolution: EvolutionConfig {
            population: 16,
            generations: 1,
            ..EvolutionConfig::default()
        },
        seed: 77,
        faults: FaultRates::uniform(rate),
    }
}

fn run_tuning(rate: f64) -> TuningReport {
    let net = bert_tiny(1, 64);
    let mut model = RandomModel::new(5);
    tune_network(&net, &Platform::i7_10510u(), &mut model, &tuning_opts(rate))
}

#[test]
fn tuning_completes_all_rounds_and_degrades_boundedly_under_faults() {
    let clean = run_tuning(0.0);
    assert_eq!(clean.rounds.len(), 10);
    assert_eq!(clean.failures.total(), 0);

    for rate in [0.05, 0.2] {
        let faulty = run_tuning(rate);
        // Skip-and-continue: every round ran, however sick the hardware.
        assert_eq!(faulty.rounds.len(), 10, "rate {rate}: rounds completed");
        // Every task still ended with a real measurement.
        for (i, &best) in faulty.best_per_task.iter().enumerate() {
            assert!(best.is_finite(), "rate {rate}: task {i} never measured");
        }
        // Failed records are labelled, successful ones are not.
        for (_, rec) in &faulty.records {
            assert_eq!(rec.latency_s.is_finite(), rec.is_ok());
        }
        // Bounded quality degradation: faults cost measurement budget, they
        // must not wreck the tuning objective.
        assert!(
            faulty.final_latency_s() <= clean.final_latency_s() * 3.0,
            "rate {rate}: degraded {} vs clean {}",
            faulty.final_latency_s(),
            clean.final_latency_s()
        );
    }

    // At rate 0.2 the deterministic fault schedule injects real trouble —
    // the accounting must show it.
    let stressed = run_tuning(0.2);
    assert!(stressed.failures.total() > 0, "faults were injected");
    assert!(stressed.retries > 0, "transient faults were retried");
}

#[test]
fn zero_rate_tuning_is_bit_identical_and_fault_free() {
    let a = run_tuning(0.0);
    let b = run_tuning(0.0);
    // Bit-identical outcome (search_time_s includes real wall-clock, so the
    // comparison covers everything *but* that field).
    assert_eq!(a.best_per_task, b.best_per_task);
    assert_eq!(a.records, b.records);
    assert_eq!(a.measurements, b.measurements);
    let lat = |r: &TuningReport| {
        r.rounds
            .iter()
            .map(|x| x.workload_latency_s.to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(lat(&a), lat(&b));
    // Rate 0 touches none of the fault machinery.
    assert_eq!(a.measurements_failed, 0);
    assert_eq!(a.retries, 0);
    assert_eq!(a.failed_rounds, 0);
    assert!(a.records.iter().all(|(_, r)| r.is_ok()));
}

#[test]
fn faulty_tuning_is_deterministic() {
    let a = run_tuning(0.2);
    let b = run_tuning(0.2);
    assert_eq!(a.records, b.records);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.best_per_task, b.best_per_task);
}

// ------------------------------------------------------------ properties --

proptest! {
    /// Same seed + same rates → the exact same fault schedule, for any
    /// fingerprint stream. (Bit-reproducible chaos.)
    #[test]
    fn fault_schedule_is_a_pure_function_of_seed_and_rates(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.5,
        fps in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let draw_all = |mut m: FaultModel| {
            fps.iter()
                .map(|&fp| (0..3).map(|a| m.draw(fp, a)).collect::<Vec<InjectedFault>>())
                .collect::<Vec<_>>()
        };
        let rates = FaultRates::uniform(rate);
        prop_assert_eq!(
            draw_all(FaultModel::new(seed, rates)),
            draw_all(FaultModel::new(seed, rates))
        );
    }

    /// All-zero rates are inert for every seed: no faults drawn, no sample
    /// perturbation, no poisoning state accumulated.
    #[test]
    fn zero_rates_are_inert_for_any_seed(
        seed in 0u64..u64::MAX,
        fps in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let mut m = FaultModel::new(seed, FaultRates::ZERO);
        prop_assert!(m.is_inert());
        for &fp in &fps {
            for a in 0..3u32 {
                prop_assert_eq!(m.draw(fp, a), InjectedFault::None);
                prop_assert_eq!(m.sample_factor(fp, a, 0).to_bits(), 1.0f64.to_bits());
            }
        }
        prop_assert_eq!(m.poisoned_remaining(), 0);
    }
}
