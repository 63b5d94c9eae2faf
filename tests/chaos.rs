//! The chaos harness: drives tuning, serving, and training under injected
//! faults and asserts the robustness contract end to end.
//!
//! Contract (see DESIGN.md §8):
//! - **No panics, no stalls**: tuning at fault rates up to 0.2 completes
//!   every round; whole-batch failures are skipped, not fatal.
//! - **Bounded degradation**: injected faults may cost measurement budget
//!   but only boundedly degrade the tuning objective.
//! - **Rate 0 is free**: a zero-rate fault model is bit-identical to the
//!   fault-free path — same best latencies, same records, same accounting.
//! - **Serving self-heals**: the client circuit breaker trips while the
//!   server is sick, serves fallback scores, and recovers via a half-open
//!   probe once the server is healthy.
//! - **Training is crash-safe**: a checkpointed run interrupted mid-way and
//!   resumed in a fresh process finishes bitwise-identical to an
//!   uninterrupted one.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use tlp::features::FeatureExtractor;
use tlp::train::{resume_tlp, train_tlp_checkpointed, train_tlp_with, GroupData, TrainData};
use tlp::{TlpConfig, TlpModel, TrainOptions};
use tlp_autotuner::{
    tune_network, Candidate, CostModel, EvolutionConfig, RandomModel, ScoreRequest, SearchTask,
    SketchPolicy, TuningOptions, TuningReport,
};
use tlp_hwsim::{FaultModel, FaultRates, InjectedFault, Platform};
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{
    BreakerConfig, BreakerState, CircuitBreaker, FlakyTransport, ModelRegistry, RemoteCostModel,
    RetryPolicy, ServeConfig, Server,
};
use tlp_workload::{bert_tiny, AnchorOp, Subgraph};

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
        nominal_pool: 10_000,
        seed: 77,
        faults: FaultRates::uniform(rate),
        ..TuningOptions::default()
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

// --------------------------------------------------------------- serving --

fn serve_task() -> SearchTask {
    SearchTask::new(
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 128,
                n: 128,
                k: 128,
            },
        ),
        Platform::i7_10510u(),
    )
}

fn serve_candidates(n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = serve_task();
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &t.subgraph, &mut rng).sequence)
        .collect()
}

#[test]
fn breaker_trips_under_server_faults_and_recovers_when_healthy() {
    let cfg = TlpConfig {
        seed: 3,
        ..TlpConfig::test_scale()
    };
    let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    let registry = Arc::new(ModelRegistry::new(tlp::engine::EngineConfig::default()));
    registry
        .install_tlp("m", TlpModel::new(cfg), ex)
        .expect("fresh model passes audit");
    let server = Server::start(registry, ServeConfig::default());

    let remote = RemoteCostModel::new(FlakyTransport::new(server.client(), 99, 0.0), "m")
        .with_retry(RetryPolicy { max_retries: 0 })
        .with_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown_calls: 4,
        });
    let t = serve_task();
    let cands = serve_candidates(6, 1);

    // Healthy: real scores, breaker closed.
    let healthy = remote.predict(ScoreRequest::new(&t, &cands));
    assert_eq!(healthy.len(), cands.len());
    assert!(healthy.valid.iter().all(|&v| v));
    assert_eq!(remote.breaker_state(), BreakerState::Closed);

    // Server wedged: consecutive transient failures trip the breaker.
    remote.transport().set_fail_rate(1.0);
    for _ in 0..3 {
        let b = remote.predict(ScoreRequest::new(&t, &cands));
        assert_eq!(b.len(), cands.len(), "failure still yields a batch");
    }
    assert_eq!(remote.breaker_state(), BreakerState::Open);

    // Open breaker short-circuits: fallback scores, no transport traffic.
    let calls_before = remote.transport().calls();
    let masked = remote.predict(ScoreRequest::new(&t, &cands));
    assert!(
        masked.valid.iter().all(|&v| !v),
        "fallback scores are masked"
    );
    assert_eq!(remote.transport().calls(), calls_before);
    assert!(remote.fallback_scores() > 0);

    // Server healthy again: after the cooldown a half-open probe goes
    // through, succeeds, and closes the breaker.
    remote.transport().set_fail_rate(0.0);
    let mut recovered = false;
    for _ in 0..12 {
        let _ = remote.predict(ScoreRequest::new(&t, &cands));
        if remote.breaker_state() == BreakerState::Closed {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "breaker recovered via half-open probe");
    let snap = remote.breaker_snapshot();
    assert!(snap.trips >= 1, "trip was counted");
    assert!(snap.recoveries >= 1, "recovery was counted");

    // The breaker snapshot is operator-grade serde data.
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    assert!(json.contains("\"trips\""));
    server.shutdown();
}

#[test]
fn half_open_concurrent_probes_settle_deterministically() {
    // The breaker admits *every* caller while half-open (it does not lock
    // the probe slot), so several threads' probes can be in flight at once.
    // The contract is last-writer-wins with consistent accounting: this
    // test walks the exact interleaving a concurrent race would produce.
    let mut b = CircuitBreaker::new(BreakerConfig {
        failure_threshold: 1,
        cooldown_calls: 2,
    });
    assert!(b.allow_request());
    b.on_failure();
    assert_eq!(b.state(), BreakerState::Open);

    // Cooldown elapses; three callers race into the half-open window.
    assert!(!b.allow_request());
    assert!(b.allow_request(), "first probe admitted");
    assert_eq!(b.state(), BreakerState::HalfOpen);
    assert!(b.allow_request(), "second concurrent probe admitted");
    assert!(b.allow_request(), "third concurrent probe admitted");
    assert_eq!(b.state(), BreakerState::HalfOpen, "probes don't re-trip");
    let trips_before = b.snapshot().trips;

    // Probe outcomes land out of order: a failure first (re-opens, one
    // trip), then a straggler success (closes — the endpoint answered, so
    // staying open would be wrong — but it is not counted as a half-open
    // recovery because the failure already re-opened the breaker).
    b.on_failure();
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.snapshot().trips, trips_before + 1);
    let recoveries_before = b.snapshot().recoveries;
    b.on_success();
    assert_eq!(b.state(), BreakerState::Closed);
    assert_eq!(b.snapshot().recoveries, recoveries_before);

    // The mirror ordering: success first (counted recovery), straggler
    // failure afterwards is one closed-state failure, not a trip.
    let mut b = CircuitBreaker::new(BreakerConfig {
        failure_threshold: 2,
        cooldown_calls: 1,
    });
    b.on_failure();
    b.on_failure();
    assert_eq!(b.state(), BreakerState::Open);
    assert!(b.allow_request());
    assert_eq!(b.state(), BreakerState::HalfOpen);
    assert!(b.allow_request());
    b.on_success();
    assert_eq!(b.state(), BreakerState::Closed);
    assert_eq!(b.snapshot().recoveries, 1);
    b.on_failure();
    assert_eq!(
        b.state(),
        BreakerState::Closed,
        "one straggler failure below the threshold must not re-trip"
    );
}

#[test]
fn breaker_recovery_racing_a_hot_swap_lands_on_the_new_version() {
    let mk = |seed| {
        let cfg = TlpConfig {
            seed,
            ..TlpConfig::test_scale()
        };
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        (TlpModel::new(cfg), ex)
    };
    let registry = Arc::new(ModelRegistry::new(tlp::engine::EngineConfig::default()));
    let (m1, e1) = mk(3);
    registry.install_tlp("m", m1, e1).expect("v1 passes audit");
    let server = Server::start(Arc::clone(&registry), ServeConfig::default());

    let remote = RemoteCostModel::new(FlakyTransport::new(server.client(), 41, 0.0), "m")
        .with_retry(RetryPolicy { max_retries: 0 })
        .with_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown_calls: 2,
        });
    let t = serve_task();
    let cands = serve_candidates(5, 2);
    let _ = remote.predict(ScoreRequest::new(&t, &cands));
    assert_eq!(remote.breaker_state(), BreakerState::Closed);

    // Trip the breaker, then hot-swap the model *while the breaker is
    // open* — the race a rolling deploy produces.
    remote.transport().set_fail_rate(1.0);
    for _ in 0..2 {
        let _ = remote.predict(ScoreRequest::new(&t, &cands));
    }
    assert_eq!(remote.breaker_state(), BreakerState::Open);
    let (m2, e2) = mk(4);
    let v2 = registry
        .install_tlp("m", m2, e2)
        .expect("v2 passes audit mid-outage");

    // Recovery: the half-open probe must land on v2 — never on a stale
    // resolve cached from before the trip.
    remote.transport().set_fail_rate(0.0);
    let mut recovered = false;
    for _ in 0..12 {
        let batch = remote.predict(ScoreRequest::new(&t, &cands));
        if remote.breaker_state() == BreakerState::Closed {
            assert!(batch.valid.iter().all(|&v| v), "probe scored for real");
            recovered = true;
            break;
        }
    }
    assert!(recovered, "breaker recovered after the swap");
    let reply = server
        .client()
        .score("m", &t, &cands)
        .expect("healthy server");
    assert_eq!(reply.model_version, v2, "post-recovery traffic is on v2");
    server.shutdown();
}

#[test]
fn graceful_drain_answers_every_admitted_job_while_breaker_is_tripped() {
    let cfg = TlpConfig {
        seed: 6,
        ..TlpConfig::test_scale()
    };
    let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    let registry = Arc::new(ModelRegistry::new(tlp::engine::EngineConfig::default()));
    registry
        .install_tlp("m", TlpModel::new(cfg), ex)
        .expect("fresh model passes audit");
    let server = Server::start(registry, ServeConfig::default());
    let t = serve_task();
    let cands = serve_candidates(3, 8);

    // Admit a pipeline of jobs, then trip a client-side breaker (its chaos
    // wrapper never reaches the server, so the server itself is healthy).
    let client = server.client();
    let pending: Vec<_> = (0..6)
        .map(|_| client.submit("m", &t, &cands, None).expect("admitted"))
        .collect();
    let remote = RemoteCostModel::new(FlakyTransport::new(server.client(), 17, 1.0), "m")
        .with_retry(RetryPolicy { max_retries: 0 })
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown_calls: 1000,
        });
    let _ = remote.predict(ScoreRequest::new(&t, &cands));
    assert_eq!(remote.breaker_state(), BreakerState::Open);

    // The open breaker keeps degrading without touching the draining
    // server, and the drain answers every admitted job with real scores.
    let masked = remote.predict(ScoreRequest::new(&t, &cands));
    assert!(masked.valid.iter().all(|&v| !v));
    let snap = server.shutdown();
    for (i, p) in pending.into_iter().enumerate() {
        let reply = p
            .wait()
            .unwrap_or_else(|e| panic!("job {i} lost in drain: {e}"));
        assert_eq!(reply.scores.len(), cands.len());
    }
    assert_eq!(snap.completed, 6, "all admitted jobs drained with scores");
    assert_eq!(snap.queue_depth, 0);
}

// -------------------------------------------------------------- training --

/// Deterministic synthetic task-grouped data (no dataset generation).
fn synth_data(cfg: &TlpConfig, groups: usize, per_group: usize, seed: u64) -> TrainData {
    let fs = cfg.seq_len * cfg.emb_size;
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let groups = (0..groups)
        .map(|_| {
            let mut features = Vec::with_capacity(per_group * fs);
            let mut labels = Vec::with_capacity(per_group);
            for _ in 0..per_group {
                for _ in 0..fs {
                    features.push(next() - 0.5);
                }
                labels.push(next().clamp(1e-3, 1.0));
            }
            GroupData { features, labels }
        })
        .collect();
    TrainData {
        feature_size: fs,
        groups,
    }
}

#[test]
fn interrupted_training_resumes_bit_identically() {
    let cfg = TlpConfig {
        epochs: 4,
        batch_size: 4,
        ..TlpConfig::test_scale()
    };
    let data = [synth_data(&cfg, 4, 8, 13)];
    let opts = TrainOptions::from_config(&cfg).with_seed(7).with_epochs(4);
    let path = std::env::temp_dir().join("tlp_chaos_resume.json");
    let _ = std::fs::remove_file(&path);

    let mut straight = TlpModel::new(cfg.clone());
    let straight_report = train_tlp_with(&mut straight, &data[0], &opts);

    // "Crash" after epoch 2 (only the checkpoint file survives), then
    // resume into a fresh model.
    let mut victim = TlpModel::new(cfg.clone());
    train_tlp_checkpointed(&mut victim, &data, &opts.clone().with_epochs(2), &path, 2);
    let mut resumed_model = TlpModel::new(cfg.clone());
    let resumed = resume_tlp(&mut resumed_model, &data, &opts, &path, 2).expect("resume");

    assert_eq!(straight_report.epoch_losses(), resumed.epoch_losses());
    // ParamStore has no PartialEq; its serde form is bit-faithful.
    assert_eq!(
        serde_json::to_string(&straight.store).expect("serialize"),
        serde_json::to_string(&resumed_model.store).expect("serialize"),
        "resumed parameters must be bitwise identical"
    );
    let _ = std::fs::remove_file(&path);
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
