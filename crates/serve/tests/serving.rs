//! Serving-layer integration suite: concurrent equivalence with the direct
//! engine path, hot-swap under load, version pinning, admission control,
//! deadlines, graceful shutdown, and the autotuner backend adapter.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tlp::engine::{EngineConfig, InferenceEngine};
use tlp::features::FeatureExtractor;
use tlp::search::TlpScorer;
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{
    tune_network, Candidate, CostModel, EvolutionConfig, ScoreRequest, SearchTask, SketchPolicy,
    TuningOptions,
};
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{
    BatchPolicy, ModelRegistry, PendingScore, RemoteCostModel, ServeConfig, ServeError, Server,
};
use tlp_workload::{bert_tiny, AnchorOp, Subgraph};

fn task() -> SearchTask {
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

fn candidates(n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = task();
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &t.subgraph, &mut rng).sequence)
        .collect()
}

fn scorer(seed: u64) -> (TlpModel, FeatureExtractor) {
    let cfg = TlpConfig {
        seed,
        ..TlpConfig::test_scale()
    };
    let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    (TlpModel::new(cfg), ex)
}

fn serving_registry(seed: u64) -> Arc<ModelRegistry> {
    let reg = Arc::new(ModelRegistry::new(EngineConfig::default()));
    let (model, ex) = scorer(seed);
    reg.install_tlp("m", model, ex).expect("valid model");
    reg
}

#[test]
fn concurrent_clients_match_direct_engine_bit_for_bit() {
    let t = task();
    let (model, ex) = scorer(7);
    // Direct path: private engine, single thread.
    let direct_engine = InferenceEngine::new(
        TlpScorer {
            model,
            extractor: ex,
        },
        EngineConfig::default(),
    );
    let server = Server::start(serving_registry(7), ServeConfig::default());

    const CLIENTS: usize = 8;
    let per_client: Vec<Vec<ScheduleSequence>> = (0..CLIENTS)
        .map(|c| candidates(12, 100 + c as u64))
        .collect();
    let expected: Vec<Vec<Option<f32>>> = per_client
        .iter()
        .map(|batch| direct_engine.score(&t, batch).0)
        .collect();

    let got: Vec<Vec<Option<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|batch| {
                let client = server.client();
                let t = &t;
                scope.spawn(move || client.score("m", t, batch).expect("score").scores)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, (exp, act)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(exp, act, "client {c} diverged from the direct engine");
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, CLIENTS as u64);
    assert_eq!(snap.queue_depth, 0);
}

#[test]
fn coalesced_jobs_share_engine_batches() {
    // One paused server accumulates jobs, then a long max_wait lets a
    // single batcher coalesce them: fewer engine batches than jobs.
    let server = Server::start(
        serving_registry(3),
        ServeConfig {
            queue_capacity: 64,
            batchers: 0,
            policy: BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_millis(50),
            },
        },
    );
    let t = task();
    let pool = candidates(4, 5);
    let client = server.client();
    let pending: Vec<_> = (0..6)
        .map(|_| client.submit("m", &t, &pool, None).expect("admit"))
        .collect();
    // No batchers ran; everything is still queued.
    assert_eq!(client.stats().queue_depth, 6);
    drop(server); // Drop = stop; leftover jobs answered ShuttingDown.
    for p in pending {
        assert_eq!(p.wait().err(), Some(ServeError::ShuttingDown));
    }
}

#[test]
fn queued_jobs_for_distinct_tasks_run_in_arrival_order() {
    // Three jobs that cannot coalesce (distinct tasks), one batcher. The long
    // `max_wait` holds the first job's batch open, so all three are queued
    // before any runs. The score cache is the order witness: with room for
    // one job's scores only the last job run stays cached, with room for two
    // the first job run is the one evicted.
    const N: usize = 6;
    let tasks: Vec<SearchTask> = [64, 96, 160]
        .into_iter()
        .map(|m| {
            SearchTask::new(
                Subgraph::new("d", AnchorOp::Dense { m, n: 64, k: 64 }),
                Platform::i7_10510u(),
            )
        })
        .collect();
    let pools: Vec<Vec<ScheduleSequence>> = tasks
        .iter()
        .map(|t| tlp_serve::random_pool(t, N, 61))
        .collect();
    for (cached_jobs, still_cached) in [(1, [false, false, true]), (2, [false, true, true])] {
        let reg = Arc::new(ModelRegistry::new(EngineConfig {
            cache_capacity: cached_jobs * N,
            ..EngineConfig::default()
        }));
        let (model, ex) = scorer(16);
        reg.install_tlp("m", model, ex).expect("valid model");
        let server = Server::start(
            Arc::clone(&reg),
            ServeConfig {
                batchers: 1,
                policy: BatchPolicy {
                    max_wait: Duration::from_millis(50),
                    ..BatchPolicy::default()
                },
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let pending: Vec<_> = tasks
            .iter()
            .zip(&pools)
            .map(|(t, pool)| client.submit("m", t, pool, None).expect("admit"))
            .collect();
        for p in pending {
            let reply = p.wait().expect("scored");
            assert_eq!(reply.batch_jobs, 1, "distinct tasks never share a batch");
        }
        assert_eq!(server.shutdown().batches, 3);
        let version = reg.resolve("m").expect("installed");
        let cached: Vec<bool> = tasks
            .iter()
            .zip(&pools)
            .map(|(t, pool)| {
                let keys = tlp::engine::ScoreKeys::new(t, pool);
                version.probe(&keys, &mut Vec::new()).is_some()
            })
            .collect();
        assert_eq!(cached, still_cached, "cache holds {cached_jobs} job(s)");
    }
}

#[test]
fn hot_swap_under_load_fails_zero_requests() {
    let reg = serving_registry(1);
    let server = Server::start(
        Arc::clone(&reg),
        ServeConfig {
            queue_capacity: 4096,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(10, 11);

    // Ground truth from both versions, computed on private engines.
    let truth = |seed: u64| {
        let (model, ex) = scorer(seed);
        let s = TlpScorer {
            model,
            extractor: ex,
        };
        InferenceEngine::new(s, EngineConfig::default())
            .score(&t, &pool)
            .0
    };
    let v1_scores = truth(1);
    let v2_scores = truth(2);
    assert_ne!(
        v1_scores, v2_scores,
        "seeds must give distinguishable models"
    );

    let stop = AtomicBool::new(false);
    let (oks, v2_seen) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let client = server.client();
                let (t, pool, stop) = (&t, &pool, &stop);
                let (v1, v2) = (&v1_scores, &v2_scores);
                scope.spawn(move || {
                    let mut oks = 0u64;
                    let mut saw_v2 = false;
                    while !stop.load(Ordering::Relaxed) {
                        let reply = client
                            .score("m", t, pool)
                            .expect("hot-swap broke a request");
                        // Every reply is exactly one of the two versions,
                        // never a mixture.
                        assert!(
                            reply.scores == *v1 || reply.scores == *v2,
                            "scores mixed across versions"
                        );
                        saw_v2 |= reply.scores == *v2;
                        oks += 1;
                    }
                    (oks, saw_v2)
                })
            })
            .collect();
        // Swap in the middle of the storm.
        std::thread::sleep(Duration::from_millis(20));
        let (m2, e2) = scorer(2);
        reg.install_tlp("m", m2, e2).expect("valid model");
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, false), |(a, b), (oks, saw)| (a + oks, b || saw))
    });
    assert!(oks > 0);
    // After the swap settles, new requests see the new version.
    let reply = server
        .client()
        .score("m", &t, &pool)
        .expect("post-swap score");
    assert_eq!(reply.scores, v2_scores);
    assert!(v2_seen || reply.scores == v2_scores);
    let snap = server.shutdown();
    assert_eq!(snap.expired, 0);
    assert_eq!(snap.rejected_overload, 0);
}

#[test]
fn overload_is_typed_bounded_and_immediate() {
    const CAPACITY: usize = 4;
    // Paused server (no batchers): the queue can only fill.
    let server = Server::start(
        serving_registry(9),
        ServeConfig {
            queue_capacity: CAPACITY,
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(2, 13);
    let client = server.client();
    let mut pending = Vec::new();
    for _ in 0..CAPACITY {
        pending.push(client.submit("m", &t, &pool, None).expect("under capacity"));
    }
    // Client K+1 is rejected instantly with the typed error — it never
    // blocks and never grows the queue.
    for _ in 0..3 {
        assert_eq!(
            client.submit("m", &t, &pool, None).err(),
            Some(ServeError::Overloaded { capacity: CAPACITY }),
        );
    }
    let snap = client.stats();
    assert_eq!(snap.queue_depth, CAPACITY, "rejected work must not enqueue");
    assert_eq!(snap.rejected_overload, 3);
    assert_eq!(snap.submitted, CAPACITY as u64);
    drop(server);
    for p in pending {
        assert!(p.wait().is_err());
    }
}

#[test]
fn unknown_model_fails_fast() {
    let server = Server::start(serving_registry(2), ServeConfig::default());
    let t = task();
    let pool = candidates(1, 17);
    assert_eq!(
        server.client().score("nope", &t, &pool).err(),
        Some(ServeError::UnknownModel("nope".to_string())),
    );
    assert_eq!(server.shutdown().unknown_model, 1);
}

#[test]
fn expired_deadline_is_dropped_server_side() {
    // A zero deadline is already expired when the batcher picks the job up,
    // so the server must answer DeadlineExceeded without scoring it.
    let server = Server::start(serving_registry(4), ServeConfig::default());
    let t = task();
    let pool = candidates(2, 19);
    let err = server
        .client()
        .score_with_deadline("m", &t, &pool, Duration::ZERO)
        .err();
    assert_eq!(err, Some(ServeError::DeadlineExceeded));
    // Once the candidates are cached the request is answered at admission,
    // and an already-expired deadline is honoured there too.
    let client = server.client();
    client.score("m", &t, &pool).expect("fills the cache");
    assert_eq!(
        client
            .score_with_deadline("m", &t, &pool, Duration::ZERO)
            .err(),
        Some(ServeError::DeadlineExceeded)
    );
    let snap = server.shutdown();
    assert_eq!(snap.expired, 2);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.answered_at_admission, 0);
}

#[test]
fn deadline_expires_client_side_when_server_is_stalled() {
    // Paused server: the job sits queued forever; the client must time out
    // on its own rather than hang.
    let server = Server::start(
        serving_registry(5),
        ServeConfig {
            queue_capacity: 8,
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(1, 23);
    let err = server
        .client()
        .score_with_deadline("m", &t, &pool, Duration::from_millis(10))
        .err();
    assert_eq!(err, Some(ServeError::DeadlineExceeded));
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let server = Server::start(
        serving_registry(6),
        ServeConfig {
            queue_capacity: 1024,
            batchers: 1,
            policy: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(5),
            },
        },
    );
    let t = task();
    let pool = candidates(3, 29);
    let client = server.client();
    let pending: Vec<_> = (0..32)
        .map(|_| client.submit("m", &t, &pool, None).expect("admit"))
        .collect();
    let snap = server.shutdown();
    // Every admitted request was answered with scores, none abandoned.
    for p in pending {
        let reply = p.wait().expect("drained reply");
        assert_eq!(reply.scores.len(), pool.len());
    }
    assert_eq!(snap.completed, 32);
    assert_eq!(snap.queue_depth, 0);
    // Submissions after shutdown fail typed — this one has every candidate
    // cached by now, and being answerable at admission does not exempt it.
    assert_eq!(
        client.submit("m", &t, &pool, None).err(),
        Some(ServeError::ShuttingDown),
    );
    assert_eq!(
        client.stats().answered_at_admission,
        snap.answered_at_admission
    );
}

#[test]
fn remote_cost_model_matches_local_scorer_and_tunes() {
    let t = task();
    let pool = candidates(8, 31);
    let server = Server::start(serving_registry(8), ServeConfig::default());
    let remote = RemoteCostModel::new(server.client(), "m");

    // predict() through the server == predict() through the local adapter.
    let (model, ex) = scorer(8);
    let local = tlp::FeatureModel::with_engine(
        TlpScorer {
            model,
            extractor: ex,
        },
        EngineConfig::default(),
    );
    let want = local.predict(ScoreRequest::new(&t, &pool));
    let got = remote.predict(ScoreRequest::new(&t, &pool));
    assert!(want.scores().eq(got.scores()));
    assert_eq!(want.valid, got.valid);
    assert_eq!(remote.name(), "serve:m");
    assert_eq!(remote.errors(), 0);

    // The adapter drives a full (tiny) tuning run through the server.
    let net = bert_tiny(1, 32);
    let mut remote: Box<dyn CostModel> = Box::new(remote);
    let report = tune_network(
        &net,
        &Platform::i7_10510u(),
        &mut remote,
        &TuningOptions {
            rounds: net.num_tasks(),
            programs_per_round: 2,
            evolution: EvolutionConfig {
                population: 8,
                generations: 1,
                ..EvolutionConfig::default()
            },
            seed: 37,
            ..TuningOptions::default()
        },
    );
    assert_eq!(report.rounds.len(), net.num_tasks());
    let snap = server.shutdown();
    assert!(snap.completed > 0);
    assert_eq!(snap.queue_depth, 0);
}

#[test]
fn remote_cost_model_degrades_on_serve_errors() {
    // Paused zero-capacity server: every request is rejected Overloaded;
    // the adapter must yield all-invalid batches, not panic.
    let server = Server::start(
        serving_registry(10),
        ServeConfig {
            queue_capacity: 0,
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(4, 41);
    let remote = RemoteCostModel::new(server.client(), "m");
    let batch = remote.predict(ScoreRequest::new(&t, &pool));
    assert_eq!(batch.len(), pool.len());
    assert_eq!(batch.num_invalid(), pool.len());
    assert_eq!(remote.errors(), 1);
}

#[test]
fn remote_cost_model_degrades_on_a_removed_model() {
    // An unknown model degrades like any other serve error: one masked
    // batch, counted once.
    let server = Server::start(serving_registry(11), ServeConfig::default());
    assert!(server.registry().remove("m"));
    let t = task();
    let pool = candidates(3, 47);
    let remote = RemoteCostModel::new(server.client(), "m");
    let batch = remote.predict(ScoreRequest::new(&t, &pool));
    assert_eq!(batch.num_invalid(), pool.len());
    assert_eq!(remote.errors(), 1);
    assert_eq!(server.shutdown().unknown_model, 1);
}

#[test]
fn invalid_schedule_is_rejected_at_admission() {
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind};

    let server = Server::start(serving_registry(12), ServeConfig::default());
    let t = task();
    let mut pool = candidates(3, 43);
    // Corrupt the middle candidate: reference a loop var that never existed.
    pool[1].push(
        ConcretePrimitive::new(PrimitiveKind::Annotation, "d")
            .with_loops(["ghost"])
            .with_extras(["parallel"]),
    );
    // Verification is not weakened by the admission-time cache probe: the
    // cache is writable by callers that never verified, so seed it with the
    // very request about to be refused.
    let unverified = server.registry().resolve("m").expect("installed");
    unverified.score(&t, &pool);
    let err = server.client().score("m", &t, &pool).unwrap_err();
    match err {
        ServeError::InvalidSchedule { index, diagnostics } => {
            assert_eq!(index, 1);
            assert!(!diagnostics.is_empty());
        }
        other => panic!("expected InvalidSchedule, got {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!(snap.rejected_invalid, 1);
    assert_eq!(snap.completed, 0, "invalid request must never be scored");
    assert_eq!(snap.answered_at_admission, 0);
}

/// A private engine over the same seeded model: the reference every served
/// score must equal bit for bit.
fn direct_scores(seed: u64, t: &SearchTask, batch: &[ScheduleSequence]) -> Vec<Option<f32>> {
    let (model, extractor) = scorer(seed);
    InferenceEngine::new(TlpScorer { model, extractor }, EngineConfig::default())
        .score(t, batch)
        .0
}

#[test]
fn all_hit_request_is_answered_by_the_submitting_thread() {
    // No batchers: nothing but the submitting thread can produce a reply.
    let server = Server::start(
        serving_registry(14),
        ServeConfig {
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(6, 47);
    let version = server.registry().resolve("m").expect("installed");
    version.score(&t, &pool);
    let reply = server
        .client()
        .score("m", &t, &pool)
        .expect("answered at admission");
    assert_eq!(reply.scores, direct_scores(14, &t, &pool));
    assert_eq!(reply.model_version, version.version());
    assert_eq!(reply.batch_jobs, 1);
    assert_eq!(
        (reply.stats.cache_hits, reply.stats.cache_misses),
        (6, 0),
        "reported exactly as the queued path reports an all-hit request"
    );
    let snap = server.shutdown();
    assert_eq!(snap.answered_at_admission, 1);
    assert_eq!((snap.submitted, snap.completed, snap.candidates), (1, 1, 6));
    assert_eq!(
        (snap.queue_depth, snap.batches, snap.coalesced_jobs),
        (0, 0, 0)
    );
}

#[test]
fn one_uncached_candidate_queues_the_whole_request() {
    let server = Server::start(serving_registry(15), ServeConfig::default());
    let t = task();
    let pool = candidates(8, 53);
    let client = server.client();
    let engine = || server.registry().resolve("m").expect("installed").stats();

    // Seven new candidates, then the same seven plus one more: neither is
    // all-hit, both queue whole, and the engine counts each candidate once.
    let first = client.score("m", &t, &pool[..7]).expect("all-miss request");
    let mixed = client.score("m", &t, &pool).expect("mixed request");
    assert_eq!(first.scores, direct_scores(15, &t, &pool[..7]));
    assert_eq!(mixed.scores, direct_scores(15, &t, &pool));
    assert_eq!((mixed.stats.cache_hits, mixed.stats.cache_misses), (7, 1));
    let counted = engine();
    assert_eq!(
        (counted.requests, counted.cache_hits, counted.cache_misses),
        (2, 7, 8)
    );
    assert_eq!(client.stats().answered_at_admission, 0);

    // Now every candidate is cached: answered at admission, no third batch.
    let warm = client.score("m", &t, &pool).expect("all-hit request");
    assert_eq!(warm.scores, mixed.scores);
    let counted = engine();
    assert_eq!(
        (counted.requests, counted.cache_hits, counted.cache_misses),
        (3, 15, 8)
    );
    let snap = server.shutdown();
    assert_eq!((snap.answered_at_admission, snap.batches), (1, 2));
    assert_eq!(
        (snap.submitted, snap.completed, snap.candidates),
        (3, 3, 23)
    );
}

/// Starts a one-batcher server over `registry` and occupies its batcher with
/// a large job of another task, so requests submitted next stay queued for
/// a while. Returns the server and the large job's pending reply.
fn busy_server(registry: &Arc<ModelRegistry>) -> (Server, PendingScore) {
    let server = Server::start(
        Arc::clone(registry),
        ServeConfig {
            batchers: 1,
            ..ServeConfig::default()
        },
    );
    let other = SearchTask::new(
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
        ),
        Platform::i7_10510u(),
    );
    let large = tlp_serve::random_pool(&other, 2048, 67);
    let pending = server
        .client()
        .submit("m", &other, &large, None)
        .expect("admit the large job");
    (server, pending)
}

#[test]
fn a_request_is_scored_by_the_version_that_admitted_it() {
    let t = task();
    let pool = candidates(8, 59);
    let v1_scores = direct_scores(17, &t, &pool);
    let v2_scores = direct_scores(18, &t, &pool);
    assert_ne!(
        v1_scores, v2_scores,
        "seeds must give distinguishable models"
    );

    // Installed after the request was admitted: the queued request is still
    // answered by v1, with v1's tag, however the batcher's timing falls.
    let reg = serving_registry(17);
    let v1 = reg.resolve("m").expect("installed").version();
    let (server, large) = busy_server(&reg);
    let queued = server.client().submit("m", &t, &pool, None).expect("admit");
    let (m2, e2) = scorer(18);
    let v2 = reg.install_tlp("m", m2, e2).expect("valid model");
    let reply = queued.wait().expect("scored");
    assert_eq!(reply.scores, v1_scores);
    assert_eq!(reply.model_version, v1);
    // Admitted after the install: v2.
    let reply = server.client().score("m", &t, &pool).expect("scored");
    assert_eq!((reply.scores, reply.model_version), (v2_scores, v2));
    large.wait().expect("the large job completes");
    drop(server);

    // Removed after the request was admitted: it still completes normally,
    // and only the refused request after the removal counts as unknown.
    let reg = serving_registry(17);
    let (server, large) = busy_server(&reg);
    let queued = server.client().submit("m", &t, &pool, None).expect("admit");
    assert!(reg.remove("m"));
    assert_eq!(
        server.client().submit("m", &t, &pool, None).err(),
        Some(ServeError::UnknownModel("m".to_string()))
    );
    assert_eq!(queued.wait().expect("scored").scores, v1_scores);
    large.wait().expect("the large job completes");
    let snap = server.shutdown();
    assert_eq!(snap.unknown_model, 1, "admission refusals only");
    assert_eq!(snap.completed, 2);
}

#[test]
fn an_int_only_corruption_of_an_admitted_schedule_gets_the_full_report() {
    use tlp_schedule::PrimitiveKind;
    use tlp_verify::{verify_with, VerifyOptions};

    let server = Server::start(serving_registry(13), ServeConfig::default());
    let client = server.client();
    let t = task();
    let pool = candidates(1, 53);
    // Admitting the clean schedule leaves its skeleton planned in the warm
    // verifier the next request on this task is lent.
    client
        .score("m", &t, &pool)
        .expect("a sketch schedule is clean");
    let zeroed: ScheduleSequence = pool[0]
        .iter()
        .map(|p| {
            let mut c = p.to_concrete();
            if c.kind == PrimitiveKind::Split {
                c.ints[1] = 0;
            }
            c
        })
        .collect();
    let opts = VerifyOptions {
        gpu: Some(t.platform.is_gpu()),
    };
    let expected = verify_with(&t.subgraph, &zeroed, &opts);
    assert!(expected.has_errors());
    match client.score("m", &t, &[zeroed]).unwrap_err() {
        ServeError::InvalidSchedule { index, diagnostics } => {
            assert_eq!(index, 0);
            assert_eq!(diagnostics, expected.diagnostics);
        }
        other => panic!("expected InvalidSchedule, got {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!((snap.completed, snap.rejected_invalid), (1, 1));
}
