//! The allocation budget of a request answered at admission: every
//! candidate verified, every score a cache hit, so the submitting thread
//! replies without queueing. Admission verifies with a warm verifier it
//! keeps for the task, so what a request allocates is the request's key set
//! and the reply's score vector, plus, once over the sixteen requests, the
//! growth of the verifier's plans as skeletons the warm-up did not show
//! arrive: 33 allocations, 2.1 per 16-candidate request. (A verifier built
//! per request, with its axis list and first-check buffers, made it 7.0.)
//!
//! The counting allocator (`counting_alloc`, shared with the core crate's
//! budget tests) is a `#[global_allocator]`, so this test lives in its own
//! binary with a single `#[test]`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use std::sync::Arc;
use tlp::engine::EngineConfig;
use tlp::features::FeatureExtractor;
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::SearchTask;
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{random_pool, ModelRegistry, ServeConfig, Server};
use tlp_workload::{AnchorOp, Subgraph};

/// Candidates per request.
const CANDIDATES: usize = 16;

/// Requests averaged over.
const REQUESTS: usize = 16;

#[test]
fn an_answered_request_stays_inside_its_allocation_budget() {
    let task = SearchTask::new(
        Subgraph::new(
            "c",
            AnchorOp::Conv2d {
                n: 1,
                cin: 64,
                hw: 56,
                cout: 64,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
        ),
        Platform::i7_10510u(),
    );
    let pool = random_pool(&task, REQUESTS * CANDIDATES, 73);
    let mut vocab = Vocabulary::builder();
    for p in pool.iter().flat_map(ScheduleSequence::iter) {
        vocab.observe(p.stage);
        for name in p.loop_vars.iter().chain(&p.extras) {
            vocab.observe(name);
        }
    }
    let cfg = TlpConfig::test_scale();
    let extractor = FeatureExtractor::with_vocab(vocab.build(), cfg.seq_len, cfg.emb_size);
    let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
    registry
        .install_tlp("m", TlpModel::new(cfg), extractor)
        .expect("valid model");
    // Paused: a request that reached the queue would stay there, so an
    // empty queue at the end shows every request was answered at admission.
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let engine = registry.resolve("m").expect("installed");
    for request in pool.chunks(CANDIDATES) {
        engine.score(&task, request);
    }
    let client = server.client();
    // Whatever the first request sets up once is not the budget's business.
    let warm_up = client.submit("m", &task, &pool[..CANDIDATES], None);
    let mut pending = Vec::with_capacity(REQUESTS);

    let before = counting_alloc::allocations();
    for request in pool.chunks(CANDIDATES) {
        pending.push(client.submit("m", &task, request, None).expect("admit"));
    }
    let per_request = (counting_alloc::allocations() - before) as f64 / REQUESTS as f64;
    println!("allocations per answered {CANDIDATES}-candidate request: {per_request:.1}");

    drop(warm_up);
    assert_eq!(client.stats().queue_depth, 0, "every request was answered");
    for reply in pending {
        let reply = reply.wait().expect("answered");
        assert_eq!(reply.scores.len(), CANDIDATES);
        assert!(reply.scores.iter().all(Option::is_some), "every score hit");
    }
    assert!(
        per_request <= 2.1,
        "an answered {CANDIDATES}-candidate request made {per_request:.1} allocations"
    );
    drop(server);
}
