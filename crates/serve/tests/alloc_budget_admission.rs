//! The allocation budget of a queued miss. Admission hands the batcher the
//! request's features — one exactly sized `FeatureBuf` — and its keys,
//! never a copy of its schedules, so what a queued request allocates does
//! not grow with candidates × primitives: 5.0 allocations at 16 candidates
//! and 5.2 at 64, since admission verifies with a warm verifier it keeps
//! for the task (18 at both while it built one per request; deep-copying
//! the schedules into the queue cost 1 146 and 4 469). The 64-candidate
//! figure is 0.2 above the 16-candidate one because its requests bring
//! skeletons the warm-up did not show, so the warm fingerprinter's buffers
//! grow once more.
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
use tlp_serve::{random_pool, ModelRegistry, PendingScore, ServeClient, ServeConfig, Server};
use tlp_workload::{AnchorOp, Subgraph};

/// Requests of each size averaged over.
const REQUESTS: usize = 8;

/// Mean allocations of submitting each of `requests` (every one a miss) to
/// a paused server, which queues it. The pending replies are kept, so no
/// deallocation-side work is counted.
fn per_queued_request(
    client: &ServeClient,
    task: &SearchTask,
    requests: &[Vec<ScheduleSequence>],
    pending: &mut Vec<PendingScore>,
) -> f64 {
    let before = counting_alloc::allocations();
    for request in requests {
        pending.push(client.submit("m", task, request, None).expect("admit"));
    }
    (counting_alloc::allocations() - before) as f64 / requests.len() as f64
}

#[test]
fn a_queued_miss_stays_inside_its_allocation_budget() {
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
    let pool = random_pool(&task, REQUESTS * (16 + 16 + 64), 71);
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
    let server = Server::start(
        registry,
        ServeConfig {
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let requests = |size: usize, from: usize| -> Vec<Vec<ScheduleSequence>> {
        pool[from..from + REQUESTS * size]
            .chunks(size)
            .map(<[_]>::to_vec)
            .collect()
    };
    let (warm_up, small, large) = (
        requests(16, 0),
        requests(16, REQUESTS * 16),
        requests(64, REQUESTS * 32),
    );
    let mut pending = Vec::with_capacity(3 * REQUESTS);

    // Whatever the first requests set up once is not the budget's business.
    per_queued_request(&client, &task, &warm_up, &mut pending);
    let at_16 = per_queued_request(&client, &task, &small, &mut pending);
    let at_64 = per_queued_request(&client, &task, &large, &mut pending);
    println!("allocations per queued miss: {at_16:.1} at 16 candidates, {at_64:.1} at 64");
    assert_eq!(
        client.stats().queue_depth,
        3 * REQUESTS,
        "every request queued"
    );
    assert!(
        at_16 <= 32.0,
        "a queued 16-candidate miss made {at_16:.1} allocations"
    );
    assert!(
        at_64 <= at_16 + 4.0,
        "admission scales with candidates: {at_16:.1} allocations at 16, {at_64:.1} at 64"
    );
    drop(server);
}
