//! Steady-state scoring allocates nothing: after a few warmup passes, a
//! full engine `score_into` call — feature extraction, fused forward pass,
//! and score scatter — must perform zero heap allocations. This pins the
//! zero-copy pipeline contract: engine-owned feature buffers, pooled
//! per-worker scratch, and arena-backed forward-pass workspaces.
//!
//! The counting allocator (`counting_alloc`) is a `#[global_allocator]`, so
//! this test lives in its own binary with a single `#[test]` — any sibling
//! test running concurrently would pollute the counter.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

mod counting_alloc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp::engine::{EngineConfig, InferenceEngine};
use tlp::features::FeatureExtractor;
use tlp::search::TlpScorer;
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, SearchTask, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_workload::{AnchorOp, Subgraph};

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

fn candidates(n: usize) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let t = task();
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &t.subgraph, &mut rng).sequence)
        .collect()
}

#[test]
fn steady_state_scoring_allocates_nothing() {
    let cfg = TlpConfig::test_scale();
    let seqs = candidates(128);
    let mut vb = Vocabulary::builder();
    for s in &seqs {
        for p in s.iter() {
            vb.observe(&p.stage);
            for v in &p.loop_vars {
                vb.observe(v);
            }
            for e in &p.extras {
                vb.observe(e);
            }
        }
    }
    let extractor = FeatureExtractor::with_vocab(vb.build(), cfg.seq_len, cfg.emb_size);
    let scorer = TlpScorer {
        model: TlpModel::new(cfg),
        extractor,
    };
    // Single-threaded, uncached: the one worker loop, run on the calling
    // thread. Spawning workers and growing the cache's hash map are the two
    // engine features that legitimately allocate.
    let engine = InferenceEngine::new(
        scorer,
        EngineConfig {
            micro_batch: 64,
            threads: 1,
            cache_capacity: 0,
        },
    );
    let t = task();
    let mut out = Vec::new();

    // Warm every pool: the caller's output buffer, the engine's call
    // buffers and pooled scorer scratch, and the nn workspace arena.
    for _ in 0..3 {
        engine.score_into(&t, &seqs, &mut out);
    }
    assert_eq!(out.len(), seqs.len());
    assert!(out.iter().all(Option::is_some));

    let before = counting_alloc::allocations();
    let stats = engine.score_into(&t, &seqs, &mut out);
    let delta = counting_alloc::allocations() - before;
    assert_eq!(stats.cache_misses as usize, seqs.len());
    assert_eq!(
        delta, 0,
        "steady-state score_into performed {delta} heap allocations"
    );
}
