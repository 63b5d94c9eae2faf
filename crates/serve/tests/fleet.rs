//! Routing suite: consistent-hash stickiness, failover and failback through
//! per-shard breakers, chaos on one shard, and the property test that
//! scores never mix across shards. Every test drives real servers with
//! sequential requests; nothing is timed.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use tlp::engine::EngineConfig;
use tlp::features::FeatureExtractor;
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, SearchTask, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{
    BatchPolicy, BreakerConfig, BreakerState, FleetClient, ModelRegistry, ServeConfig, Server,
};
use tlp_workload::{AnchorOp, Subgraph};

fn dense_task(m: i64, n: i64, k: i64) -> SearchTask {
    SearchTask::new(
        Subgraph::new("d", AnchorOp::Dense { m, n, k }),
        Platform::i7_10510u(),
    )
}

fn candidates(task: &SearchTask, n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &task.subgraph, &mut rng).sequence)
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

/// One batcher per shard and no coalescing wait: the tests drive requests
/// sequentially, so waiting for stragglers only adds wall-clock time.
fn shard_config() -> ServeConfig {
    ServeConfig {
        batchers: 1,
        policy: BatchPolicy {
            max_wait: Duration::ZERO,
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    }
}

/// Starts one server per seed, each holding that seed's model as "m" in a
/// private registry, and one router in front of them.
fn start_fleet(seeds: &[u64], breaker: BreakerConfig) -> (Vec<Server>, FleetClient) {
    let servers: Vec<Server> = seeds
        .iter()
        .map(|&seed| {
            let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
            let (model, ex) = scorer(seed);
            registry.install_tlp("m", model, ex).expect("valid model");
            Server::start(registry, shard_config())
        })
        .collect();
    let client = FleetClient::new(servers.iter().map(Server::client).collect(), 7, breaker);
    (servers, client)
}

/// Ground truth for one shard: score directly through that shard's own
/// registry engine, bypassing the router entirely.
fn shard_truth(
    servers: &[Server],
    shard: usize,
    task: &SearchTask,
    batch: &[ScheduleSequence],
) -> Vec<Option<f32>> {
    servers[shard]
        .registry()
        .resolve("m")
        .expect("installed")
        .score(task, batch)
        .0
}

/// A routed trace: `requests` sequential requests cycling over `keys`
/// distinct task keys, each a rotating window of 4 from its task's pool.
fn trace(keys: usize, requests: usize) -> Vec<(SearchTask, Vec<ScheduleSequence>)> {
    let tasks: Vec<SearchTask> = (0..keys as i64)
        .map(|i| dense_task(32 + 16 * i, 64, 48))
        .collect();
    let pools: Vec<Vec<ScheduleSequence>> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| candidates(t, 8, 500 + i as u64))
        .collect();
    (0..requests)
        .map(|r| {
            let (key, begin) = (r % keys, r / keys);
            let batch = (0..4).map(|j| pools[key][(begin + j) % 8].clone());
            (tasks[key].clone(), batch.collect())
        })
        .collect()
}

#[test]
fn fleet_scores_match_single_shard_bit_for_bit() {
    let t = dense_task(128, 128, 128);
    let pool = candidates(&t, 8, 3);
    let (_single_servers, single) = start_fleet(&[7], BreakerConfig::default());
    let (_quad_servers, quad) = start_fleet(&[7; 4], BreakerConfig::default());
    let want = single.score_detailed("m", &t, &pool, None).expect("single");
    let got = quad.score_detailed("m", &t, &pool, None).expect("quad");
    assert_eq!(
        want.reply.scores, got.reply.scores,
        "sharding must not change scores"
    );
}

#[test]
fn routing_is_sticky() {
    let (servers, client) = start_fleet(&[7; 4], BreakerConfig::default());
    for (i, (m, n, k)) in [(64, 64, 64), (128, 64, 32), (256, 128, 64), (32, 32, 256)]
        .into_iter()
        .enumerate()
    {
        let t = dense_task(m, n, k);
        let pool = candidates(&t, 4, 100 + i as u64);
        let owner = client.owner_of("m", &t);
        for _ in 0..3 {
            let r = client
                .score_detailed("m", &t, &pool, None)
                .expect("healthy fleet");
            assert_eq!(r.shard, owner, "a repeated request must not move the key");
            assert_eq!(r.failovers, 0);
        }
    }
    let stats = client.stats();
    assert_eq!(stats.routed, 12);
    assert_eq!(stats.failovers, 0);
    let completed: u64 = servers.iter().map(|s| s.stats().completed).sum();
    assert_eq!(completed, 12);
}

#[test]
fn failover_on_wedged_shard_then_failback_after_recovery() {
    let breaker = BreakerConfig {
        failure_threshold: 2,
        cooldown_calls: 3,
    };
    let (_servers, client) = start_fleet(&[7; 3], breaker);
    let t = dense_task(96, 96, 96);
    let pool = candidates(&t, 4, 9);
    let order = client.route_order("m", &t);
    let (owner, backup) = (order[0], order[1]);

    // Wedge the owner: every request to it fails, so requests fail over to
    // the backup — none are lost.
    client.fault(owner, 1.0);
    for i in 0..8 {
        let r = client
            .score_detailed("m", &t, &pool, None)
            .unwrap_or_else(|e| panic!("request {i} lost under failover: {e}"));
        assert_eq!(r.shard, backup, "request {i} must serve from the backup");
        assert_eq!(r.failovers, 1, "request {i} pays exactly one hop");
    }

    // Only the faulted shard's breaker tripped.
    for shard in 0..3 {
        let want = if shard == owner {
            BreakerState::Open
        } else {
            BreakerState::Closed
        };
        assert_eq!(client.breaker(shard).state, want, "shard {shard}");
    }
    assert!(client.breaker(owner).trips >= 1);

    // Recovery: clear the fault and keep driving; the call-count cooldown
    // lets a half-open probe through, it succeeds, and traffic fails back.
    client.fault(owner, 0.0);
    let mut failback_at = None;
    for i in 0..12 {
        let r = client
            .score_detailed("m", &t, &pool, None)
            .expect("request during recovery");
        if r.shard == owner {
            failback_at = Some(i);
            break;
        }
    }
    assert!(
        failback_at.is_some(),
        "traffic must fail back to the owner after recovery"
    );
    let snap = client.breaker(owner);
    assert_eq!(snap.state, BreakerState::Closed);
    assert!(snap.recoveries >= 1, "half-open probe recovery is counted");
}

#[test]
fn chaos_on_one_shard_loses_nothing_and_replies_match_their_shard() {
    // Shards hold divergent models, so a reply matching "its" shard's engine
    // proves it was scored there and nowhere else.
    let (servers, client) = start_fleet(&[1000, 1001, 1002, 1003], BreakerConfig::default());
    let requests = trace(16, 128);
    let faulted = client.owner_of("m", &requests[0].0);
    client.fault(faulted, 0.2);
    let mut hops = 0u64;
    for (i, (task, batch)) in requests.iter().enumerate() {
        let r = client
            .score_detailed("m", task, batch, None)
            .unwrap_or_else(|e| panic!("request {i} lost under chaos: {e}"));
        assert_eq!(
            r.reply.scores,
            shard_truth(&servers, r.shard, task, batch),
            "request {i} differs from shard {}'s own engine",
            r.shard
        );
        hops += u64::from(r.failovers);
    }
    let stats = client.stats();
    assert_eq!(stats.routed, 128);
    assert!(stats.failovers > 0, "rate 0.2 must force some failover");
    assert_eq!(stats.failovers, hops);
    assert!(client.injected(faulted) > 0);
}

#[test]
fn rate_zero_chaos_is_inert_on_a_routed_trace() {
    let requests = trace(16, 64);
    let run = |force_rate_zero: bool| {
        let (_servers, client) = start_fleet(&[7; 4], BreakerConfig::default());
        if force_rate_zero {
            (0..4).for_each(|shard| client.fault(shard, 0.0));
        }
        requests
            .iter()
            .map(|(task, batch)| {
                let r = client.score_detailed("m", task, batch, None).expect("ok");
                let bits: Vec<Option<u32>> =
                    r.reply.scores.iter().map(|s| s.map(f32::to_bits)).collect();
                (r.shard, bits)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true), "rate 0 must be inert");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The no-mixing property: for any task, the fleet's reply is
    /// bit-identical to scoring directly on the shard it reports — through a
    /// full fault → failover → recover → failback cycle. Shards deliberately
    /// hold *divergent* models (different init seeds), so any cross-shard
    /// blending or misrouting would change the score bits.
    #[test]
    fn scores_never_mix_across_shards(
        dim_idx in 0usize..4,
        cand_seed in 0u64..1000,
    ) {
        let breaker = BreakerConfig { failure_threshold: 1, cooldown_calls: 2 };
        let (servers, client) = start_fleet(&[1000, 1001, 1002], breaker);
        let dims = [(48i64, 48i64, 48i64), (64, 96, 32), (96, 64, 64), (128, 48, 96)][dim_idx];
        let t = dense_task(dims.0, dims.1, dims.2);
        let pool = candidates(&t, 4, cand_seed);
        let order = client.route_order("m", &t);
        let (owner, backup) = (order[0], order[1]);

        // Healthy: a request and its repeat land on the owner, bits match
        // its model.
        let truth_owner = shard_truth(&servers, owner, &t, &pool);
        for _ in 0..2 {
            let r = client.score_detailed("m", &t, &pool, None).expect("healthy");
            prop_assert_eq!(r.shard, owner);
            prop_assert_eq!(&r.reply.scores, &truth_owner);
        }

        // Failover: replies now carry exactly the backup's model bits.
        client.fault(owner, 1.0);
        let truth_backup = shard_truth(&servers, backup, &t, &pool);
        for _ in 0..2 {
            let r = client.score_detailed("m", &t, &pool, None).expect("failover");
            prop_assert_eq!(r.shard, backup);
            prop_assert_eq!(&r.reply.scores, &truth_backup);
        }

        // Failback: after recovery the owner serves its own bits again.
        client.fault(owner, 0.0);
        let mut failed_back = false;
        for _ in 0..8 {
            let r = client.score_detailed("m", &t, &pool, None).expect("recovery");
            let want = shard_truth(&servers, r.shard, &t, &pool);
            prop_assert_eq!(&r.reply.scores, &want, "every reply matches its serving shard");
            if r.shard == owner {
                failed_back = true;
                break;
            }
        }
        prop_assert!(failed_back, "traffic must return to the owner");
    }
}
