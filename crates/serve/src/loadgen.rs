//! Deterministic event-driven load generator for the serving fleet.
//!
//! Wall-clock serving measurement (closed-loop clients against one
//! [`Server`](crate::Server), every reply bit-compared) lives in the
//! `tlp-sysbench` `serve_warm`/`serve_miss` workloads; this module keeps
//! the shared candidate pool and the simulated-time fleet harness.
//!
//! Measuring fleet *scaling* with real threads is meaningless on a small
//! machine: 8 shards of batchers on a single core time-slice each other and
//! the "fleet" scales by exactly nothing. The fleet harness therefore
//! simulates only **time** — a discrete-event loop over integer nanoseconds
//! where each shard is a unit-capacity service station — while everything
//! semantic stays real: requests route through the real `FleetClient`
//! (real consistent hashing, real breakers, real health gossip, real chaos
//! injection) into real shard servers scoring real schedules on real
//! models. A request's *service time* is charged from a calibrated
//! [`SimServiceModel`] using the reply's actual `BatchStats` (cache hits
//! vs misses), and queueing emerges from shard busy-times. The loop is
//! single-threaded and pops events in `(time, client)` order, so every run
//! with the same seed is bit-identical — which is what lets the bench
//! hard-assert "rate-0 chaos == no chaos" and p99 bounds instead of
//! eyeballing noisy wall-clock numbers.

use crate::router::FleetClient;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use tlp_autotuner::{SearchTask, SketchPolicy};
use tlp_schedule::ScheduleSequence;

/// Pre-generates a shared pool of `n` random candidate schedules for `task`.
pub fn random_pool(task: &SearchTask, n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sketch = SketchPolicy::cpu().compile(&task.subgraph);
    (0..n)
        .map(|_| sketch.random_candidate(&mut rng).sequence)
        .collect()
}

/// Calibrated per-request service-time model (microseconds), charged in
/// simulated time from the reply's real cache accounting.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SimServiceModel {
    /// Fixed per-request overhead (routing, queue hop, reply).
    pub base_us: f64,
    /// Per-candidate cost when the shard's score cache hits.
    pub hit_us: f64,
    /// Per-candidate cost when the candidate needs model inference.
    pub miss_us: f64,
    /// Extra latency per failover hop (skipped or failed shard).
    pub failover_penalty_us: f64,
}

impl Default for SimServiceModel {
    fn default() -> Self {
        SimServiceModel {
            base_us: 50.0,
            hit_us: 0.5,
            miss_us: 20.0,
            failover_penalty_us: 100.0,
        }
    }
}

impl SimServiceModel {
    /// Service nanoseconds for a reply with the given cache traffic.
    fn service_ns(&self, hits: u32, misses: u32, failovers: u32) -> u64 {
        let us = self.base_us
            + self.hit_us * f64::from(hits)
            + self.miss_us * f64::from(misses)
            + self.failover_penalty_us * f64::from(failovers);
        (us * 1e3).max(1.0) as u64
    }
}

/// Fleet-simulation load shape.
#[derive(Clone, Debug)]
pub struct FleetLoadOptions {
    /// Simulated closed-loop clients.
    pub clients: usize,
    /// Requests each simulated client issues.
    pub requests_per_client: usize,
    /// Candidates per request.
    pub batch: usize,
}

impl Default for FleetLoadOptions {
    fn default() -> Self {
        FleetLoadOptions {
            clients: 64,
            requests_per_client: 8,
            batch: 16,
        }
    }
}

/// Exact (not bucketed) latency percentiles from the simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct SimLatencySummary {
    /// Completed requests.
    pub count: u64,
    /// Mean simulated latency, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
}

fn exact_summary(mut ns: Vec<u64>) -> SimLatencySummary {
    if ns.is_empty() {
        return SimLatencySummary::default();
    }
    ns.sort_unstable();
    let count = ns.len() as u64;
    let pick = |q: f64| {
        let rank = ((q * count as f64).ceil() as usize).clamp(1, ns.len());
        ns[rank - 1] as f64 / 1e3
    };
    SimLatencySummary {
        count,
        mean_us: ns.iter().sum::<u64>() as f64 / count as f64 / 1e3,
        p50_us: pick(0.50),
        p95_us: pick(0.95),
        p99_us: pick(0.99),
        max_us: *ns.last().unwrap_or(&0) as f64 / 1e3,
    }
}

/// What a fleet simulation observed.
#[derive(Clone, Debug, Serialize)]
pub struct FleetLoadReport {
    /// Shards behind the router.
    pub shards: usize,
    /// Simulated clients.
    pub clients: usize,
    /// Candidates per request.
    pub batch: usize,
    /// Requests answered with scores.
    pub ok: u64,
    /// Requests that exhausted every shard.
    pub errors: u64,
    /// Failover hops summed over successful replies.
    pub failovers: u64,
    /// Simulated wall-clock seconds (the last completion time).
    pub sim_wall_s: f64,
    /// Completed requests per simulated second.
    pub requests_per_s: f64,
    /// Scored candidates per simulated second.
    pub candidates_per_s: f64,
    /// Exact simulated-latency percentiles.
    pub latency_us: SimLatencySummary,
    /// Order-sensitive digest of every reply's `(shard, score bits)` — two
    /// runs with identical semantics produce identical digests, so
    /// bit-identity is one `assert_eq!`.
    pub score_digest: u64,
    /// Order-sensitive digest of every completion `(client, latency_ns)`.
    pub latency_digest: u64,
}

/// Runs the deterministic event-driven fleet simulation: `opts.clients`
/// closed-loop clients over `tasks` (assigned round-robin, so distinct
/// routing keys spread across shards), each drawing rotating windows from
/// the matching pool. Scoring, routing, breakers, and chaos all execute
/// for real; only time is simulated.
///
/// # Panics
///
/// Panics if `tasks`/`pools` are empty or mismatched, or `opts.batch` is 0.
pub fn run_fleet_sim(
    client: &FleetClient,
    model: &str,
    tasks: &[SearchTask],
    pools: &[Vec<ScheduleSequence>],
    opts: &FleetLoadOptions,
    service: &SimServiceModel,
) -> FleetLoadReport {
    assert!(!tasks.is_empty(), "need at least one task");
    assert_eq!(tasks.len(), pools.len(), "one candidate pool per task");
    assert!(
        pools.iter().all(|p| !p.is_empty()),
        "pools must be non-empty"
    );
    assert!(opts.batch > 0, "batch size must be non-zero");
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let splitmix = crate::chaos::mix;
    let mut shard_free_ns = vec![0u64; client.shard_count()];
    let mut next_round = vec![0usize; opts.clients];
    // Seed every client at t=0; the heap orders by (time, client), so the
    // execution order — and therefore every cache and chaos interaction —
    // is a pure function of the inputs.
    let mut events: BinaryHeap<Reverse<(u64, usize)>> =
        (0..opts.clients).map(|c| Reverse((0u64, c))).collect();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(opts.clients * opts.requests_per_client);
    let (mut ok, mut errors, mut failovers) = (0u64, 0u64, 0u64);
    let (mut score_digest, mut latency_digest) = (0u64, 0u64);
    let mut end_ns = 0u64;

    while let Some(Reverse((now, c))) = events.pop() {
        let round = next_round[c];
        if round >= opts.requests_per_client {
            continue;
        }
        next_round[c] = round + 1;
        let task_idx = c % tasks.len();
        let pool = &pools[task_idx];
        let begin = (c * 17 + round * opts.batch) % pool.len();
        let batch: Vec<ScheduleSequence> = (0..opts.batch)
            .map(|i| pool[(begin + i) % pool.len()].clone())
            .collect();
        let done_ns = match client.score_detailed(model, &tasks[task_idx], &batch, None) {
            Ok(fr) => {
                ok += 1;
                failovers += u64::from(fr.failovers);
                for s in &fr.reply.scores {
                    score_digest =
                        splitmix(score_digest ^ u64::from(s.map_or(u32::MAX, f32::to_bits)));
                }
                score_digest = splitmix(score_digest ^ fr.shard as u64);
                let svc = service.service_ns(
                    fr.reply.stats.cache_hits,
                    fr.reply.stats.cache_misses,
                    fr.failovers,
                );
                // Unit-capacity shard: start when both the request has
                // arrived and the shard is free. Queueing delay emerges
                // here — and shrinks as shards are added.
                let start = now.max(shard_free_ns[fr.shard]);
                let done = start + svc;
                shard_free_ns[fr.shard] = done;
                done
            }
            Err(_) => {
                // Every shard skipped or failed: the client observes the
                // full failover sweep but occupies no shard.
                errors += 1;
                now + service.service_ns(0, 0, client.shard_count() as u32)
            }
        };
        let latency = done_ns - now;
        latencies_ns.push(latency);
        latency_digest = splitmix(latency_digest ^ latency ^ ((c as u64) << 40));
        end_ns = end_ns.max(done_ns);
        events.push(Reverse((done_ns, c)));
    }

    let sim_wall_s = (end_ns as f64 / 1e9).max(1e-12);
    FleetLoadReport {
        shards: client.shard_count(),
        clients: opts.clients,
        batch: opts.batch,
        ok,
        errors,
        failovers,
        sim_wall_s,
        requests_per_s: ok as f64 / sim_wall_s,
        candidates_per_s: (ok * opts.batch as u64) as f64 / sim_wall_s,
        latency_us: exact_summary(latencies_ns),
        score_digest,
        latency_digest,
    }
}
