//! The fleet router: consistent hashing, per-shard breakers, failover.
//!
//! A [`FleetClient`] fronts N server shards. Each request's routing key is
//! a hash of `(model, task fingerprint)`, so every client scoring the same
//! task lands on the same shard and shares its hot score cache, while
//! distinct tasks spread across the fleet. The key walks
//! a consistent-hash ring ([`HashRing`]) of virtual nodes: the first shard
//! clockwise owns the key, and the distinct shards after it form the
//! failover order, so adding or faulting one shard only remaps the keys it
//! owned.
//!
//! Failure handling:
//!
//! - each shard sits behind a [`FlakyTransport`] (rate 0 by default — inert
//!   and bit-identical to a bare client) so chaos tests can fault one shard
//!   deterministically;
//! - each shard has a router-side [`CircuitBreaker`]: transient failures
//!   count toward tripping it, an open breaker skips the shard (failover to
//!   the next in key order), and the call-count cooldown lets a half-open
//!   probe through later — succeeding probes *fail back* to the owner.
//!
//! Deterministic rejections (invalid schedule, unknown model) are returned
//! to the caller without failover: retrying them on another shard cannot
//! succeed.

use crate::backend::{
    is_transient, BreakerConfig, BreakerSnapshot, CircuitBreaker, ScoreTransport,
};
use crate::chaos::FlakyTransport;
use crate::error::ServeError;
use crate::server::{ScoreReply, ServeClient};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tlp::engine::task_fingerprint;
use tlp_autotuner::SearchTask;
use tlp_schedule::hash::splitmix64;
use tlp_schedule::ScheduleSequence;

/// Virtual nodes per shard: enough that key ownership is near-uniform for
/// small fleets while the ring stays tiny (8 shards → 512 points).
const VNODES: u64 = 64;

/// Salt decorrelating ring-point hashes from other splitmix users.
const RING_SALT: u64 = 0x72f3_9a1c_5bd6_e04d;

/// The routing key for `(model, task fingerprint)`.
pub fn route_key(model: &str, task_fp: u64) -> u64 {
    // FNV-1a over the model name, then splitmix-fold the fingerprint.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in model.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h ^ task_fp)
}

/// A consistent-hash ring of `VNODES` points per shard.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// (point, shard), sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// A ring over `shards` shards.
    pub fn new(shards: usize) -> Self {
        let mut points: Vec<(u64, usize)> = (0..shards)
            .flat_map(|s| {
                (0..VNODES).map(move |v| (splitmix64(RING_SALT ^ ((s as u64) << 32) ^ v), s))
            })
            .collect();
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` (the first ring point clockwise).
    pub fn owner(&self, key: u64) -> usize {
        self.order(key)[0]
    }

    /// Preference order for `key`: the owner first, then each distinct
    /// shard in clockwise ring order — the failover sequence.
    ///
    /// # Panics
    ///
    /// Panics if the ring has zero shards.
    pub fn order(&self, key: u64) -> Vec<usize> {
        assert!(self.shards > 0, "ring must have at least one shard");
        let len = self.points.len();
        let start = self.points.partition_point(|&(p, _)| p < key) % len;
        let mut seen = vec![false; self.shards];
        let mut out = Vec::with_capacity(self.shards);
        for i in 0..len {
            let (_, shard) = self.points[(start + i) % len];
            if !seen[shard] {
                seen[shard] = true;
                out.push(shard);
                if out.len() == self.shards {
                    break;
                }
            }
        }
        out
    }
}

/// One shard as the router sees it: a chaos-wrappable transport plus a
/// router-side breaker.
struct ShardEndpoint {
    transport: FlakyTransport<ServeClient>,
    breaker: Mutex<CircuitBreaker>,
}

impl ShardEndpoint {
    fn lock_breaker(&self) -> std::sync::MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Router-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests routed (each counted once, however many shards it tried).
    pub routed: u64,
    /// Failover hops: shards skipped (open breaker) or failed transiently
    /// before a request succeeded or gave up.
    pub failovers: u64,
}

struct RouterShared {
    ring: HashRing,
    shards: Vec<ShardEndpoint>,
    routed: AtomicU64,
    failovers: AtomicU64,
}

/// A successful fleet request, annotated with where it was served.
#[derive(Clone, Debug)]
pub struct FleetReply {
    /// Shard that produced the reply.
    pub shard: usize,
    /// Shards skipped or failed before this one answered (0 = served by the
    /// key's owner).
    pub failovers: u32,
    /// The shard's reply.
    pub reply: ScoreReply,
}

/// A cheap, cloneable handle routing score requests across a shard fleet.
#[derive(Clone)]
pub struct FleetClient {
    shared: Arc<RouterShared>,
}

impl FleetClient {
    /// A router over `clients` (one per shard), with per-shard breakers
    /// configured by `breaker`. Each shard's chaos wrapper draws from
    /// `chaos_seed` plus the shard index and starts at rate 0 (inert).
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(clients: Vec<ServeClient>, chaos_seed: u64, breaker: BreakerConfig) -> Self {
        assert!(!clients.is_empty(), "fleet needs at least one shard");
        let n = clients.len();
        let shards = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| ShardEndpoint {
                transport: FlakyTransport::new(client, splitmix64(chaos_seed ^ (i as u64)), 0.0),
                breaker: Mutex::new(CircuitBreaker::new(breaker)),
            })
            .collect();
        FleetClient {
            shared: Arc::new(RouterShared {
                ring: HashRing::new(n),
                shards,
                routed: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
            }),
        }
    }

    /// The shard owning `(model, task)`'s routing key.
    pub fn owner_of(&self, model: &str, task: &SearchTask) -> usize {
        self.shared
            .ring
            .owner(route_key(model, task_fingerprint(task)))
    }

    /// Failover preference order for `(model, task)`.
    pub fn route_order(&self, model: &str, task: &SearchTask) -> Vec<usize> {
        self.shared
            .ring
            .order(route_key(model, task_fingerprint(task)))
    }

    /// Sets the chaos fault rate on one shard's transport (0 = inert).
    pub fn fault(&self, shard: usize, rate: f64) {
        self.shared.shards[shard].transport.set_fail_rate(rate);
    }

    /// Failures injected into `shard` by its chaos wrapper so far.
    pub fn injected(&self, shard: usize) -> u64 {
        self.shared.shards[shard].transport.injected()
    }

    /// The router-side breaker snapshot for `shard`.
    pub fn breaker(&self, shard: usize) -> BreakerSnapshot {
        self.shared.shards[shard].lock_breaker().snapshot()
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.shared.routed.load(Ordering::Relaxed),
            failovers: self.shared.failovers.load(Ordering::Relaxed),
        }
    }

    /// Routes one request: tries each shard in key order, skipping open
    /// breakers and failing over on transient errors.
    ///
    /// # Errors
    ///
    /// Deterministic rejections propagate from the first shard that saw
    /// them; [`ServeError::NoHealthyShard`] when every shard was skipped or
    /// failed transiently.
    pub fn score_detailed(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<FleetReply, ServeError> {
        let order = self
            .shared
            .ring
            .order(route_key(model, task_fingerprint(task)));
        self.shared.routed.fetch_add(1, Ordering::Relaxed);
        let mut attempted = 0usize;
        let mut failovers = 0u32;
        for &shard in &order {
            let ep = &self.shared.shards[shard];
            attempted += 1;
            if !ep.lock_breaker().allow_request() {
                failovers += 1;
                self.shared.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match ep.transport.score(model, task, schedules, deadline) {
                Ok(reply) => {
                    ep.lock_breaker().on_success();
                    return Ok(FleetReply {
                        shard,
                        failovers,
                        reply,
                    });
                }
                Err(err) if is_transient(&err) => {
                    // Infrastructure failure: count it against the shard and
                    // fail over to the next in key order.
                    ep.lock_breaker().on_failure();
                    failovers += 1;
                    self.shared.failovers.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => return Err(err),
            }
        }
        Err(ServeError::NoHealthyShard { attempted })
    }
}

impl ScoreTransport for FleetClient {
    fn score(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<ScoreReply, ServeError> {
        self.score_detailed(model, task, schedules, deadline)
            .map(|r| r.reply)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn ring_order_is_deterministic_and_covers_all_shards() {
        let ring = HashRing::new(5);
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let order = ring.order(key);
            assert_eq!(order.len(), 5);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "order is a permutation");
            assert_eq!(order, ring.order(key), "stable across calls");
            assert_eq!(order[0], ring.owner(key));
        }
    }

    #[test]
    fn ring_ownership_is_roughly_uniform() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[ring.owner(splitmix64(i))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1600).contains(&c),
                "shard {shard} owns {c} of 4000 keys — far from uniform"
            );
        }
    }

    #[test]
    fn route_key_ignores_everything_but_model_and_fp() {
        assert_eq!(route_key("m", 42), route_key("m", 42));
        assert_ne!(route_key("m", 42), route_key("m", 43));
        assert_ne!(route_key("m", 42), route_key("n", 42));
    }
}
