//! The serving fleet: N shards, one router, aggregated observability.
//!
//! [`ServingFleet`] is the assembly: it starts `shards` independent
//! [`Server`]s — each with a **private** [`ModelRegistry`] and batcher
//! pool, so per-shard score caches stay hot for the keys the ring assigns
//! them — and fronts them with a [`FleetClient`]. Installs fan out to every
//! shard (each shard clones the model), so any shard can answer any key:
//! that is what makes failover loss-free rather than partial.
//!
//! [`FleetSnapshot`] is the fleet-wide view: router counters, per-shard
//! breaker/health/chaos rows, and each shard's full [`ServeSnapshot`],
//! with the fleet totals summed — one JSON document an operator (or the
//! `serving_fleet` bench) can read top-down.

use crate::backend::{BreakerConfig, BreakerSnapshot};
use crate::health::{HealthPolicy, ShardHealth};
use crate::registry::ModelRegistry;
use crate::router::{FleetClient, RouterStats};
use crate::server::{ServeConfig, Server};
use crate::stats::ServeSnapshot;
use serde::Serialize;
use std::sync::Arc;
use tlp::engine::EngineConfig;
use tlp::persist::{PersistError, SavedTlp};
use tlp::{FeatureExtractor, TlpModel};

/// Fleet sizing and fault-handling knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of server shards.
    pub shards: usize,
    /// Per-shard server configuration (queue, batchers, batching policy).
    pub serve: ServeConfig,
    /// Per-shard engine configuration (cache, micro-batching).
    pub engine: EngineConfig,
    /// Router-side per-shard breaker thresholds.
    pub breaker: BreakerConfig,
    /// Health-gossip cadence and sickness thresholds.
    pub health: HealthPolicy,
    /// Seed for the per-shard chaos wrappers (rate 0 until faulted).
    pub chaos_seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            serve: ServeConfig::default(),
            engine: EngineConfig::default(),
            breaker: BreakerConfig::default(),
            health: HealthPolicy::default(),
            chaos_seed: 0x5eed_f1ee_7001_cafe,
        }
    }
}

/// One shard's row in a [`FleetSnapshot`].
#[derive(Clone, Debug, Serialize)]
pub struct ShardSnapshot {
    /// Shard index (also its ring identity).
    pub shard: usize,
    /// Router-side breaker counters for this shard.
    pub breaker: BreakerSnapshot,
    /// Latest published health snapshot, if the shard's window has filled.
    pub health: Option<ShardHealth>,
    /// Failures injected by the shard's chaos wrapper.
    pub chaos_injected: u64,
    /// The shard server's own stats snapshot.
    pub serve: ServeSnapshot,
}

/// A point-in-time fleet-wide aggregation of per-shard state.
#[derive(Clone, Debug, Serialize)]
pub struct FleetSnapshot {
    /// Router counters (routed requests, failover hops, gossip trips).
    pub router: RouterStats,
    /// Sum of per-shard admitted requests.
    pub submitted: u64,
    /// Sum of per-shard completed requests.
    pub completed: u64,
    /// Sum of per-shard scored candidates.
    pub candidates: u64,
    /// Per-shard rows, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

impl FleetSnapshot {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

/// N server shards behind one consistent-hash router.
pub struct ServingFleet {
    servers: Vec<Server>,
    client: FleetClient,
}

impl ServingFleet {
    /// Starts `config.shards` servers, each over a private registry, and
    /// the router in front of them.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn start(config: FleetConfig) -> ServingFleet {
        assert!(config.shards > 0, "fleet needs at least one shard");
        let servers: Vec<Server> = (0..config.shards)
            .map(|_| {
                Server::start(
                    Arc::new(ModelRegistry::new(config.engine)),
                    config.serve.clone(),
                )
            })
            .collect();
        let clients = servers.iter().map(Server::client).collect();
        let client = FleetClient::new(clients, config.chaos_seed, config.breaker, config.health);
        ServingFleet { servers, client }
    }

    /// A routing client for this fleet (cheap to clone per caller thread).
    pub fn client(&self) -> FleetClient {
        self.client.clone()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.servers.len()
    }

    /// One shard's registry (tests install divergent models through this to
    /// prove routing *doesn't* mix shards).
    pub fn registry(&self, shard: usize) -> &Arc<ModelRegistry> {
        self.servers[shard].registry()
    }

    /// Installs a snapshot on every shard under `name`. All-or-error: the
    /// first rejecting shard aborts the fan-out (earlier shards keep the
    /// install — registries audit independently, so a rejection on one
    /// means the same rejection everywhere in practice).
    ///
    /// # Errors
    ///
    /// Propagates the first shard's [`PersistError`].
    pub fn install(&self, name: &str, snapshot: &SavedTlp) -> Result<Vec<u64>, PersistError> {
        self.servers
            .iter()
            .map(|s| s.registry().install(name, snapshot))
            .collect()
    }

    /// Installs an in-memory model on every shard, scored via head 0 (each
    /// shard gets its own clone, so shard caches never share mutable state).
    ///
    /// # Errors
    ///
    /// Propagates the first shard's [`PersistError`].
    pub fn install_tlp(
        &self,
        name: &str,
        model: &TlpModel,
        extractor: &FeatureExtractor,
    ) -> Result<Vec<u64>, PersistError> {
        self.servers
            .iter()
            .map(|s| {
                s.registry()
                    .install_tlp(name, model.clone(), extractor.clone())
            })
            .collect()
    }

    /// The fleet-wide snapshot: router counters plus one row per shard.
    pub fn snapshot(&self) -> FleetSnapshot {
        let serve: Vec<ServeSnapshot> = self.servers.iter().map(Server::stats).collect();
        self.assemble(serve)
    }

    /// Graceful shutdown: drains every shard and returns the final
    /// fleet-wide snapshot.
    pub fn shutdown(self) -> FleetSnapshot {
        let ServingFleet { servers, client } = self;
        let serve: Vec<ServeSnapshot> = servers.into_iter().map(Server::shutdown).collect();
        ServingFleet::assemble_with(&client, serve)
    }

    fn assemble(&self, serve: Vec<ServeSnapshot>) -> FleetSnapshot {
        ServingFleet::assemble_with(&self.client, serve)
    }

    fn assemble_with(client: &FleetClient, serve: Vec<ServeSnapshot>) -> FleetSnapshot {
        let health = client.health();
        let shards: Vec<ShardSnapshot> = serve
            .into_iter()
            .enumerate()
            .map(|(i, snap)| ShardSnapshot {
                shard: i,
                breaker: client.breaker(i),
                health: health.get(i).cloned().flatten(),
                chaos_injected: client.injected(i),
                serve: snap,
            })
            .collect();
        FleetSnapshot {
            router: client.stats(),
            submitted: shards.iter().map(|s| s.serve.submitted).sum(),
            completed: shards.iter().map(|s| s.serve.completed).sum(),
            candidates: shards.iter().map(|s| s.serve.candidates).sum(),
            shards,
        }
    }
}
