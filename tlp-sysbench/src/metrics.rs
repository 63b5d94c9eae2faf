//! The benchmark's metric tables: names, units, directions and regression
//! bounds. `BENCHMARK.json` at the repository root lists the same tables; the
//! `benchmark_json_matches_tables` test in `main.rs` fails if they drift.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, gated by `bound`: the share of the
/// parent's median by which it may get worse before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer, from the traced pass. Not gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An *op* is a `predict` call of 512 candidates (`score_cold`), a tuning
/// round (`tune_search`) or a 16-candidate request (`serve_*`); a
/// *candidate* is a scored schedule, except on `tune_search` where it is a
/// measured one (`programs_per_round` per completed round).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "cand_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// `*_ns` are ns per candidate from timing the layer's public call on the
/// workload's own inputs on one thread; counts and shares come from the
/// traced trial and are 0 on a workload that does not reach the layer.
pub const PER_LAYER: [PerLayer; 44] = [
    // tlp-schedule
    layer("schedule.fingerprint_ns", "ns", Lower),
    layer("schedule.clone_ns", "ns", Lower),
    // tlp-verify
    layer("verify.check_ns", "ns", Lower),
    layer("verify.rejected", "count", Lower),
    // tlp-autotuner (+ tlp-hwsim under measure)
    layer("sketch.random_ns", "ns", Lower),
    layer("sketch.mutate_emit_ns", "ns", Lower),
    layer("measure.program_ns", "ns", Lower),
    layer("search.generated", "count", Lower),
    layer("search.pruned", "count", Lower),
    layer("search.full_scored", "count", Lower),
    layer("tuner.rounds_per_s", "1/s", Higher),
    layer("tuner.round_ms", "ms", Lower),
    layer("tuner.model_share", "ratio", Lower),
    layer("tuner.result_digest", "hash", Higher),
    // tlp::features
    layer("features.extract_ns", "ns", Lower),
    // tlp::model / tlp-nn
    layer("model.predict_ns", "ns", Lower),
    layer("model.flop_per_cand", "flop", Lower),
    layer("model.gflop_per_s", "gflop/s", Higher),
    // tlp::engine
    layer("engine.miss_ns", "ns", Lower),
    layer("engine.hit_ns", "ns", Lower),
    layer("engine.self_ns", "ns", Lower),
    layer("engine.parallel_x", "x", Higher),
    layer("engine.hit_ratio", "ratio", Higher),
    layer("engine.micro_batches", "count", Lower),
    layer("engine.busy_share", "ratio", Lower),
    layer("engine.mb_share", "ratio", Higher),
    // tlp-serve::server
    layer("serve.submit_us", "us", Lower),
    layer("serve.queue_wait_us", "us", Lower),
    layer("serve.engine_us", "us", Lower),
    layer("serve.reply_gap_us", "us", Lower),
    layer("serve.jobs_per_batch", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.req_p99_us", "us", Lower),
    layer("serve.vs_direct_x", "x", Higher),
    // tlp-serve::registry + tlp-modelcheck
    layer("registry.install_ms", "ms", Lower),
    // harness
    layer("bench.pool_build_s", "s", Lower),
    layer("bench.oracle_s", "s", Lower),
    layer("bench.oracle_digest", "hash", Higher),
    layer("bench.trials", "count", Higher),
    layer("bench.threads", "count", Higher),
    layer("bench.speed_x", "x", Higher),
    layer("trace.overhead_x", "x", Lower),
    layer("trace.coverage", "ratio", Higher),
];

/// Per-layer values of one traced pass, keyed by [`PER_LAYER`] name. Every
/// name starts at 0 so each workload reports the full table.
pub struct LayerReport(Vec<f64>);

impl LayerReport {
    pub fn new() -> Self {
        LayerReport(vec![0.0; PER_LAYER.len()])
    }

    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] — a typo in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .map_or(0.0, |i| self.0[i])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static PerLayer, f64)> + '_ {
        PER_LAYER.iter().zip(self.0.iter().copied())
    }
}
