//! The end-to-end tuning loop (Ansor's outer algorithm).
//!
//! Per round (paper §6.3): generate candidates with evolutionary search
//! guided by the cost model, pick the top programs, measure them on the
//! (simulated) target, feed measurements back to online models, and move to
//! the next task chosen by the task scheduler. "Tuning 2,000 times" is 200
//! rounds × 10 measured programs.

use crate::cost_model::CostModel;
use crate::draft::DraftScorer;
use crate::evolutionary::{EvolutionConfig, SearchStats, Searcher};
use crate::measure::{FailureCounts, MeasureRecord, Measurer};
use crate::sketch::SketchPolicy;
use crate::task::SearchTask;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;
use tlp_hwsim::{FaultModel, FaultRates, Platform};
use tlp_workload::Network;

/// Salt xor-ed into the tuning seed to derive the fault-model seed, so the
/// fault schedule is decorrelated from (but still determined by) the search
/// RNG seed.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0BAD_C0DE;

/// Simulated cost of one draft-head score relative to one full-model score.
/// The draft is a ~1K-parameter linear head with no program generation; its
/// per-candidate cost is charged at this ratio of the full model's.
const DRAFT_COST_RATIO: f64 = 1e-3;

/// Candidates the cost model scores per round in the reference system
/// (Ansor evaluates ~10,000 schedule sequences per subgraph per round,
/// paper §6.3). The per-candidate pipeline cost is charged for this pool
/// regardless of the reduced evolution population actually searched.
const NOMINAL_POOL: f64 = 10_000.0;

/// Knobs of a tuning run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuningOptions {
    /// Total tuning rounds across all tasks (the paper uses 200).
    pub rounds: usize,
    /// Programs measured per round (the paper uses 10).
    pub programs_per_round: usize,
    /// Evolutionary-search configuration.
    pub evolution: EvolutionConfig,
    /// RNG seed.
    pub seed: u64,
    /// Fault-injection rates for the measurement pipeline
    /// ([`FaultRates::ZERO`] — the default — reproduces the fault-free path
    /// bit-for-bit).
    pub faults: FaultRates,
}

impl Default for TuningOptions {
    fn default() -> Self {
        TuningOptions {
            rounds: 200,
            programs_per_round: 10,
            evolution: EvolutionConfig::default(),
            seed: 0x7190,
            faults: FaultRates::ZERO,
        }
    }
}

/// Per-round progress snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundLog {
    /// Round number (1-based).
    pub round: usize,
    /// Which task was tuned this round.
    pub task_index: usize,
    /// Cumulative search time (simulated + real), seconds.
    pub search_time_s: f64,
    /// Weighted workload latency Σ weight·best(task), seconds. Only
    /// comparable across rounds once `seeded` is true.
    pub workload_latency_s: f64,
    /// Whether every task has at least one measurement by this round.
    pub seeded: bool,
    /// This round's search accounting (candidate generation, pruning, and
    /// draft/full scoring splits). `stats.draft_acceptance()` is the
    /// round's draft-acceptance rate.
    pub stats: SearchStats,
}

/// The outcome of tuning one network on one platform.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuningReport {
    /// Cost-model name used.
    pub model_name: String,
    /// Network name.
    pub network: String,
    /// Platform name.
    pub platform: String,
    /// Per-round progress.
    pub rounds: Vec<RoundLog>,
    /// Best measured latency per task, seconds.
    pub best_per_task: Vec<f64>,
    /// Total hardware measurements.
    pub measurements: u64,
    /// Measurements that failed after exhausting retries.
    pub measurements_failed: u64,
    /// Retry attempts the measurer performed beyond first tries.
    pub retries: u64,
    /// Per-class fault events observed during measurement.
    pub failures: FailureCounts,
    /// Rounds whose entire measurement batch failed (the tuner skipped the
    /// model update and continued).
    pub failed_rounds: u64,
    /// All measurement records, tagged with their task index (reusable as a
    /// dataset). Failed measurements carry their error class, TenSet-style.
    pub records: Vec<(usize, MeasureRecord)>,
    /// Search accounting aggregated across all rounds — the single source
    /// of truth for generated/pruned candidates and draft/full scoring
    /// splits (per-round splits live in each [`RoundLog::stats`]).
    pub search: SearchStats,
    /// The exact evolutionary-search knobs the run used, so reports and
    /// bench JSON rows are self-describing.
    pub evolution: EvolutionConfig,
}

impl TuningReport {
    /// Final weighted workload latency (the tuning objective), seconds.
    pub fn final_latency_s(&self) -> f64 {
        self.rounds
            .last()
            .map(|r| r.workload_latency_s)
            .unwrap_or(f64::INFINITY)
    }

    /// Total search time, seconds.
    pub fn total_search_time_s(&self) -> f64 {
        self.rounds.last().map(|r| r.search_time_s).unwrap_or(0.0)
    }

    /// The earliest cumulative search time at which the weighted workload
    /// latency reached `target` (seconds), if ever.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.seeded && r.workload_latency_s <= target)
            .map(|r| r.search_time_s)
    }
}

/// Tunes every subgraph of `network` for `platform` with the given cost model.
///
/// The first pass gives each task one round (the paper's "minimum times");
/// remaining rounds go to the task with the largest weighted best latency —
/// the simple impact-based task scheduler.
///
/// Rankings draft with per-task heads over the built-in schedule
/// statistics, shared by all rounds of this run. Callers with a
/// higher-fidelity feature set (e.g. the TLP extractor), or a scorer to
/// reuse across runs, pass their own to [`tune_network_with_draft`].
pub fn tune_network(
    network: &Network,
    platform: &Platform,
    model: &mut dyn CostModel,
    opts: &TuningOptions,
) -> TuningReport {
    let mut draft = DraftScorer::default();
    tune_network_with_draft(network, platform, model, opts, &mut draft)
}

/// Like [`tune_network`], drafting with the caller's [`DraftScorer`]: the
/// warm-up progress and distilled weights persist in it, so a scorer can
/// even be reused across tuning runs.
pub fn tune_network_with_draft(
    network: &Network,
    platform: &Platform,
    model: &mut dyn CostModel,
    opts: &TuningOptions,
    draft: &mut DraftScorer,
) -> TuningReport {
    let tasks = SearchTask::from_network(network, platform);
    let policy = if platform.is_gpu() {
        SketchPolicy::gpu()
    } else {
        SketchPolicy::cpu()
    };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let fault_model = FaultModel::for_platform(opts.seed ^ FAULT_SEED_SALT, opts.faults, platform);
    let mut measurer = Measurer::with_faults(platform.is_gpu(), fault_model);
    let mut best: Vec<f64> = vec![f64::INFINITY; tasks.len()];
    let mut seen: Vec<HashSet<u64>> = vec![HashSet::new(); tasks.len()];
    let mut rounds = Vec::with_capacity(opts.rounds);
    let mut records = Vec::new();
    let mut search_stats = SearchStats::default();
    let mut failed_rounds: u64 = 0;

    for round in 1..=opts.rounds {
        // Task scheduler: seed every task once, then chase weighted impact.
        let ti = if round <= tasks.len() {
            round - 1
        } else {
            match (0..tasks.len()).max_by(|&a, &b| {
                let wa = best[a] * tasks[a].weight as f64;
                let wb = best[b] * tasks[b].weight as f64;
                wa.partial_cmp(&wb).unwrap_or(std::cmp::Ordering::Equal)
            }) {
                Some(i) => i,
                None => unreachable!("tune_network checked tasks is non-empty"),
            }
        };
        let task = &tasks[ti];

        let wall = Instant::now();
        let outcome = Searcher::new(task, &policy, &*model, &opts.evolution)
            .with_draft(draft)
            .run(opts.programs_per_round * 2, &mut rng);
        let (candidates, round_stats) = (outcome.candidates, outcome.stats);
        search_stats.merge(&round_stats);
        measurer.clock.charge_real(wall.elapsed().as_secs_f64());
        // Charge the cost model's per-candidate pipeline cost for the
        // reference-scale candidate pool (the reduced evolution population
        // stands in for Ansor's ~10k-sequence rounds). Only the verified
        // fraction pays the full pipeline; draft-ranked candidates cost
        // [`DRAFT_COST_RATIO`] of a full score. With no draft scoring the
        // factor is exactly 1.0, so the `draft_keep >= 1.0` clock is the
        // score-everything clock.
        let scored = round_stats.full_scored + round_stats.draft_scored;
        let full_fraction = if scored == 0 {
            1.0
        } else {
            round_stats.full_scored as f64 / scored as f64
        };
        let pool_cost_factor = full_fraction + (1.0 - full_fraction) * DRAFT_COST_RATIO;
        measurer
            .clock
            .charge_real(model.pipeline_cost().per_candidate_s() * NOMINAL_POOL * pool_cost_factor);

        // Measure up to `programs_per_round` unseen candidates.
        let mut batch = Vec::new();
        for c in candidates {
            if batch.len() >= opts.programs_per_round {
                break;
            }
            if seen[ti].insert(c.sequence.fingerprint()) {
                batch.push(c.sequence);
            }
        }
        let measured = measurer.measure_batch(task, &batch);
        let ok: Vec<&MeasureRecord> = measured.iter().filter(|r| r.is_ok()).collect();
        if !ok.is_empty() {
            let seqs: Vec<_> = ok.iter().map(|r| r.schedule.clone()).collect();
            let lats: Vec<f64> = ok.iter().map(|r| r.latency_s).collect();
            // A mismatch here is a tuner bug (both vectors come from the
            // same measurement batch), so surface it loudly.
            if let Err(e) = model.update(task, &seqs, &lats) {
                panic!("cost-model update rejected measurement batch: {e}");
            }
            for r in &ok {
                best[ti] = best[ti].min(r.latency_s);
            }
        } else if !measured.is_empty() {
            // Whole round lost to faults: skip the model update, keep
            // tuning (the next round redraws candidates).
            failed_rounds += 1;
        }
        records.extend(measured.into_iter().map(|r| (ti, r)));

        let seeded = best.iter().all(|b| b.is_finite());
        let workload_latency: f64 = best
            .iter()
            .zip(&tasks)
            .map(|(&b, t)| {
                if b.is_finite() {
                    b * t.weight as f64
                } else {
                    0.0
                }
            })
            .sum();
        rounds.push(RoundLog {
            round,
            task_index: ti,
            search_time_s: measurer.clock.total_s(),
            workload_latency_s: workload_latency,
            seeded,
            stats: round_stats,
        });
    }

    TuningReport {
        model_name: model.name().to_string(),
        network: network.name.clone(),
        platform: platform.name.clone(),
        rounds,
        best_per_task: best,
        measurements: measurer.count,
        measurements_failed: measurer.count_failed,
        retries: measurer.retries,
        failures: measurer.failures,
        failed_rounds,
        records,
        search: search_stats,
        evolution: opts.evolution,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::cost_model::RandomModel;
    use tlp_workload::bert_tiny;

    fn small_opts(rounds: usize) -> TuningOptions {
        TuningOptions {
            rounds,
            programs_per_round: 4,
            evolution: EvolutionConfig {
                population: 16,
                generations: 1,
                ..EvolutionConfig::default()
            },
            ..TuningOptions::default()
        }
    }

    #[test]
    fn tuning_improves_over_rounds() {
        let net = bert_tiny(1, 64);
        let platform = Platform::i7_10510u();
        let mut model = RandomModel::new(1);
        let n_tasks = net.num_tasks();
        let report = tune_network(&net, &platform, &mut model, &small_opts(n_tasks * 3));
        assert!(report.final_latency_s().is_finite());
        // Latency after all rounds must be <= right after seeding.
        let seeded = report.rounds[n_tasks - 1].workload_latency_s;
        assert!(report.final_latency_s() <= seeded + 1e-12);
        // Dedup can shrink late batches below programs_per_round.
        let m = report.measurements as usize;
        assert!(
            m <= n_tasks * 3 * 4 && m >= n_tasks * 3 * 2,
            "measurements {m}"
        );
    }

    #[test]
    fn search_time_is_monotonic() {
        let net = bert_tiny(1, 64);
        let platform = Platform::i7_10510u();
        let mut model = RandomModel::new(2);
        let report = tune_network(&net, &platform, &mut model, &small_opts(net.num_tasks()));
        for w in report.rounds.windows(2) {
            assert!(w[1].search_time_s >= w[0].search_time_s);
        }
        assert!(report.total_search_time_s() > 0.0);
    }

    #[test]
    fn time_to_reach_finds_threshold() {
        let net = bert_tiny(1, 64);
        let platform = Platform::i7_10510u();
        let mut model = RandomModel::new(3);
        let report = tune_network(
            &net,
            &platform,
            &mut model,
            &small_opts(net.num_tasks() * 2),
        );
        let final_lat = report.final_latency_s();
        let t = report.time_to_reach(final_lat * 1.0001).expect("reached");
        assert!(t <= report.total_search_time_s());
        assert_eq!(report.time_to_reach(0.0), None);
    }
}
