//! TenSet-like dataset generation on simulated hardware.
//!
//! TenSet collected ~4,000 Ansor-generated programs per subgraph on six
//! platforms. This module reproduces the pipeline at reduced scale: for every
//! distinct subgraph of a network pool, sample schedules with the sketch
//! policy (random plus mutation-refined, giving the quality spread a search
//! produces), lower them once, and record latencies on *all* requested
//! platforms — yielding the multi-label records MTL-TLP trains on.

use crate::record::{Dataset, ProgramRecord, TaskData};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use tlp_autotuner::{Candidate, ScheduleDecision, SketchPolicy};
use tlp_hwsim::{lower, Platform, Simulator};
use tlp_schedule::ScheduleSequence;
use tlp_workload::{distinct_subgraphs, test_networks, training_networks, Network};

/// Dataset-generation knobs.
#[derive(Clone, Debug)]
pub struct DatasetConfig {
    /// Programs sampled per subgraph (TenSet: up to 4,000; default here 96).
    pub programs_per_task: usize,
    /// Fraction of programs produced by mutating the best random candidates
    /// (mimics the distribution a real search produces).
    pub refined_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            programs_per_task: 96,
            refined_fraction: 0.3,
            seed: 0xDA7A,
        }
    }
}

/// Generates a dataset over the standard network pools (training pool +
/// the five held-out test networks) for a platform group.
///
/// # Panics
///
/// Panics if `platforms` is empty or mixes CPUs and GPUs (tensor programs
/// are not portable between device classes — paper §5.2).
pub fn generate_dataset(platforms: &[Platform], config: &DatasetConfig) -> Dataset {
    let trains = training_networks();
    let tests = test_networks();
    generate_dataset_for(&trains, &tests, platforms, config)
}

/// Generates a dataset from explicit training and test network pools.
///
/// # Panics
///
/// See [`generate_dataset`].
pub fn generate_dataset_for(
    training: &[Network],
    testing: &[Network],
    platforms: &[Platform],
    config: &DatasetConfig,
) -> Dataset {
    assert!(!platforms.is_empty(), "need at least one platform");
    let gpu = platforms[0].is_gpu();
    assert!(
        platforms.iter().all(|p| p.is_gpu() == gpu),
        "cannot mix CPU and GPU platforms in one dataset"
    );
    let policy = if gpu {
        SketchPolicy::gpu()
    } else {
        SketchPolicy::cpu()
    };
    let sim = Simulator::new();

    let train_insts = distinct_subgraphs(training);
    let test_insts = distinct_subgraphs(testing);
    let test_keys: HashSet<u64> = test_insts.iter().map(|i| i.subgraph.key()).collect();

    let mut tasks = Vec::new();
    let mut seen_keys = HashSet::new();
    // Training-pool tasks first; test tasks keep their own flag. A task that
    // appears in both pools is held out (test contamination guard).
    for (insts, is_test) in [(&test_insts, true), (&train_insts, false)] {
        for inst in insts.iter() {
            let key = inst.subgraph.key();
            if !seen_keys.insert(key) {
                continue;
            }
            let from_test_set = is_test || test_keys.contains(&key);
            let mut rng = SmallRng::seed_from_u64(config.seed ^ key);
            let programs =
                sample_task_programs(&policy, &inst.subgraph, platforms, &sim, config, &mut rng);
            tasks.push(TaskData {
                subgraph: inst.subgraph.clone(),
                weight: inst.weight,
                from_test_set,
                programs,
            });
        }
    }
    Dataset {
        platforms: platforms.to_vec(),
        tasks,
    }
}

fn sample_task_programs(
    policy: &SketchPolicy,
    subgraph: &tlp_workload::Subgraph,
    platforms: &[Platform],
    sim: &Simulator,
    config: &DatasetConfig,
    rng: &mut SmallRng,
) -> Vec<ProgramRecord> {
    let total = config.programs_per_task;
    let n_random = ((total as f64) * (1.0 - config.refined_fraction)).ceil() as usize;
    let opts = tlp_verify::VerifyOptions {
        gpu: Some(platforms[0].is_gpu()),
    };
    let mut verifier = tlp_verify::Verifier::new(subgraph, &opts);
    let sketch = policy.compile(subgraph);
    let mut seen = HashSet::new();
    let mut candidates: Vec<Candidate> = Vec::with_capacity(total);

    let mut tries = 0;
    while candidates.len() < n_random && tries < total * 20 {
        tries += 1;
        let c = sketch.random_candidate(rng);
        if seen.insert(c.sequence.fingerprint()) {
            candidates.push(c);
        }
    }

    // Measure the random wave, then refine mutants of the best ones so the
    // dataset contains the near-optimal region a search would visit.
    let mut wave: Vec<(ScheduleDecision, ProgramRecord)> = candidates
        .into_iter()
        .filter_map(|c| {
            let record = make_record(sim, subgraph, platforms, &mut verifier, c.sequence)?;
            Some((c.decision, record))
        })
        .collect();
    wave.sort_by(|a, b| {
        a.1.latencies[0]
            .partial_cmp(&b.1.latencies[0])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (parents, mut out): (Vec<ScheduleDecision>, Vec<ProgramRecord>) = wave.into_iter().unzip();

    let elite = parents.len().clamp(1, 8);
    let mut refine_tries = 0;
    while out.len() < total && !parents.is_empty() && refine_tries < total * 20 {
        refine_tries += 1;
        let mut d = parents[refine_tries % elite].clone();
        sketch.mutate(&mut d, rng);
        let sequence = sketch.emit(&d);
        if !seen.insert(sequence.fingerprint()) {
            continue;
        }
        if let Some(record) = make_record(sim, subgraph, platforms, &mut verifier, sequence) {
            out.push(record);
        }
    }
    out
}

/// Lowers `schedule` once and records its latency on every platform, or
/// `None` if it does not lower.
fn make_record(
    sim: &Simulator,
    subgraph: &tlp_workload::Subgraph,
    platforms: &[Platform],
    verifier: &mut tlp_verify::Verifier,
    schedule: ScheduleSequence,
) -> Option<ProgramRecord> {
    let spec = lower(subgraph, &schedule).ok()?;
    let fp = schedule.fingerprint();
    let latencies = platforms
        .iter()
        .map(|p| sim.latency(p, subgraph, &spec, fp))
        .collect();
    Some(ProgramRecord {
        validity: verifier.check(&schedule).summary(),
        schedule,
        latencies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_workload::{bert_tiny, mobilenet_v2};

    fn tiny_config() -> DatasetConfig {
        DatasetConfig {
            programs_per_task: 12,
            refined_fraction: 0.25,
            seed: 42,
        }
    }

    #[test]
    fn generates_multi_platform_records() {
        let platforms = [Platform::i7_10510u(), Platform::e5_2673()];
        let ds = generate_dataset_for(
            &[bert_tiny(1, 64)],
            &[mobilenet_v2(1, 96)],
            &platforms,
            &tiny_config(),
        );
        assert!(ds.num_programs() > 0);
        assert!(ds.test_tasks().count() > 0);
        assert!(ds.train_tasks().count() > 0);
        for t in &ds.tasks {
            for r in &t.programs {
                assert_eq!(r.latencies.len(), 2);
                assert!(r.latencies.iter().all(|&l| l > 0.0));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let platforms = [Platform::i7_10510u()];
        let nets = [bert_tiny(1, 64)];
        let a = generate_dataset_for(&nets, &[], &platforms, &tiny_config());
        let b = generate_dataset_for(&nets, &[], &platforms, &tiny_config());
        assert_eq!(a.num_programs(), b.num_programs());
        for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(ta.programs, tb.programs);
        }
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_device_classes_panics() {
        let platforms = [Platform::i7_10510u(), Platform::tesla_t4()];
        let _ = generate_dataset_for(&[bert_tiny(1, 64)], &[], &platforms, &tiny_config());
    }

    #[test]
    fn generated_records_carry_clean_validity_labels() {
        // Generation only keeps candidates that lower, and everything the
        // sketch policy emits is statically valid — so the recorded labels
        // must all be error-free and retain_valid() must drop nothing.
        let platforms = [Platform::i7_10510u()];
        let mut ds = generate_dataset_for(&[bert_tiny(1, 64)], &[], &platforms, &tiny_config());
        let v = crate::stats::validity(&ds);
        assert_eq!(v.total, ds.num_programs());
        assert_eq!(v.valid, v.total);
        assert_eq!(ds.retain_valid(), 0);
        assert_eq!(ds.num_programs(), v.total);
    }

    #[test]
    fn retain_valid_drops_records_with_error_labels() {
        let platforms = [Platform::i7_10510u()];
        let mut ds = generate_dataset_for(&[bert_tiny(1, 64)], &[], &platforms, &tiny_config());
        let before = ds.num_programs();
        // Forge one poisoned record, as if it came from a buggy collector.
        ds.tasks[0].programs[0].validity = tlp_verify::ValiditySummary {
            errors: 2,
            warnings: 0,
            lints: 0,
        };
        assert_eq!(ds.retain_valid(), 1);
        assert_eq!(ds.num_programs(), before - 1);
    }

    #[test]
    fn labels_valid_on_generated_data() {
        let platforms = [Platform::i7_10510u()];
        let ds = generate_dataset_for(&[bert_tiny(1, 64)], &[], &platforms, &tiny_config());
        for t in &ds.tasks {
            let labels = t.labels(0);
            assert!(labels.iter().all(|&l| l > 0.0 && l <= 1.0 + 1e-6));
            assert!(labels.iter().any(|&l| (l - 1.0).abs() < 1e-6));
        }
    }
}
