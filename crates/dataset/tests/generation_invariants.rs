//! Invariants of TenSet-like dataset generation.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

use tlp_dataset::{generate_dataset_for, DatasetConfig};
use tlp_hwsim::Platform;
use tlp_workload::{bert_tiny, mobilenet_v2};

fn cfg(n: usize) -> DatasetConfig {
    DatasetConfig {
        programs_per_task: n,
        ..DatasetConfig::default()
    }
}

#[test]
fn per_task_program_counts_respect_budget() {
    let ds = generate_dataset_for(&[bert_tiny(1, 64)], &[], &[Platform::i7_10510u()], &cfg(20));
    for t in &ds.tasks {
        assert!(
            t.programs.len() <= 20,
            "{}: {}",
            t.subgraph.name,
            t.programs.len()
        );
        assert!(
            t.programs.len() >= 4,
            "{}: too few programs",
            t.subgraph.name
        );
    }
}

#[test]
fn schedules_unique_within_each_task() {
    let ds = generate_dataset_for(&[bert_tiny(1, 64)], &[], &[Platform::i7_10510u()], &cfg(24));
    for t in &ds.tasks {
        let mut seen = std::collections::HashSet::new();
        for r in &t.programs {
            assert!(
                seen.insert(r.schedule.fingerprint()),
                "duplicate schedule in {}",
                t.subgraph.name
            );
        }
    }
}

#[test]
fn refinement_skews_toward_fast_programs() {
    // The refined tail mutates the best random candidates, so a dataset with
    // refinement must contain more near-optimal programs than a pure-random
    // one of the same size.
    let platforms = [Platform::i7_10510u()];
    let nets = [mobilenet_v2(1, 96)];
    let pure = generate_dataset_for(
        &nets,
        &[],
        &platforms,
        &DatasetConfig {
            programs_per_task: 32,
            refined_fraction: 0.0,
            seed: 9,
        },
    );
    let refined = generate_dataset_for(
        &nets,
        &[],
        &platforms,
        &DatasetConfig {
            programs_per_task: 32,
            refined_fraction: 0.5,
            seed: 9,
        },
    );
    let near_optimal_share = |ds: &tlp_dataset::Dataset| -> f64 {
        let mut hits = 0usize;
        let mut total = 0usize;
        for t in &ds.tasks {
            for &l in t.labels(0).iter() {
                total += 1;
                if l > 0.8 {
                    hits += 1;
                }
            }
        }
        hits as f64 / total.max(1) as f64
    };
    let p = near_optimal_share(&pure);
    let r = near_optimal_share(&refined);
    assert!(
        r > p,
        "refinement should enrich near-optimal programs: pure {p:.3}, refined {r:.3}"
    );
}

#[test]
fn platform_order_does_not_change_random_schedules() {
    // The refinement wave ranks candidates on platforms[0], so it is
    // order-dependent by design; the pure-random wave must not be.
    let pure = DatasetConfig {
        programs_per_task: 10,
        refined_fraction: 0.0,
        ..DatasetConfig::default()
    };
    let nets = [bert_tiny(1, 64)];
    let a = generate_dataset_for(
        &nets,
        &[],
        &[Platform::i7_10510u(), Platform::e5_2673()],
        &pure,
    );
    let b = generate_dataset_for(
        &nets,
        &[],
        &[Platform::e5_2673(), Platform::i7_10510u()],
        &pure,
    );
    // Same tasks and the same *set* of schedules (records are sorted by the
    // first platform's latency, so their order legitimately differs);
    // per-schedule latency columns swap.
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(ta.programs.len(), tb.programs.len());
        let by_fp: std::collections::HashMap<u64, &tlp_dataset::ProgramRecord> = tb
            .programs
            .iter()
            .map(|r| (r.schedule.fingerprint(), r))
            .collect();
        for ra in &ta.programs {
            let rb = by_fp
                .get(&ra.schedule.fingerprint())
                .expect("same schedule set");
            assert_eq!(ra.schedule, rb.schedule);
            assert_eq!(ra.latencies[0], rb.latencies[1]);
            assert_eq!(ra.latencies[1], rb.latencies[0]);
        }
    }
}

#[test]
fn test_set_flagging_follows_network_pools() {
    let ds = generate_dataset_for(
        &[bert_tiny(1, 64)],
        &[mobilenet_v2(1, 96)],
        &[Platform::i7_10510u()],
        &cfg(8),
    );
    assert!(ds.test_tasks().count() > 0);
    assert!(ds.train_tasks().count() > 0);
    for t in ds.test_tasks() {
        // MobileNet tasks are convs/pools, never dense/batch-matmul.
        assert_ne!(t.subgraph.anchor.name(), "dense_bert");
    }
}

#[test]
fn two_platform_generation_matches_the_pinned_digest() {
    // Pins every byte a small two-CPU collection produces: per task, each
    // record's schedule fingerprint, latency bits on both platforms and
    // verifier summary, in record order. A change to sampling, refinement,
    // ranking or measurement moves it.
    fn fold(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let ds = generate_dataset_for(
        &[bert_tiny(1, 64)],
        &[],
        &[Platform::i7_10510u(), Platform::e5_2673()],
        &DatasetConfig {
            programs_per_task: 16,
            seed: 7,
            ..DatasetConfig::default()
        },
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for t in &ds.tasks {
        fold(&mut digest, t.programs.len() as u64);
        for r in &t.programs {
            fold(&mut digest, r.schedule.fingerprint());
            for l in &r.latencies {
                fold(&mut digest, l.to_bits());
            }
            let v = r.validity;
            fold(&mut digest, u64::from(v.errors));
            fold(&mut digest, u64::from(v.warnings));
            fold(&mut digest, u64::from(v.lints));
        }
    }
    assert_eq!(
        (ds.tasks.len(), ds.num_programs(), digest),
        (7, 108, 0x3a23_b0e5_1e19_9640),
        "expected the pinned (tasks, programs, digest), got {:?}",
        (ds.tasks.len(), ds.num_programs(), format!("{digest:#x}"))
    );
}
