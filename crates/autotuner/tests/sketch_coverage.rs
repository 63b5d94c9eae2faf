//! Coverage invariants of the sketch policy: which primitive kinds appear,
//! and structural well-formedness of every emitted sequence.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use tlp_autotuner::{Candidate, SketchPolicy};
use tlp_schedule::PrimitiveKind;
use tlp_workload::{test_networks, AnchorOp, Subgraph};

fn sample_kinds(
    policy: &SketchPolicy,
    sg: &Subgraph,
    n: usize,
    seed: u64,
) -> HashSet<PrimitiveKind> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut kinds = HashSet::new();
    for _ in 0..n {
        let c = Candidate::random(policy, sg, &mut rng);
        for p in c.sequence.iter() {
            kinds.insert(p.kind);
        }
    }
    kinds
}

#[test]
fn cpu_sketches_cover_the_cpu_kind_set() {
    let sg = Subgraph::new(
        "c",
        AnchorOp::Conv2d {
            n: 1,
            cin: 64,
            hw: 28,
            cout: 64,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        },
    )
    .with_fused([tlp_workload::FusedOp::Relu]);
    let kinds = sample_kinds(&SketchPolicy::cpu(), &sg, 400, 1);
    for k in [
        PrimitiveKind::Split,
        PrimitiveKind::Reorder,
        PrimitiveKind::Fuse,
        PrimitiveKind::Annotation,
        PrimitiveKind::Pragma,
        PrimitiveKind::CacheWrite,
        PrimitiveKind::ComputeAt,
        PrimitiveKind::ComputeInline,
        PrimitiveKind::FollowSplit,
    ] {
        assert!(kinds.contains(&k), "CPU sketches never emit {k}");
    }
    // GPU-only kinds must not appear on CPU.
    assert!(!kinds.contains(&PrimitiveKind::CacheRead));
}

#[test]
fn gpu_sketches_bind_and_cache() {
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 256,
            n: 256,
            k: 128,
        },
    );
    let mut rng = SmallRng::seed_from_u64(2);
    let policy = SketchPolicy::gpu();
    let mut saw_cache_read = false;
    let mut saw_vthread = false;
    for _ in 0..200 {
        let c = Candidate::random(&policy, &sg, &mut rng);
        let anns: Vec<&str> = c.sequence.iter().flat_map(|p| p.extras.iter()).collect();
        assert!(
            anns.contains(&"blockIdx.x"),
            "every GPU schedule binds blocks"
        );
        assert!(
            anns.contains(&"threadIdx.x"),
            "every GPU schedule binds threads"
        );
        saw_vthread |= anns.contains(&"vthread");
        saw_cache_read |= c.sequence.count_kind(PrimitiveKind::CacheRead) > 0;
    }
    assert!(saw_vthread);
    assert!(saw_cache_read);
}

#[test]
fn rfactor_appears_for_small_spatial_large_reduction() {
    // rfactor targets reduction-heavy kernels with tiny output.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 4,
            n: 4,
            k: 4096,
        },
    );
    let kinds = sample_kinds(&SketchPolicy::cpu(), &sg, 300, 3);
    assert!(kinds.contains(&PrimitiveKind::Rfactor));
}

#[test]
fn every_test_network_task_gets_valid_sequences_under_mutation_chains() {
    let mut rng = SmallRng::seed_from_u64(4);
    for net in test_networks() {
        for inst in net.instances.iter().take(6) {
            let policy = SketchPolicy::cpu();
            let mut c = Candidate::random(&policy, &inst.subgraph, &mut rng);
            for _ in 0..10 {
                policy.mutate(&inst.subgraph, &mut c.decision, &mut rng);
            }
            c.sequence = policy.emit(&inst.subgraph, &c.decision);
            tlp_hwsim::lower(&inst.subgraph, &c.sequence)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", net.name, inst.subgraph.name));
        }
    }
}

#[test]
fn split_records_carry_extents() {
    // Ansor's record convention (and TLP's shape-information source):
    // ints[0] of every anchor split equals the loop extent.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 96,
            n: 160,
            k: 224,
        },
    );
    let mut rng = SmallRng::seed_from_u64(5);
    let c = Candidate::random(&SketchPolicy::cpu(), &sg, &mut rng);
    let extents: std::collections::HashMap<&str, i64> = [("i", 96), ("j", 160), ("k", 224)].into();
    let mut checked = 0;
    for p in c.sequence.iter() {
        if p.kind == PrimitiveKind::Split && p.stage == "dense" {
            let var = p.loop_vars.first().unwrap();
            assert_eq!(p.ints[0], extents[var], "split of {var}");
            checked += 1;
        }
    }
    assert!(checked >= 2);
}
