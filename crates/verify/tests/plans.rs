//! Plans never change a report. A verifier that checked a sketch schedule
//! holds a plan for its skeleton (when the check was clean and bound no
//! GPU axis); every schedule that differs from it in its int values only
//! must then get exactly the report a fresh verifier gives. The mutants
//! here change ints only: to zero, negative, huge and `i64`-overflowing
//! values, an extent off by one, a tile product just above the extent and
//! one exactly at it, and pairs of those at once.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlp_autotuner::SketchPolicy;
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};
use tlp_verify::{verify_with, Verifier, VerifyOptions};
use tlp_workload::{AnchorOp, FusedOp, Subgraph};

fn subgraphs() -> Vec<Subgraph> {
    vec![
        Subgraph::new(
            "dense",
            AnchorOp::Dense {
                m: 64,
                n: 96,
                k: 48,
            },
        )
        .with_fused([FusedOp::BiasAdd, FusedOp::Relu]),
        Subgraph::new(
            "bmm",
            AnchorOp::BatchMatmul {
                b: 4,
                m: 32,
                n: 32,
                k: 32,
            },
        ),
        Subgraph::new(
            "conv",
            AnchorOp::Conv2d {
                n: 1,
                cin: 16,
                hw: 14,
                cout: 32,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
        )
        .with_fused([FusedOp::Relu]),
    ]
}

/// `schedule` with the ints of step `step` replaced by `ints` (as many as it
/// had).
fn with_ints(schedule: &ScheduleSequence, step: usize, ints: &[i64]) -> ScheduleSequence {
    schedule
        .iter()
        .enumerate()
        .map(|(at, p)| {
            let mut c: ConcretePrimitive = p.to_concrete();
            if at == step {
                assert_eq!(c.ints.len(), ints.len());
                c.ints = ints.to_vec();
            }
            c
        })
        .collect()
}

/// The int-only mutants of one step's ints.
fn step_mutants(ints: &[i64]) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for j in 0..ints.len() {
        let x = ints[j];
        for v in [
            0,
            -1,
            -x,
            x - 1,
            x + 1,
            i64::MIN,
            i64::MAX,
            i64::MAX / 2,
            1 << 32,
        ] {
            let mut m = ints.to_vec();
            m[j] = v;
            out.push(m);
        }
    }
    if ints.len() >= 2 {
        let extent = ints[0];
        // Every factor 2^32: the product overflows `i64` from three on.
        let mut m = ints.to_vec();
        m[1..].fill(1 << 32);
        out.push(m);
        for j in 1..ints.len() {
            let rest: i64 = ints[1..]
                .iter()
                .enumerate()
                .filter(|&(i, _)| i + 1 != j)
                .map(|(_, &f)| f)
                .product();
            if rest > 0 && extent > 0 {
                // The largest factor that keeps the product within the
                // extent, and the smallest that takes it past.
                for f in [extent / rest, extent / rest + 1] {
                    let mut m = ints.to_vec();
                    m[j] = f;
                    out.push(m);
                }
            }
        }
    }
    out
}

fn emitted(policy: &SketchPolicy, sg: &Subgraph, seed: u64) -> ScheduleSequence {
    let mut rng = SmallRng::seed_from_u64(seed);
    policy.compile(sg).random_candidate(&mut rng).sequence
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn int_only_mutants_get_the_fresh_report_from_a_planned_verifier(
        seed in 0u64..u64::MAX,
        sg_idx in 0usize..3,
        gpu_bit in 0usize..2,
        pin_bit in 0usize..2,
    ) {
        let policy = if gpu_bit == 1 { SketchPolicy::gpu() } else { SketchPolicy::cpu() };
        let sg = &subgraphs()[sg_idx];
        let opts = VerifyOptions { gpu: (pin_bit == 1).then_some(policy.gpu) };
        let base = emitted(&policy, sg, seed);
        let mut verifier = Verifier::new(sg, &opts);
        let clean = verifier.check(&base).is_clean();
        // A sketch's CPU output is clean and gets a plan; its GPU output
        // binds hardware axes and never does.
        prop_assert_eq!(verifier.planned(&base), clean && !policy.gpu, "{}", base);

        let steps: Vec<(usize, Vec<i64>)> = base
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.ints.is_empty())
            .map(|(at, p)| (at, p.ints.to_vec()))
            .collect();
        prop_assert!(!steps.is_empty());
        let mut mutants: Vec<ScheduleSequence> = steps
            .iter()
            .flat_map(|(at, ints)| step_mutants(ints).into_iter().map(|m| with_ints(&base, *at, &m)))
            .collect();
        // Two steps mutated at once.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1f7);
        for _ in 0..32 {
            let (a, ints_a) = &steps[rng.gen_range(0..steps.len())];
            let (b, ints_b) = &steps[rng.gen_range(0..steps.len())];
            let ma = step_mutants(ints_a);
            let mb = step_mutants(ints_b);
            let once = with_ints(&base, *a, &ma[rng.gen_range(0..ma.len())]);
            mutants.push(with_ints(&once, *b, &mb[rng.gen_range(0..mb.len())]));
        }

        let (mut failed, mut answered) = (0usize, 0usize);
        for mutant in &mutants {
            prop_assert_eq!(verifier.planned(mutant), verifier.planned(&base));
            let fresh = verify_with(sg, mutant, &opts);
            prop_assert_eq!(&verifier.check(mutant), &fresh, "{}", mutant);
            if fresh.is_clean() {
                answered += 1;
            } else {
                failed += 1;
            }
        }
        // The mutants reach both outcomes of the plan's predicates.
        prop_assert!(failed > 0, "every mutant of\n{}\nwas clean", base);
        prop_assert!(answered > 0 || !clean, "no mutant of\n{}\nwas clean", base);
        prop_assert!(verifier.check(&base).is_clean() == clean);
    }
}

/// A clean schedule without ints gives its plan no predicate: any schedule
/// with its skeleton is clean.
#[test]
fn a_plan_without_ints_answers_every_schedule_of_its_skeleton() {
    let sg = &subgraphs()[0];
    let schedule: ScheduleSequence = [
        ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu"),
        ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
            .with_loops(["i"])
            .with_extras(["parallel"]),
    ]
    .into_iter()
    .collect();
    let opts = VerifyOptions::default();
    let mut verifier = Verifier::new(sg, &opts);
    assert!(!verifier.planned(&schedule));
    assert!(verifier.check(&schedule).is_clean());
    assert!(verifier.planned(&schedule));
    assert!(verifier.check(&schedule).is_clean());
}
