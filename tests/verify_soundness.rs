//! Soundness of the static schedule verifier with respect to the lowerer.
//!
//! `tlp_verify` never lowers or simulates, so its only ground truth is
//! `tlp_hwsim::lower`. Two properties tie the analyzer to that oracle:
//!
//! 1. **No false rejects on real schedules**: everything the sketch policy
//!    emits — the entire distribution that search, dataset generation, and
//!    serving actually see — verifies error-free and lowers.
//! 2. **No false accepts**: whenever `lower` rejects a schedule, the verifier
//!    reports at least one `Error` diagnostic. Equivalently, a passing report
//!    implies the schedule lowers.
//!
//! Corruptions below mimic the realistic failure modes (truncated or zeroed
//! tile factors, dangling loop variables, renamed stages, stripped
//! annotations) rather than purely random byte noise, so the second property
//! is exercised on inputs near the valid manifold where a shallow analyzer
//! would be most likely to false-accept.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::{Candidate, SketchPolicy};
use tlp_hwsim::lower;
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};
use tlp_verify::{verify_with, Verifier, VerifyOptions};
use tlp_workload::{AnchorOp, Subgraph};

fn subgraph_pool() -> Vec<Subgraph> {
    vec![
        Subgraph::new(
            "dense",
            AnchorOp::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
        ),
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
                cout: 16,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
        ),
    ]
}

fn options_for(policy: &SketchPolicy) -> VerifyOptions {
    VerifyOptions {
        gpu: Some(policy.gpu),
    }
}

fn emitted(policy: &SketchPolicy, sg: &Subgraph, seed: u64) -> ScheduleSequence {
    let mut rng = SmallRng::seed_from_u64(seed);
    Candidate::random(policy, sg, &mut rng).sequence
}

/// Applies one targeted corruption, returning `false` if the schedule had no
/// step the corruption applies to (the caller then skips the case).
fn corrupt(seq: &mut ScheduleSequence, strategy: usize, seed: u64) -> bool {
    fn pick(steps: &[ConcretePrimitive], kind: PrimitiveKind, seed: u64) -> Option<usize> {
        let hits: Vec<usize> = steps
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kind == kind)
            .map(|(i, _)| i)
            .collect();
        if hits.is_empty() {
            None
        } else {
            Some(hits[seed as usize % hits.len()])
        }
    }
    let mut steps: Vec<ConcretePrimitive> = seq.iter().cloned().collect();
    let applied = match strategy {
        // Zero a tile factor: lower rejects non-positive split extents.
        0 => match pick(&steps, PrimitiveKind::Split, seed) {
            Some(i) if !steps[i].ints.is_empty() => {
                let j = seed as usize % steps[i].ints.len();
                steps[i].ints[j] = 0;
                true
            }
            _ => false,
        },
        // Negative tile factor.
        1 => match pick(&steps, PrimitiveKind::Split, seed) {
            Some(i) if !steps[i].ints.is_empty() => {
                let j = seed as usize % steps[i].ints.len();
                steps[i].ints[j] = -3;
                true
            }
            _ => false,
        },
        // Truncate an anchor split to a single factor (< 2 ints).
        2 => match pick(&steps, PrimitiveKind::Split, seed) {
            Some(i) if steps[i].ints.len() >= 2 => {
                steps[i].ints.truncate(1);
                true
            }
            _ => false,
        },
        // Dangling loop variable in a fuse.
        3 => match pick(&steps, PrimitiveKind::Fuse, seed) {
            Some(i) if !steps[i].loop_vars.is_empty() => {
                let j = seed as usize % steps[i].loop_vars.len();
                steps[i].loop_vars[j] = "ghost".to_string();
                true
            }
            _ => false,
        },
        // Dangling loop variable in an annotation.
        4 => match pick(&steps, PrimitiveKind::Annotation, seed) {
            Some(i) if !steps[i].loop_vars.is_empty() => {
                steps[i].loop_vars[0] = "ghost".to_string();
                true
            }
            _ => false,
        },
        // Split a name that is not an axis of the anchor stage.
        5 => match pick(&steps, PrimitiveKind::Split, seed) {
            Some(i) if !steps[i].loop_vars.is_empty() => {
                steps[i].loop_vars[0] = "zz".to_string();
                true
            }
            _ => false,
        },
        // Strip the loop variables off a split entirely.
        6 => match pick(&steps, PrimitiveKind::Split, seed) {
            Some(i) => {
                steps[i].loop_vars.clear();
                true
            }
            _ => false,
        },
        // Append an annotation on a variable no step ever defined.
        _ => {
            steps.push(
                ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                    .with_loops(vec!["never_defined".to_string()])
                    .with_extras(vec!["parallel".to_string()]),
            );
            true
        }
    };
    if applied {
        *seq = steps.into_iter().collect();
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: the emitted distribution is verified error-free and
    /// lowers, on both device classes and every subgraph shape.
    #[test]
    fn emitted_schedules_pass_and_lower(seed in 0u64..u64::MAX, sg_idx in 0usize..3, gpu_bit in 0usize..2) {
        let policy = if gpu_bit == 1 { SketchPolicy::gpu() } else { SketchPolicy::cpu() };
        let sg = &subgraph_pool()[sg_idx];
        let seq = emitted(&policy, sg, seed);
        let report = verify_with(sg, &seq, &options_for(&policy));
        prop_assert!(
            report.passes(),
            "emitted schedule rejected: {:?}",
            report.diagnostics
        );
        prop_assert!(lower(sg, &seq).is_ok(), "emitted schedule does not lower");
    }

    /// Property 2 on corrupted-but-realistic inputs: a passing report implies
    /// the schedule lowers (equivalently, lower-rejection implies a verifier
    /// error). This is the "no false accepts" direction.
    #[test]
    fn verifier_catches_everything_lower_rejects(
        seed in 0u64..u64::MAX,
        sg_idx in 0usize..3,
        gpu_bit in 0usize..2,
        strategy in 0usize..8,
    ) {
        let policy = if gpu_bit == 1 { SketchPolicy::gpu() } else { SketchPolicy::cpu() };
        let sg = &subgraph_pool()[sg_idx];
        let mut seq = emitted(&policy, sg, seed);
        if !corrupt(&mut seq, strategy, seed) {
            return Ok(()); // schedule had no step of the targeted kind
        }
        let report = verify_with(sg, &seq, &options_for(&policy));
        if let Err(e) = lower(sg, &seq) {
            prop_assert!(
                report.has_errors(),
                "lower rejected ({e:?}) but verifier passed: {:?}",
                report.diagnostics
            );
        }
        if report.passes() {
            prop_assert!(lower(sg, &seq).is_ok());
        }
    }

    /// Property 2 on arbitrary garbage: whatever random primitive soup the
    /// parser can represent, a passing report still implies lowering.
    #[test]
    fn passing_reports_imply_lowering_on_random_soup(
        kinds in prop::collection::vec(0usize..14, 0..20),
        seed in 0u64..u64::MAX,
    ) {
        let sg = &subgraph_pool()[0];
        let mut rng_state = seed;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_state >> 33
        };
        let seq: ScheduleSequence = kinds
            .iter()
            .map(|&k| {
                let kind = PrimitiveKind::ALL[k % PrimitiveKind::ALL.len()];
                let stages = ["dense", "zz", "dense.rf"];
                let vars = ["m", "n", "k", "m.0", "ghost"];
                ConcretePrimitive::new(kind, stages[next() as usize % stages.len()])
                    .with_loops(vec![vars[next() as usize % vars.len()].to_string()])
                    .with_ints(vec![(next() as i64 % 64) - 4, (next() as i64 % 16) + 1])
                    .with_extras(vec!["parallel".to_string()])
            })
            .collect();
        let report = verify_with(sg, &seq, &VerifyOptions::default());
        if report.passes() {
            prop_assert!(
                lower(sg, &seq).is_ok(),
                "verifier passed a schedule lower rejects: {:?}",
                seq
            );
        }
    }
}

/// Deterministic spot check: a zeroed anchor-split factor is rejected by both
/// the lowerer and the verifier (the canonical "corrupted factor" case).
#[test]
fn zeroed_split_factor_rejected_by_both() {
    let sg = &subgraph_pool()[0];
    let policy = SketchPolicy::cpu();
    let mut seq = emitted(&policy, sg, 7);
    assert!(
        corrupt(&mut seq, 0, 0),
        "emitted schedule must contain a split"
    );
    assert!(lower(sg, &seq).is_err());
    let report = verify_with(sg, &seq, &options_for(&policy));
    assert!(report.has_errors());
}

/// Seeded primitive soup over the dense subgraph: names that are live,
/// consumed, split- and fuse-defined or never defined, on anchor, mirror,
/// fused and unknown stages. Reaches the environment paths sketch output
/// never takes (use-after-consume, redefinition, empty fuses, inlined-stage
/// reuse, repeated splits, duplicate bindings).
fn soup(seed: u64) -> ScheduleSequence {
    const STAGES: [&str; 5] = ["dense", "dense", "cache", "relu", "zz"];
    const VARS: [&str; 12] = [
        "i", "j", "k", "i", "j", "i.0", "i.1", "j.0", "k.1", "i@j", "i.0@j.0", "ghost",
    ];
    const EXTRAS: [&str; 7] = [
        "parallel",
        "vectorize",
        "threadIdx.x",
        "threadIdx.y",
        "blockIdx.x",
        "auto_unroll_max_step",
        "wat",
    ];
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    (0..4 + next(12))
        .map(|_| {
            let kind = PrimitiveKind::ALL[next(PrimitiveKind::ALL.len())];
            ConcretePrimitive::new(kind, STAGES[next(STAGES.len())])
                .with_loops((0..next(4)).map(|_| VARS[next(VARS.len())]))
                .with_ints((0..next(4)).map(|_| [64, 64, 4, 8, 2, 2048, 0, -2][next(8)]))
                .with_extras((0..next(3)).map(|_| EXTRAS[next(EXTRAS.len())]))
        })
        .collect()
}

/// The corpus the two pinning tests below run over: per subgraph shape,
/// sketch-generated CPU and GPU candidates, each clean and under every
/// corruption above; then the soup, against the dense subgraph.
fn pinned_corpus() -> Vec<(Subgraph, Vec<ScheduleSequence>)> {
    let mut corpus: Vec<(Subgraph, Vec<ScheduleSequence>)> = subgraph_pool()
        .into_iter()
        .map(|sg| {
            let mut seqs = Vec::new();
            for policy in [SketchPolicy::cpu(), SketchPolicy::gpu()] {
                for seed in 0..24u64 {
                    let clean = emitted(&policy, &sg, seed);
                    for strategy in 0..8 {
                        let mut seq = clean.clone();
                        if corrupt(&mut seq, strategy, seed) {
                            seqs.push(seq);
                        }
                    }
                    seqs.push(clean);
                }
            }
            (sg, seqs)
        })
        .collect();
    corpus.push((subgraph_pool().remove(0), (0..600).map(soup).collect()));
    corpus
}

const DEVICES: [Option<bool>; 3] = [None, Some(false), Some(true)];

/// Every diagnostic `verify_with` emits on [`pinned_corpus`] under inferred
/// and pinned devices, folded into one FNV-1a digest over `(schedule index,
/// code, severity, step, message)`. The literals were captured at the last
/// commit whose dataflow pass rebuilt a `HashMap<String, _>` environment per
/// schedule; the reusable `Verifier` must reproduce every finding, its text
/// and its order.
#[test]
fn diagnostics_on_a_seeded_corpus_match_the_pinned_digest() {
    fn fold(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot trade bytes.
        *h = (*h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut schedules, mut findings) = (0u64, 0u64);
    for (sg, seqs) in &pinned_corpus() {
        for seq in seqs {
            for gpu in DEVICES {
                let opts = VerifyOptions { gpu };
                for d in &verify_with(sg, seq, &opts).diagnostics {
                    fold(&mut digest, &schedules.to_le_bytes());
                    fold(&mut digest, d.code.as_str().as_bytes());
                    fold(&mut digest, d.severity.to_string().as_bytes());
                    fold(
                        &mut digest,
                        &d.step.map_or(u64::MAX, |s| s as u64).to_le_bytes(),
                    );
                    fold(&mut digest, d.message.as_bytes());
                    findings += 1;
                }
                schedules += 1;
            }
        }
    }
    assert_eq!(
        (schedules, findings, digest),
        (5688, 51_534, 0x2c40_df24_ffac_5b23),
        "digest {digest:#018x}"
    );
}

/// One `Verifier` reused across a batch reports, for schedule *k*, exactly
/// what a fresh `verify_with` reports: the corpus interleaves rejected
/// schedules (dangling, consumed and half-defined names left in the
/// environment) with clean ones, and nothing may leak into the next check.
#[test]
fn a_reused_verifier_reports_what_a_fresh_one_does() {
    for (sg, seqs) in &pinned_corpus() {
        for gpu in DEVICES {
            let opts = VerifyOptions { gpu };
            let mut verifier = Verifier::new(sg, &opts);
            for (k, seq) in seqs.iter().enumerate() {
                assert_eq!(
                    verifier.check(seq),
                    verify_with(sg, seq, &opts),
                    "schedule {k} of `{}` under gpu={gpu:?}",
                    sg.name
                );
            }
        }
    }
}
