//! The compiled sketch against its contract: the candidate stream — which
//! RNG draws generation makes and which sequences it emits — is what every
//! search digest in the repo rests on, and writing a sequence in place must
//! not depend on what the buffer held.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlp_autotuner::{ScheduleDecision, Sketch, SketchPolicy};
use tlp_schedule::ScheduleSequence;
use tlp_workload::{test_networks, Subgraph};

/// Every subgraph of the test networks, in order.
fn subgraphs() -> Vec<Subgraph> {
    test_networks()
        .into_iter()
        .flat_map(|net| net.instances.into_iter().map(|i| i.subgraph))
        .collect()
}

#[test]
fn the_candidate_stream_matches_the_pinned_digest() {
    // Captured from the one-shot `SketchPolicy` methods at the commit before
    // the compiled sketch existed: every subgraph of the test networks, both
    // device classes, 200 × (random → emit → mutate → emit → crossover →
    // emit), each task's fingerprints folded with the RNG's next draw. The
    // one-shot methods and a sketch compiled once, writing over one buffer,
    // must both produce it.
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut fold = |x: u64| digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
    for policy in [SketchPolicy::cpu(), SketchPolicy::gpu()] {
        for (ni, net) in test_networks().iter().enumerate() {
            for (si, inst) in net.instances.iter().enumerate() {
                let sg = &inst.subgraph;
                let seed = (ni * 1000 + si) as u64;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut compiled_rng = SmallRng::seed_from_u64(seed);
                let sketch = policy.compile(sg);
                let mut buffer = ScheduleSequence::new();
                let mut check = |sequence: ScheduleSequence, d: &ScheduleDecision| {
                    sketch.emit_into(d, &mut buffer);
                    assert_eq!(buffer, sequence, "{} on {policy:?}", sg.name);
                    fold(sequence.fingerprint());
                };
                for _ in 0..200 {
                    let a = policy.random_decision(sg, &mut rng);
                    assert_eq!(sketch.random_decision(&mut compiled_rng), a);
                    check(policy.emit(sg, &a), &a);

                    let mut b = a.clone();
                    policy.mutate(sg, &mut b, &mut rng);
                    let mut compiled_b = a.clone();
                    sketch.mutate(&mut compiled_b, &mut compiled_rng);
                    assert_eq!(compiled_b, b);
                    check(policy.emit(sg, &b), &b);

                    let c = policy.crossover(&a, &b, &mut rng);
                    // As the search does it: a parent copied over a slot
                    // that held another decision, then crossed in place.
                    let mut compiled_c = b.clone();
                    compiled_c.clone_from(&a);
                    Sketch::crossover(&mut compiled_c, &b, &mut compiled_rng);
                    assert_eq!(compiled_c, c);
                    check(policy.emit(sg, &c), &c);
                }
                let next = rng.gen::<u64>();
                assert_eq!(compiled_rng.gen::<u64>(), next);
                fold(next);
            }
        }
    }
    assert_eq!(digest, 0xa813_6f38_a007_7156, "got {digest:#x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sequence written over a buffer another decision — or another
    /// task's sketch — dirtied is the freshly built one.
    #[test]
    fn emit_into_does_not_depend_on_what_the_buffer_held(
        task in 0usize..1000,
        other_task in 0usize..1000,
        gpu in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let subgraphs = subgraphs();
        let policy = if gpu == 1 { SketchPolicy::gpu() } else { SketchPolicy::cpu() };
        let sketch = policy.compile(&subgraphs[task % subgraphs.len()]);
        let other = policy.compile(&subgraphs[other_task % subgraphs.len()]);
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut buffer = other.random_candidate(&mut rng).sequence;
        for _ in 0..8 {
            let mut d = sketch.random_decision(&mut rng);
            for _ in 0..rng.gen_range(0..3) {
                sketch.mutate(&mut d, &mut rng);
            }
            let fresh = sketch.emit(&d);
            sketch.emit_into(&d, &mut buffer);
            prop_assert_eq!(&buffer, &fresh);
            prop_assert_eq!(buffer.fingerprint(), fresh.fingerprint());
        }
    }
}

/// The seeded sketch corpus whose fingerprints `tlp-schedule`'s
/// `fingerprint_pins.rs` digests: CPU-heavy (conv2d, dense), CPU-light
/// (softmax) and GPU candidates, each with its label.
fn sketch_corpus() -> Vec<(String, ScheduleSequence)> {
    use tlp_workload::{AnchorOp, FusedOp};
    let conv2d = Subgraph::new(
        "conv",
        AnchorOp::Conv2d {
            n: 1,
            cin: 64,
            hw: 56,
            cout: 64,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        },
    )
    .with_fused([FusedOp::BiasAdd, FusedOp::Relu]);
    let dense = Subgraph::new(
        "fc",
        AnchorOp::Dense {
            m: 16,
            n: 1000,
            k: 512,
        },
    )
    .with_fused([FusedOp::BiasAdd]);
    let softmax = Subgraph::new(
        "attn",
        AnchorOp::Softmax {
            rows: 512,
            cols: 128,
        },
    );
    let mut corpus = Vec::new();
    for (label, policy, sg, seed) in [
        ("cpu conv2d", SketchPolicy::cpu(), &conv2d, 11),
        ("cpu dense", SketchPolicy::cpu(), &dense, 12),
        ("cpu softmax", SketchPolicy::cpu(), &softmax, 13),
        ("gpu conv2d", SketchPolicy::gpu(), &conv2d, 14),
        ("gpu dense", SketchPolicy::gpu(), &dense, 15),
    ] {
        let sketch = policy.compile(sg);
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..6 {
            let candidate = sketch.random_candidate(&mut rng);
            corpus.push((format!("{label} {i}"), candidate.sequence));
        }
    }
    corpus
}

#[test]
fn seeded_sketches_emit_the_pinned_corpus() {
    // The fixture is the corpus's text, one `// label` header per
    // sequence; each sequence must also read back as the one emitted, so
    // the digest over the parsed fixture pins the emitted fingerprints.
    let mut text = String::new();
    for (label, sequence) in sketch_corpus() {
        text.push_str(&format!("// {label}\n{sequence}\n"));
        let parsed = tlp_schedule::parse_schedule(&sequence.to_string()).unwrap();
        assert_eq!(parsed, sequence, "{label}");
        assert_eq!(parsed.fingerprint(), sequence.fingerprint(), "{label}");
    }
    let pinned = include_str!("../../schedule/tests/fixtures/sketch_corpus.txt");
    assert_eq!(text, pinned);
}
