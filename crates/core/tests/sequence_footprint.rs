//! What a schedule sequence costs to hold and to emit. A serving pool or a
//! search population holds thousands of sequences, and a sequence is stored
//! in four flat buffers, so a seeded conv2d candidate holds four heap blocks
//! whatever its length: 1 031 requested bytes on average. When each
//! primitive owned its strings and vectors, the same candidates held 3 396
//! requested bytes in about 70 blocks, and a fresh emission made up to 91
//! allocations.
//!
//! The counting allocator (`counting_alloc`) is a `#[global_allocator]`, so —
//! like `zero_alloc_verify.rs` — this test lives in its own binary with a
//! single `#[test]`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

mod counting_alloc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::SketchPolicy;
use tlp_schedule::ScheduleSequence;
use tlp_workload::{AnchorOp, FusedOp, Subgraph};

#[test]
fn conv2d_candidates_are_small_and_emitted_in_few_allocations() {
    let conv2d = Subgraph::new(
        "c",
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
    let sketch = SketchPolicy::cpu().compile(&conv2d);
    let mut rng = SmallRng::seed_from_u64(7);

    const N: usize = 1000;
    let mut pool: Vec<ScheduleSequence> = Vec::with_capacity(N);
    let before = counting_alloc::live_bytes();
    for _ in 0..N {
        pool.push(sketch.random_candidate(&mut rng).sequence);
    }
    let per_candidate = (counting_alloc::live_bytes() - before) as f64 / N as f64;
    let primitives = pool.iter().map(ScheduleSequence::len).sum::<usize>() as f64 / N as f64;
    println!("{per_candidate:.0} heap bytes per candidate of {primitives:.1} primitives");
    assert!(
        per_candidate <= 1536.0,
        "a conv2d candidate holds {per_candidate:.0} heap bytes"
    );

    // A fresh emission sizes each of the four buffers once, whichever
    // decision it writes; CPU, GPU and light sketches alike.
    let softmax = Subgraph::new(
        "s",
        AnchorOp::Softmax {
            rows: 512,
            cols: 128,
        },
    );
    for (policy, subgraph) in [
        (SketchPolicy::cpu(), &conv2d),
        (SketchPolicy::gpu(), &conv2d),
        (SketchPolicy::cpu(), &softmax),
    ] {
        let sketch = policy.compile(subgraph);
        let mut most = 0;
        for _ in 0..200 {
            let d = sketch.random_decision(&mut rng);
            let before = counting_alloc::allocations();
            let sequence = sketch.emit(&d);
            most = most.max(counting_alloc::allocations() - before);
            drop(sequence);
        }
        println!(
            "{policy:?} on {}: at most {most} allocations per fresh emit",
            subgraph.name
        );
        assert!(most <= 6, "a fresh emit made {most} allocations");
    }
}
