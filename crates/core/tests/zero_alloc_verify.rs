//! A warm `Verifier` checks a clean schedule without touching the heap: the
//! resolved subgraph facts, the dataflow pass's name arena and table, and the
//! per-axis counters are all owned by the verifier and reused, and a report
//! with no findings is an empty `Vec`. This is what lets serving admission
//! and the search gate verify every candidate, every time. Building a
//! verifier, once per serving request, allocates only the subgraph's axis
//! list: axis names are static.
//!
//! The counting allocator (`counting_alloc`) is a `#[global_allocator]`, so —
//! like `zero_alloc_scoring.rs` — this test lives in its own binary with a
//! single `#[test]`: any sibling test running concurrently would pollute the
//! counter.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

mod counting_alloc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::{Candidate, SketchPolicy};
use tlp_verify::{Verifier, VerifyOptions};
use tlp_workload::{AnchorOp, Subgraph};

#[test]
fn warm_verifier_checks_clean_schedules_without_allocating() {
    let subgraph = Subgraph::new(
        "c",
        AnchorOp::Conv2d {
            n: 1,
            cin: 32,
            hw: 28,
            cout: 32,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        },
    );
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let schedules: Vec<_> = (0..64)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &subgraph, &mut rng).sequence)
        .collect();
    let opts = VerifyOptions { gpu: Some(false) };
    let before = counting_alloc::allocations();
    let mut verifier = Verifier::new(&subgraph, &opts);
    let delta = counting_alloc::allocations() - before;
    assert!(delta <= 1, "building a verifier allocated {delta} times");

    // Warm-up: the verifier's buffers grow to the largest schedule's needs.
    for s in &schedules {
        assert!(verifier.check(s).is_clean(), "sketch output is clean");
    }

    let before = counting_alloc::allocations();
    let clean = schedules
        .iter()
        .filter(|s| verifier.check(s).is_clean())
        .count();
    let delta = counting_alloc::allocations() - before;
    assert_eq!(clean, schedules.len());
    assert_eq!(
        delta, 0,
        "a warm verifier performed {delta} heap allocations over {clean} clean schedules"
    );
}
