//! Candidate generation's allocation budget. A search compiles its task's
//! sketch once and evolves one population in place, so in steady state an
//! offspring costs no heap traffic beyond the strings a differently shaped
//! loser's slot is short of; what is left is mostly the run's fresh initial
//! population, whose sequences are four buffers each. Before the compiled
//! sketch this run made 95.3 allocations per generated candidate, and 24.0
//! while each primitive of a sequence owned its strings and vectors; it
//! makes 1.8 (944 over 514 candidates, of which the gate verifier's plans,
//! one per skeleton it passed, take 6).
//!
//! The counting allocator (`counting_alloc`) is a `#[global_allocator]`, so —
//! like `zero_alloc_verify.rs` — this test lives in its own binary with a
//! single `#[test]`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

mod counting_alloc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::{EvolutionConfig, RandomModel, SearchTask, Searcher, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_workload::bert_tiny;

#[test]
fn a_default_search_stays_inside_its_allocation_budget() {
    let net = bert_tiny(1, 128);
    let qkv = net
        .instances
        .iter()
        .find(|i| i.subgraph.name == "qkv_proj")
        .expect("BERT-tiny has a qkv_proj task");
    let task = SearchTask::new(qkv.subgraph.clone(), Platform::i7_10510u());
    let policy = SketchPolicy::cpu();
    let model = RandomModel::new(1);
    let config = EvolutionConfig::default();
    let mut rng = SmallRng::seed_from_u64(0x5EED);

    let before = counting_alloc::allocations();
    let outcome = Searcher::new(&task, &policy, &model, &config).run(16, &mut rng);
    let delta = counting_alloc::allocations() - before;
    let generated = outcome.stats.generated;
    assert!(generated >= config.population as u64, "the search ran");
    let per_candidate = delta as f64 / generated as f64;
    println!("{delta} allocations over {generated} generated candidates: {per_candidate:.1} each");
    assert!(
        per_candidate <= 2.0,
        "{delta} allocations over {generated} generated candidates: {per_candidate:.1} each"
    );

    // Rewriting a decision's sequence over itself finds every buffer long
    // enough already.
    let sketch = policy.compile(&task.subgraph);
    let mut candidates = outcome.candidates;
    let before = counting_alloc::allocations();
    for c in &mut candidates {
        sketch.emit_into(&c.decision, &mut c.sequence);
    }
    let delta = counting_alloc::allocations() - before;
    assert_eq!(
        delta, 0,
        "emit_into over an equal sequence allocated {delta} times"
    );
}
