//! The shared candidate pool for serving tests.
//!
//! Wall-clock serving measurement (closed-loop clients against one
//! [`Server`](crate::Server), every reply bit-compared) lives in the
//! `tlp-sysbench` `serve_warm`/`serve_miss` workloads.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::{SearchTask, SketchPolicy};
use tlp_schedule::ScheduleSequence;

/// Pre-generates a shared pool of `n` random candidate schedules for `task`.
pub fn random_pool(task: &SearchTask, n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sketch = SketchPolicy::cpu().compile(&task.subgraph);
    (0..n)
        .map(|_| sketch.random_candidate(&mut rng).sequence)
        .collect()
}
