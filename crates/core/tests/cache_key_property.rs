//! Property tests of the inference engine's cache key.
//!
//! The score cache keys entries by `(task fingerprint ^ version salt,
//! schedule fingerprint)`. A collision would be silent and catastrophic — one
//! schedule served another schedule's score — so these properties pin the
//! discriminating power the serving layer and tuner rely on: schedules
//! differing *only* in name parameters (stages, loop variables, annotation
//! extras) or *only* in primitive order must never share a key, and the
//! engine must never cross-serve cached scores between them.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use tlp::engine::{task_fingerprint, EngineConfig, InferenceEngine, ScheduleScorer, ScoreKeys};
use tlp_autotuner::{PipelineCost, SearchTask};
use tlp_hwsim::Platform;
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};
use tlp_workload::{AnchorOp, Subgraph};

const KINDS: [PrimitiveKind; 5] = [
    PrimitiveKind::Split,
    PrimitiveKind::Reorder,
    PrimitiveKind::Fuse,
    PrimitiveKind::Annotation,
    PrimitiveKind::Pragma,
];

/// (kind index, stage id, loop-var ids, ints, extra id) — compact generator
/// alphabet mapped onto real primitives.
type PrimSpec = (usize, u8, Vec<u8>, Vec<i64>, u8);

prop_compose! {
    fn arb_prim()(
        kind in 0usize..KINDS.len(),
        stage in 0u8..4,
        loop_vars in prop::collection::vec(0u8..6, 0..3),
        ints in prop::collection::vec(1i64..64, 0..3),
        extra in 0u8..4,
    ) -> PrimSpec {
        (kind, stage, loop_vars, ints, extra)
    }
}

fn arb_specs() -> impl Strategy<Value = Vec<PrimSpec>> {
    prop::collection::vec(arb_prim(), 1..6)
}

fn build(specs: &[PrimSpec]) -> ScheduleSequence {
    let mut seq = ScheduleSequence::new();
    for (kind, stage, loop_vars, ints, extra) in specs {
        let mut p = ConcretePrimitive::new(KINDS[kind % KINDS.len()], format!("s{stage}"));
        p.loop_vars = loop_vars.iter().map(|v| format!("v{v}")).collect();
        p.ints = ints.clone();
        p.extras = vec![format!("e{extra}")];
        seq.push(p);
    }
    seq
}

/// A scorer whose score *is* the schedule fingerprint (folded to f32), so a
/// cache cross-serve is immediately visible as a wrong score.
struct FingerprintScorer;

impl ScheduleScorer for FingerprintScorer {
    type Scratch = ();

    fn name(&self) -> &str {
        "fingerprint"
    }

    fn pipeline_cost(&self) -> PipelineCost {
        PipelineCost::ZERO
    }

    fn score_micro_batch_into(
        &self,
        _scratch: &mut (),
        _task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        out.extend(
            idx.iter()
                .map(|&i| Some((schedules[i].fingerprint() % 0xFFFF) as f32)),
        );
    }
}

fn dense_task(m: i64) -> SearchTask {
    SearchTask::new(
        Subgraph::new("d", AnchorOp::Dense { m, n: 64, k: 64 }),
        Platform::i7_10510u(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Changing one name parameter (stage, loop var, or extra) of one
    /// primitive always changes the fingerprint, even though every numeric
    /// parameter is identical.
    #[test]
    fn name_params_discriminate(
        specs in arb_specs(),
        which in 0usize..16,
        field in 0usize..3,
    ) {
        let base = build(&specs);
        let mut renamed = specs.clone();
        let i = which % renamed.len();
        match field {
            0 => renamed[i].1 = renamed[i].1.wrapping_add(100), // stage
            1 => renamed[i].2.push(99),                         // loop vars
            _ => renamed[i].4 = renamed[i].4.wrapping_add(100), // extra
        }
        let renamed = build(&renamed);
        prop_assert_ne!(base.fingerprint(), renamed.fingerprint());
        // The salt preserves the distinction.
        prop_assert_ne!(
            base.salted_fingerprint(0x9E37),
            renamed.salted_fingerprint(0x9E37)
        );
    }

    /// Swapping two adjacent distinct primitives always changes the
    /// fingerprint: step order is part of schedule identity.
    #[test]
    fn step_order_discriminates(specs in arb_specs(), at in 0usize..16) {
        // Force the swapped pair to exist and differ (distinct stages),
        // leaving every other parameter as generated.
        let mut specs = specs;
        if specs.len() < 2 {
            specs.push(specs[0].clone());
        }
        let i = at % (specs.len() - 1);
        specs[i].1 = 1;
        specs[i + 1].1 = 2;
        let base = build(&specs);
        let mut swapped = specs.clone();
        swapped.swap(i, i + 1);
        let swapped = build(&swapped);
        prop_assert_ne!(base.fingerprint(), swapped.fingerprint());
    }

    /// Fingerprints are a pure function of content: a rebuilt clone always
    /// collides with itself, under any salt.
    #[test]
    fn fingerprint_is_deterministic(specs in arb_specs(), salt in 0u64..u64::MAX) {
        let a = build(&specs);
        let b = build(&specs);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.salted_fingerprint(salt), b.salted_fingerprint(salt));
    }

    /// The version salt reaches a key through its task component alone, so
    /// that component must carry both separations: one `(task, schedule)`
    /// under two salts (two model generations), and two tasks under one salt,
    /// never share a key — while the schedule component is the same under
    /// every salt, which is what lets a key set outlive an invalidation.
    #[test]
    fn salts_and_tasks_separate_keys(
        specs in arb_specs(),
        salt in 0u64..u64::MAX,
        delta in 1u64..u64::MAX,
    ) {
        let other_salt = salt.wrapping_add(delta);
        let schedule = [build(&specs)];
        let keys = ScoreKeys::new(&dense_task(64), &schedule);
        let other_task = ScoreKeys::new(&dense_task(128), &schedule);
        prop_assert_ne!(keys.cache_key(0, salt), keys.cache_key(0, other_salt));
        prop_assert_ne!(keys.cache_key(0, salt), other_task.cache_key(0, salt));
        prop_assert_eq!(keys.cache_key(0, salt).1, keys.cache_key(0, other_salt).1);
        prop_assert_eq!(keys.cache_key(0, salt).1, schedule[0].fingerprint());
    }

    /// End to end: a warm cache never serves schedule A's score to a
    /// near-identical schedule B (name-param mutation), and task identity
    /// separates caches for identical schedules.
    #[test]
    fn engine_cache_never_cross_serves(specs in arb_specs(), which in 0usize..16) {
        let engine = InferenceEngine::new(
            FingerprintScorer,
            EngineConfig {
                micro_batch: 4,
                threads: 1,
                cache_capacity: 64,
            },
        );
        let task = dense_task(64);
        let base = build(&specs);

        let mut mutated = specs.clone();
        let i = which % mutated.len();
        mutated[i].1 = mutated[i].1.wrapping_add(50);
        let mutated = build(&mutated);

        // Warm the cache with the base schedule…
        let (warm, _) = engine.score(&task, std::slice::from_ref(&base));
        // …then score the mutant: it must get its own score, not A's.
        let (got, _) = engine.score(&task, std::slice::from_ref(&mutated));
        let want = Some((mutated.fingerprint() % 0xFFFF) as f32);
        prop_assert_eq!(got[0], want);
        prop_assert_eq!(warm[0], Some((base.fingerprint() % 0xFFFF) as f32));

        // Distinct tasks fingerprint apart, so the same schedule under a
        // different task re-scores instead of reusing the cached entry.
        prop_assert_ne!(
            task_fingerprint(&task),
            task_fingerprint(&dense_task(128))
        );
    }
}
