//! Property-based tests over the core data structures and invariants.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use tlp::features::FeatureExtractor;
use tlp_hwsim::{lower, Platform, Simulator};
use tlp_nn::{lambda_rank, Tensor};
use tlp_schedule::{
    preprocess, recover, ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary,
};
use tlp_workload::{AnchorOp, Subgraph};

fn arb_kind() -> impl Strategy<Value = PrimitiveKind> {
    (0..PrimitiveKind::ALL.len()).prop_map(|i| PrimitiveKind::ALL[i])
}

prop_compose! {
    fn arb_primitive()(
        kind in arb_kind(),
        stage in "[a-z]{1,8}",
        vars in prop::collection::vec("[a-z]{1,4}(\\.[0-9])?", 0..4),
        ints in prop::collection::vec(0i64..100_000, 0..6),
        extras in prop::collection::vec("[a-z_.]{1,12}", 0..3),
    ) -> ConcretePrimitive {
        ConcretePrimitive::new(kind, stage)
            .with_loops(vars)
            .with_ints(ints)
            .with_extras(extras)
    }
}

fn arb_sequence() -> impl Strategy<Value = ScheduleSequence> {
    prop::collection::vec(arb_primitive(), 0..30).prop_map(|v| v.into_iter().collect())
}

proptest! {
    /// Preprocessing keeps all three basic elements: it is exactly invertible.
    #[test]
    fn preprocess_roundtrips(p in arb_primitive()) {
        let seq: ScheduleSequence = [p.clone()].into_iter().collect();
        let view = seq.get(0).expect("one primitive");
        let back = recover(&preprocess(view)).expect("canonical streams recover");
        prop_assert_eq!(back, p);
    }

    /// Sequence fingerprints are stable and sensitive to content.
    #[test]
    fn fingerprint_stable(seq in arb_sequence()) {
        prop_assert_eq!(seq.fingerprint(), seq.clone().fingerprint());
    }

    /// Feature extraction always produces the exact configured shape with
    /// finite values, for any schedule whatsoever.
    #[test]
    fn features_fixed_shape_and_finite(seq in arb_sequence(), seq_len in 1usize..40, emb in 15usize..40) {
        let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), seq_len, emb);
        let mut buf = tlp::features::FeatureBuf::new();
        ex.extract_batch_into(std::slice::from_ref(&seq), &mut buf);
        let f = buf.data().to_vec();
        prop_assert_eq!(f.len(), seq_len * emb);
        prop_assert!(f.iter().all(|x| x.is_finite()));
        // One-hot block: at most one bit per occupied row, zero for padding.
        for (row_idx, row) in f.chunks(emb).enumerate() {
            let hot = row[..tlp::features::ONEHOT.min(emb)].iter().filter(|&&x| x != 0.0).count();
            if row_idx < seq.len().min(seq_len) {
                prop_assert!(hot <= 1);
            } else {
                prop_assert_eq!(hot, 0);
            }
        }
    }

    /// LambdaRank gradients always sum to ~zero and the loss is non-negative.
    #[test]
    fn lambda_rank_invariants(
        scores in prop::collection::vec(-3.0f32..3.0, 2..40),
        labels_raw in prop::collection::vec(0.01f32..1.0, 2..40),
    ) {
        let n = scores.len().min(labels_raw.len());
        let (loss, grad) = lambda_rank(&scores[..n], &labels_raw[..n]);
        prop_assert!(loss >= 0.0);
        prop_assert!(loss.is_finite());
        let sum: f32 = grad.iter().sum();
        prop_assert!(sum.abs() < 1e-3, "gradient sum {sum}");
    }

    /// Tensor permute is invertible for rank-3 tensors.
    #[test]
    fn permute_roundtrip(
        data in prop::collection::vec(-10.0f32..10.0, 24),
        perm_idx in 0usize..6,
    ) {
        let t = Tensor::from_vec(data, &[2, 3, 4]);
        let perms = [[0,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]];
        let perm = perms[perm_idx];
        let p = t.permute(&perm);
        let mut inv = [0usize; 3];
        for (i, &x) in perm.iter().enumerate() { inv[x] = i; }
        prop_assert_eq!(p.permute(&inv), t);
    }

    /// The simulator returns positive, finite, deterministic latencies for
    /// every valid random schedule, on every platform.
    #[test]
    fn simulator_total_on_valid_schedules(seed in 0u64..5000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let sg = Subgraph::new("d", AnchorOp::Dense { m: 64, n: 128, k: 64 });
        let gpu = seed % 2 == 0;
        let policy = if gpu { tlp_autotuner::SketchPolicy::gpu() } else { tlp_autotuner::SketchPolicy::cpu() };
        let c = tlp_autotuner::Candidate::random(&policy, &sg, &mut rng);
        let spec = lower(&sg, &c.sequence).expect("random candidates lower");
        let platform = if gpu { Platform::tesla_t4() } else { Platform::e5_2673() };
        let sim = Simulator::new();
        let l1 = sim.latency(&platform, &sg, &spec, c.sequence.fingerprint());
        let l2 = sim.latency(&platform, &sg, &spec, c.sequence.fingerprint());
        prop_assert!(l1.is_finite() && l1 > 0.0);
        prop_assert_eq!(l1, l2);
    }

    /// Labels derived from any latency set stay in (0, 1] with max exactly 1.
    #[test]
    fn labels_unit_interval(lats in prop::collection::vec(1e-6f64..1.0, 1..50)) {
        use tlp_dataset::{ProgramRecord, TaskData};
        let task = TaskData {
            subgraph: Subgraph::new("d", AnchorOp::Dense { m: 1, n: 1, k: 1 }),
            weight: 1,
            from_test_set: false,
            programs: lats.iter().map(|&l| ProgramRecord {
                schedule: ScheduleSequence::new(),
                latencies: vec![l],
                validity: Default::default(),
            }).collect(),
        };
        let labels = task.labels(0);
        prop_assert!(labels.iter().all(|&l| l > 0.0 && l <= 1.0 + 1e-6));
        let max = labels.iter().cloned().fold(0.0f32, f32::max);
        prop_assert!((max - 1.0).abs() < 1e-6);
    }
}
