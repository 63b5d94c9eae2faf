//! Inference-engine equivalence suite: parallel micro-batched scoring must
//! return exactly what single-threaded scoring would, for every backbone;
//! the score cache must be bit-identical and capacity-bounded; empty and
//! ragged batches must round-trip without panicking; scoring features
//! extracted up front must be scoring the schedules they came from.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp::baselines::TenSetMlp;
use tlp::engine::{EngineConfig, InferenceEngine, ScoreKeys};
use tlp::features::{FeatureBuf, FeatureExtractor};
use tlp::search::{MtlTlpScorer, TenSetMlpScorer, TlpScorer};
use tlp::{Backbone, FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, CostModel, ScoreRequest, SearchTask, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary};
use tlp_workload::{AnchorOp, Subgraph};

fn task() -> SearchTask {
    SearchTask::new(
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 128,
                n: 128,
                k: 128,
            },
        ),
        Platform::i7_10510u(),
    )
}

fn candidates(n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = task();
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &t.subgraph, &mut rng).sequence)
        .collect()
}

fn extractor_for(seqs: &[ScheduleSequence], cfg: &TlpConfig) -> FeatureExtractor {
    let mut vb = Vocabulary::builder();
    for s in seqs {
        for p in s.iter() {
            vb.observe(p.stage);
            for v in &p.loop_vars {
                vb.observe(v);
            }
            for e in &p.extras {
                vb.observe(e);
            }
        }
    }
    FeatureExtractor::with_vocab(vb.build(), cfg.seq_len, cfg.emb_size)
}

fn tlp_model(backbone: Backbone) -> (TlpModel, FeatureExtractor, Vec<ScheduleSequence>) {
    let cfg = TlpConfig {
        backbone,
        ..TlpConfig::test_scale()
    };
    let seqs = candidates(40, 0xE0_u64 + backbone as u64);
    let ex = extractor_for(&seqs, &cfg);
    (TlpModel::new(cfg), ex, seqs)
}

/// Parallel engine scoring equals sequential scoring (and the plain
/// extract-then-predict reference path) for every backbone.
#[test]
fn parallel_matches_sequential_all_backbones() {
    for backbone in [Backbone::Attention, Backbone::Lstm, Backbone::Transformer] {
        let (model, ex, seqs) = tlp_model(backbone);
        let mut buf = tlp::features::FeatureBuf::new();
        ex.extract_batch_into(&seqs, &mut buf);
        let reference = model.predict_with(&mut tlp_nn::Workspace::new(), buf.data());

        let sequential = FeatureModel::with_engine(
            TlpScorer {
                model: model.clone(),
                extractor: ex.clone(),
            },
            EngineConfig {
                micro_batch: 7,
                threads: 1,
                cache_capacity: 0,
            },
        );
        // Force a real pool even on single-core machines.
        let parallel = FeatureModel::with_engine(
            TlpScorer {
                model: model.clone(),
                extractor: ex.clone(),
            },
            EngineConfig {
                micro_batch: 7,
                threads: 4,
                cache_capacity: 0,
            },
        );

        let t = task();
        let seq_batch = sequential.predict(ScoreRequest::new(&t, &seqs));
        let par_batch = parallel.predict(ScoreRequest::new(&t, &seqs));
        assert!(par_batch.stats.threads >= 2, "{backbone:?}: pool unused");
        assert_eq!(seq_batch.len(), seqs.len());
        let seq_scores: Vec<f32> = seq_batch.scores().collect();
        let par_scores: Vec<f32> = par_batch.scores().collect();
        for (i, &r) in reference.iter().enumerate() {
            assert!(
                (r - seq_scores[i]).abs() < 1e-6,
                "{backbone:?} candidate {i}: engine {} vs reference {}",
                seq_scores[i],
                r
            );
            assert!(
                (seq_scores[i] - par_scores[i]).abs() < 1e-6,
                "{backbone:?} candidate {i}: parallel {} vs sequential {}",
                par_scores[i],
                seq_scores[i]
            );
        }
    }
}

/// Cache hits return bit-identical scores and the cache never exceeds its
/// configured capacity.
#[test]
fn cache_hits_bit_identical_and_bounded() {
    let (model, ex, seqs) = tlp_model(Backbone::Attention);
    let m = FeatureModel::with_engine(
        TlpScorer {
            model,
            extractor: ex,
        },
        EngineConfig {
            micro_batch: 8,
            threads: 2,
            cache_capacity: 16,
        },
    );
    let t = task();
    let cold = m.predict(ScoreRequest::new(&t, &seqs[..16]));
    assert_eq!(cold.stats.cache_misses, 16);
    let warm = m.predict(ScoreRequest::new(&t, &seqs[..16]));
    assert_eq!(warm.stats.cache_hits, 16);
    assert_eq!(warm.stats.cache_misses, 0);
    assert!(
        cold.scores().eq(warm.scores()),
        "hits must be bit-identical"
    );

    // Push well past capacity; the cache stays bounded.
    m.predict(ScoreRequest::new(&t, &seqs));
    assert!(
        m.engine().stats().cache_len <= 16,
        "cache grew past capacity: {}",
        m.engine().stats().cache_len
    );
}

/// An empty request round-trips as an empty batch — no panic, no work.
#[test]
fn empty_batch_roundtrips() {
    let (model, ex, _) = tlp_model(Backbone::Attention);
    let m = FeatureModel::with_engine(
        TlpScorer {
            model,
            extractor: ex,
        },
        EngineConfig::default(),
    );
    let t = task();
    let batch = m.predict(ScoreRequest::new(&t, &[]));
    assert!(batch.is_empty());
    assert_eq!(batch.stats.micro_batches, 0);
    assert_eq!(batch.num_invalid(), 0);
}

/// A ragged batch — some schedules valid, some empty, some unlowerable —
/// keeps request order and marks only the truly unscoreable entries.
#[test]
fn ragged_batch_keeps_order_and_masks() {
    let cfg = TlpConfig::test_scale();
    let mut seqs = candidates(6, 0xAB);
    // An empty schedule is featurizable (all-padding) for TLP but must
    // still flow through without panicking.
    seqs.insert(2, ScheduleSequence::new());
    // An unlowerable schedule for the program-feature path.
    let broken: ScheduleSequence = [ConcretePrimitive::new(PrimitiveKind::Annotation, "C")
        .with_loops(["no_such_loop"])
        .with_extras(["parallel"])]
    .into_iter()
    .collect();
    seqs.insert(5, broken);

    let tenset = FeatureModel::with_engine(
        TenSetMlpScorer {
            model: TenSetMlp::new(cfg.clone()),
        },
        EngineConfig {
            micro_batch: 3,
            threads: 2,
            cache_capacity: 32,
        },
    );
    let t = task();
    let batch = tenset.predict(ScoreRequest::new(&t, &seqs));
    assert_eq!(batch.len(), seqs.len());
    assert!(!batch.valid[5], "unlowerable schedule must be masked");
    assert_eq!(batch.scores().nth(5), Some(f32::NEG_INFINITY));
    let n_valid = batch.valid.iter().filter(|v| **v).count();
    assert!(n_valid >= 6, "valid candidates still scored: {n_valid}");

    // Warm pass: identical mask and scores straight from the cache.
    let warm = tenset.predict(ScoreRequest::new(&t, &seqs));
    assert_eq!(warm.valid, batch.valid);
    assert!(warm.scores().eq(batch.scores()));
}

/// The engine path and the CostModel trait agree on reported pipeline cost.
#[test]
fn score_batch_carries_pipeline_cost() {
    let (model, ex, seqs) = tlp_model(Backbone::Lstm);
    let m = tlp::TlpCostModel::new(model, ex);
    let t = task();
    let batch = m.predict(ScoreRequest::new(&t, &seqs[..4]));
    assert_eq!(batch.cost, m.pipeline_cost());
    assert_eq!(batch.cost.program_gen_s, 0.0, "TLP never lowers programs");
    assert!(batch.cost.per_candidate_s() > 0.0);
    assert!(batch.stats.wall_s >= 0.0);
}

fn bits(scores: &[Option<f32>]) -> Vec<Option<u32>> {
    scores.iter().map(|s| s.map(f32::to_bits)).collect()
}

/// Twin `MtlTlpScorer` engines, one fed schedules through `score_into`, the
/// other what serving admission hands a batcher — features and keys —
/// through `score_features_into`: the same score bits, per-call stats and
/// cumulative counters on miss, all-hit, mixed and intra-request-duplicate
/// requests, on one worker and on two.
#[test]
fn feature_path_matches_schedule_path_bit_for_bit() {
    let (model, ex, seqs) = tlp_model(Backbone::Attention);
    let fresh = candidates(4, 0xF1);
    let mut mixed = seqs[4..12].to_vec();
    mixed.push(seqs[5].clone()); // a hit twice
    mixed.extend(fresh.iter().cloned());
    mixed.push(fresh[1].clone()); // a miss twice
    let requests: [(&[ScheduleSequence], (u32, u32)); 3] =
        [(&seqs[..8], (0, 8)), (&seqs[..8], (8, 0)), (&mixed, (5, 9))];
    let t = task();
    for threads in [1, 2] {
        let config = EngineConfig {
            micro_batch: 3,
            threads,
            cache_capacity: 128,
        };
        let engine = || InferenceEngine::new(MtlTlpScorer::new(model.clone(), ex.clone()), config);
        let (featured, plain) = (engine(), engine());
        let (mut feats, mut got, mut want) = (FeatureBuf::new(), Vec::new(), Vec::new());
        for (request, counts) in requests {
            let keys = ScoreKeys::new(&t, request);
            ex.extract_batch_into(request, &mut feats);
            let a = featured.score_features_into(&feats, &keys, &mut got);
            let b = plain.score_into(&t, request, &mut want);
            assert_eq!(bits(&got), bits(&want), "{threads} worker(s)");
            assert_eq!((a.cache_hits, a.cache_misses), counts);
            assert_eq!(
                (a.cache_hits, a.cache_misses, a.micro_batches, a.threads),
                (b.cache_hits, b.cache_misses, b.micro_batches, b.threads),
                "{threads} worker(s)"
            );
            if counts.0 == 0 {
                assert_eq!(a.threads as usize, threads, "the pool ran");
            }
        }
        let (a, b) = (featured.stats(), plain.stats());
        assert_eq!(
            (a.requests, a.cache_hits, a.cache_misses, a.cache_len),
            (b.requests, b.cache_hits, b.cache_misses, b.cache_len)
        );
    }
}

/// The admission probe answers from the cache all or nothing and counts
/// nothing on a miss; keys taken before an invalidation still key the
/// rescoring through the features-keyed entry under the new salt.
#[test]
fn probe_is_all_or_nothing_and_counts_nothing_on_a_miss() {
    let (model, ex, seqs) = tlp_model(Backbone::Attention);
    let engine = InferenceEngine::new(
        MtlTlpScorer::new(model.clone(), ex.clone()),
        EngineConfig {
            micro_batch: 4,
            threads: 1,
            cache_capacity: 128,
        },
    );
    let t = task();
    let (first, _) = engine.score(&t, &seqs[..8]);
    let counted = engine.stats();
    let mut out = Vec::new();

    // One absent key among eight present ones: no answer, no counter.
    assert!(engine
        .probe(&ScoreKeys::new(&t, &seqs[..9]), &mut out)
        .is_none());
    assert!(engine.probe(&ScoreKeys::new(&t, &[]), &mut out).is_none());
    assert_eq!(engine.stats(), counted);

    // Every key present: the scores, counted as one all-hit request that
    // ran no micro-batch.
    let keys = ScoreKeys::new(&t, &seqs[..8]);
    let stats = engine.probe(&keys, &mut out).expect("all eight are cached");
    assert_eq!(bits(&out), bits(&first));
    assert_eq!(
        (
            stats.cache_hits,
            stats.cache_misses,
            stats.micro_batches,
            stats.threads
        ),
        (8, 0, 0, 0)
    );
    let after = engine.stats();
    assert_eq!(after.requests, counted.requests + 1);
    assert_eq!(after.cache_hits, counted.cache_hits + 8);
    assert_eq!(after.cache_misses, counted.cache_misses);
    assert_eq!(after.micro_batches, counted.micro_batches);

    // The same keys after an invalidation name nothing any more, and still
    // key the rescoring correctly under the new salt.
    engine.invalidate();
    assert!(engine.probe(&keys, &mut out).is_none());
    let mut feats = FeatureBuf::new();
    ex.extract_batch_into(&seqs[..8], &mut feats);
    let rescored = engine.score_features_into(&feats, &keys, &mut out);
    assert_eq!(rescored.cache_misses, 8);
    assert_eq!(bits(&out), bits(&first));
    assert!(engine.probe(&keys, &mut out).is_some());

    // An engine without a cache has nothing to probe.
    let uncached = InferenceEngine::new(
        MtlTlpScorer::new(model, ex),
        EngineConfig::sequential_uncached(),
    );
    uncached.score(&t, &seqs[..8]);
    assert!(uncached.probe(&keys, &mut out).is_none());
}
