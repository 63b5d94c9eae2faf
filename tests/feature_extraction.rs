//! Feature-extraction integration tests on realistic generated schedules
//! (the unit tests in `tlp::features` use hand-built primitives).

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp::features::{FeatureExtractor, ONEHOT};
use tlp_autotuner::{Candidate, SketchPolicy};
use tlp_dataset::{generate_dataset_for, DatasetConfig};
use tlp_hwsim::Platform;
use tlp_workload::{bert_tiny, mobilenet_v2, AnchorOp, Subgraph};

fn extract_one(ex: &FeatureExtractor, seq: &tlp_schedule::ScheduleSequence) -> Vec<f32> {
    let mut buf = tlp::features::FeatureBuf::new();
    ex.extract_batch_into(std::slice::from_ref(seq), &mut buf);
    buf.data().to_vec()
}

fn dataset() -> tlp_dataset::Dataset {
    generate_dataset_for(
        &[bert_tiny(1, 64), mobilenet_v2(1, 96)],
        &[],
        &[Platform::i7_10510u()],
        &DatasetConfig {
            programs_per_task: 10,
            ..DatasetConfig::default()
        },
    )
}

#[test]
fn fitted_vocabulary_covers_generated_names() {
    let ds = dataset();
    let ex = FeatureExtractor::fit(&ds, 25, 22);
    // Stage names and annotations seen in generation must be in-vocabulary.
    for name in ["dense", "depthwise_conv2d", "parallel", "vectorize"] {
        assert_ne!(
            ex.vocab().token(name),
            tlp_schedule::vocab::UNKNOWN_TOKEN,
            "`{name}` should be known"
        );
    }
    assert!(ex.vocab().len() > 10);
}

#[test]
fn distinct_schedules_get_distinct_features() {
    let ds = dataset();
    let ex = FeatureExtractor::fit(&ds, 25, 22);
    let mut feature_sets = std::collections::HashSet::new();
    let mut total = 0usize;
    for task in &ds.tasks {
        for r in &task.programs {
            total += 1;
            let f = extract_one(&ex, &r.schedule);
            let key: Vec<u32> = f.iter().map(|x| x.to_bits()).collect();
            feature_sets.insert(key);
        }
    }
    // Near-unique: the 25×22 crop keeps schedules distinguishable (paper §4.3).
    let distinct = feature_sets.len();
    assert!(
        distinct as f64 > total as f64 * 0.95,
        "{distinct}/{total} distinct feature matrices"
    );
}

#[test]
fn features_separate_good_from_bad_schedules_linearly_somewhat() {
    // Sanity: even a trivial linear probe on TLP features must beat chance
    // at classifying fastest-vs-slowest schedules; otherwise the features
    // carry no signal and no model could learn.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 256,
            n: 256,
            k: 256,
        },
    );
    let platform = Platform::i7_10510u();
    let policy = SketchPolicy::cpu();
    let sim = tlp_hwsim::Simulator::new();
    let mut rng = SmallRng::seed_from_u64(12);
    let mut samples: Vec<(Vec<f32>, f64)> = Vec::new();
    let mut vocab = tlp_schedule::Vocabulary::builder();
    let cands: Vec<Candidate> = (0..200)
        .map(|_| Candidate::random(&policy, &sg, &mut rng))
        .collect();
    for c in &cands {
        for p in c.sequence.iter() {
            vocab.observe(p.stage);
            for v in &p.loop_vars {
                vocab.observe(v);
            }
            for e in &p.extras {
                vocab.observe(e);
            }
        }
    }
    let ex = FeatureExtractor::with_vocab(vocab.build(), 25, 22);
    for c in &cands {
        let spec = tlp_hwsim::lower(&sg, &c.sequence).unwrap();
        let lat = sim.latency(&platform, &sg, &spec, c.sequence.fingerprint());
        samples.push((extract_one(&ex, &c.sequence), lat));
    }
    samples.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let n = samples.len();
    let fast = &samples[..n / 4];
    let slow = &samples[3 * n / 4..];
    // Mean feature vectors of the fast and slow quartiles must differ.
    let dim = 25 * 22;
    let mean = |set: &[(Vec<f32>, f64)]| -> Vec<f32> {
        let mut m = vec![0.0f32; dim];
        for (f, _) in set {
            for (mi, &x) in m.iter_mut().zip(f) {
                *mi += x;
            }
        }
        m.iter().map(|x| x / set.len() as f32).collect()
    };
    let mf = mean(fast);
    let ms = mean(slow);
    let dist: f32 = mf.iter().zip(&ms).map(|(a, b)| (a - b) * (a - b)).sum();
    assert!(dist > 0.1, "fast/slow feature centroids too close: {dist}");
}

#[test]
fn onehot_constant_matches_kind_count() {
    assert_eq!(ONEHOT, tlp_schedule::PrimitiveKind::ALL.len());
}
