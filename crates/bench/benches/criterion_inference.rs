//! Criterion micro-benchmarks of per-candidate cost-model pipelines: TLP's
//! primitive-sequence feature extraction + NN inference vs the TenSet-MLP
//! pipeline (program generation + feature extraction + MLP inference).
//!
//! These support Figure 10's "execution speed" comparison with real
//! measurements on this machine. Engine throughput (cold and warm
//! candidates/sec, every score bit-compared to a dense reference) is the
//! system benchmark's `score_cold` workload, not measured here.
//!
//! Run with `cargo bench -p tlp-bench --bench criterion_inference`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use criterion::{criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp::baselines::{program_features, TenSetMlp};
use tlp::features::{FeatureBuf, FeatureExtractor};
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, SketchPolicy};
use tlp_nn::Workspace;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_workload::{AnchorOp, Subgraph};

fn conv_subgraph() -> Subgraph {
    Subgraph::new(
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
}

fn candidates(sg: &Subgraph, n: usize) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let policy = SketchPolicy::cpu();
    (0..n)
        .map(|_| Candidate::random(&policy, sg, &mut rng).sequence)
        .collect()
}

fn subject() -> (Subgraph, Vec<ScheduleSequence>) {
    let sg = conv_subgraph();
    let seqs = candidates(&sg, 64);
    (sg, seqs)
}

fn extractor_for(seqs: &[ScheduleSequence]) -> FeatureExtractor {
    let mut vb = Vocabulary::builder();
    for s in seqs {
        for p in s.iter() {
            vb.observe(&p.stage);
            for v in &p.loop_vars {
                vb.observe(v);
            }
            for e in &p.extras {
                vb.observe(e);
            }
        }
    }
    FeatureExtractor::with_vocab(vb.build(), 25, 22)
}

fn bench_pipelines(c: &mut Criterion) {
    let (sg, seqs) = subject();
    let extractor = extractor_for(&seqs);
    let cfg = TlpConfig::default();
    let tlp_model = TlpModel::new(cfg.clone());
    let tenset = TenSetMlp::new(cfg);

    let mut group = c.benchmark_group("per_candidate_scoring_64");
    group.bench_function("tlp_extract_only", |b| {
        let mut buf = FeatureBuf::new();
        b.iter(|| {
            extractor.extract_batch_into(&seqs, &mut buf);
            criterion::black_box(buf.len())
        })
    });
    group.bench_function("tlp_extract_and_infer", |b| {
        let mut buf = FeatureBuf::new();
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        b.iter(|| {
            extractor.extract_batch_into(&seqs, &mut buf);
            tlp_model.predict_into(&mut ws, &buf, &mut out);
            criterion::black_box(out.len())
        })
    });
    group.bench_function("tenset_program_gen_and_features", |b| {
        b.iter(|| seqs.iter().filter_map(|s| program_features(&sg, s)).count())
    });
    group.bench_function("tenset_full_pipeline", |b| {
        b.iter(|| {
            let mut feats = Vec::new();
            for s in &seqs {
                if let Some(f) = program_features(&sg, s) {
                    feats.extend(f);
                }
            }
            tenset.predict(&feats)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipelines);

fn main() {
    benches();
}
