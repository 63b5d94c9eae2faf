//! Criterion micro-benchmarks of per-candidate cost-model pipelines: TLP's
//! primitive-sequence feature extraction + NN inference vs the TenSet-MLP
//! pipeline (program generation + feature extraction + MLP inference).
//!
//! These support Figure 10's "execution speed" comparison with real
//! measurements on this machine. Engine throughput (cold and warm
//! candidates/sec, every score bit-compared to a dense reference) is the
//! system benchmark's `score_cold` workload, not measured here.
//!
//! `tlp_extract_and_infer` runs on two inputs of identical shape: the random
//! sketch pool (one subgraph's candidates repeat most of their feature rows,
//! which the fused forward computes once each) and a batch whose rows are
//! pairwise distinct (nothing to share — the bypass case). The share of rows
//! that repeat an earlier row is printed beside each.
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
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary};
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

/// Schedules with `rows[i]` primitives each, every primitive carrying
/// integers no other one has, so no two feature rows are equal.
fn distinct_row_candidates(rows: &[usize]) -> Vec<ScheduleSequence> {
    let mut next = 0i64;
    rows.iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    next += 1;
                    ConcretePrimitive::new(PrimitiveKind::Split, "c")
                        .with_loops(["i"])
                        .with_ints([next, next + 1])
                })
                .collect()
        })
        .collect()
}

/// Share of a batch's real feature rows that are bit-identical to an
/// earlier real row of the same batch.
fn duplicate_row_share(buf: &FeatureBuf) -> f64 {
    let distinct: std::collections::BTreeSet<Vec<u32>> = buf
        .real_rows()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect();
    1.0 - distinct.len() as f64 / buf.real_rows().count().max(1) as f64
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
    let mut buf = FeatureBuf::new();
    extractor.extract_batch_into(&seqs, &mut buf);
    let distinct = distinct_row_candidates(buf.rows_used());
    for (name, input) in [
        ("tlp_extract_and_infer", &seqs),
        ("tlp_extract_and_infer_distinct_rows", &distinct),
    ] {
        extractor.extract_batch_into(input, &mut buf);
        let rows: usize = buf.rows_used().iter().sum();
        let share = duplicate_row_share(&buf);
        println!("{name}: {rows} rows, duplicate-row share {share:.3}");
        group.bench_function(name, |b| {
            let mut ws = Workspace::new();
            let mut out = Vec::new();
            b.iter(|| {
                extractor.extract_batch_into(input, &mut buf);
                tlp_model.predict_into(&mut ws, &buf, &mut out);
                criterion::black_box(out.len())
            })
        });
    }
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
