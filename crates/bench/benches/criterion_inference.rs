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
//! `attention_softmax_13x128` times the one stage of the forward that is
//! not a GEMM on its own: the column softmax over a 64-candidate
//! micro-batch's attention tiles, with the `exp` the model runs
//! (`tlp_nn::kernels::exp`) and with libm's, in ns per score element.
//!
//! Run with `cargo bench -p tlp-bench --bench criterion_inference`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use criterion::{criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
            vb.observe(p.stage);
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

/// The passes of the fused attention's column softmax over consecutive
/// `keys × lanes` tiles of `st`: max down each column, `exp` and sum,
/// reciprocal, normalize — every pass across the query lanes.
fn softmax_tiles(st: &mut [f32], keys: usize, lanes: usize, exp: impl Fn(f32) -> f32) {
    let mut mx = vec![0.0f32; lanes];
    let mut sum = vec![0.0f32; lanes];
    for tile in st.chunks_exact_mut(keys * lanes) {
        mx.fill(f32::NEG_INFINITY);
        for row in tile.chunks_exact(lanes) {
            for (m, &s) in mx.iter_mut().zip(row) {
                *m = m.max(s);
            }
        }
        sum.fill(0.0);
        for row in tile.chunks_exact_mut(lanes) {
            for ((s, &m), acc) in row.iter_mut().zip(&mx).zip(sum.iter_mut()) {
                *s = exp(*s - m);
                *acc += *s;
            }
        }
        for (m, &acc) in mx.iter_mut().zip(&sum) {
            *m = 1.0 / acc;
        }
        for row in tile.chunks_exact_mut(lanes) {
            for (s, &inv) in row.iter_mut().zip(&mx) {
                *s *= inv;
            }
        }
    }
}

/// Fastest of 400 passes of `pass` over a fresh copy of `scores`, in ns per
/// element.
fn ns_per_element(scores: &[f32], mut pass: impl FnMut(&mut [f32])) -> f64 {
    let mut st = scores.to_vec();
    let best = (0..400)
        .map(|_| {
            st.copy_from_slice(scores);
            let t = std::time::Instant::now();
            pass(criterion::black_box(&mut st));
            t.elapsed()
        })
        .min()
        .expect("at least one pass");
    best.as_secs_f64() * 1e9 / scores.len() as f64
}

/// The attention tile shape the model runs on the conv2d pool — 12 real
/// keys + the pad key, 8 heads' 16 query lanes side by side — one tile per
/// candidate, for 64 candidates.
fn bench_softmax_exp() {
    let (keys, lanes, cands) = (13, 8 * 16, 64);
    let mut rng = SmallRng::seed_from_u64(7);
    let scores: Vec<f32> = (0..cands * keys * lanes)
        .map(|_| rng.gen::<f32>() * 8.0 - 4.0)
        .collect();
    for (name, ns) in [
        (
            "kernels_exp",
            ns_per_element(&scores, |st| {
                softmax_tiles(st, keys, lanes, tlp_nn::kernels::exp)
            }),
        ),
        (
            "libm_exp",
            ns_per_element(&scores, |st| softmax_tiles(st, keys, lanes, f32::exp)),
        ),
    ] {
        println!("attention_softmax_13x128/{name:<20} {ns:>9.2} ns/element");
    }
}

criterion_group!(benches, bench_pipelines);

fn main() {
    benches();
    bench_softmax_exp();
}
