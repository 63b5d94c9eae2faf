//! Semantic invariants of the reproduction: the qualitative facts the
//! paper's experiments rest on must hold in the simulated substrate.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::{Candidate, SketchPolicy};
use tlp_hwsim::{lower, preferred_unroll, Platform, Simulator};
use tlp_workload::{test_networks, AnchorOp, Subgraph};

fn best_random_latency(platform: &Platform, sg: &Subgraph, n: usize, seed: u64) -> f64 {
    let policy = if platform.is_gpu() {
        SketchPolicy::gpu()
    } else {
        SketchPolicy::cpu()
    };
    let sim = Simulator::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .filter_map(|_| {
            let c = Candidate::random(&policy, sg, &mut rng);
            lower(sg, &c.sequence)
                .ok()
                .map(|spec| sim.latency(platform, sg, &spec, c.sequence.fingerprint()))
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn schedule_choice_matters_an_order_of_magnitude() {
    // The premise of tuning: good schedules are much faster than bad ones.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 512,
            n: 512,
            k: 512,
        },
    );
    let platform = Platform::i7_10510u();
    let policy = SketchPolicy::cpu();
    let sim = Simulator::new();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut lats: Vec<f64> = (0..300)
        .filter_map(|_| {
            let c = Candidate::random(&policy, &sg, &mut rng);
            lower(&sg, &c.sequence)
                .ok()
                .map(|spec| sim.latency(&platform, &sg, &spec, c.sequence.fingerprint()))
        })
        .collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let spread = lats.last().unwrap() / lats.first().unwrap();
    assert!(spread > 10.0, "latency spread only {spread:.1}x");
}

#[test]
fn platforms_disagree_on_schedule_ranking() {
    // The cross-hardware domain gap (paper §5.1): the same schedules rank
    // differently on different platforms.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 256,
            n: 256,
            k: 256,
        },
    );
    let policy = SketchPolicy::cpu();
    let sim = Simulator::new();
    let mut rng = SmallRng::seed_from_u64(11);
    let candidates: Vec<Candidate> = (0..80)
        .map(|_| Candidate::random(&policy, &sg, &mut rng))
        .collect();
    let latencies = |p: &Platform| -> Vec<f64> {
        candidates
            .iter()
            .map(|c| {
                let spec = lower(&sg, &c.sequence).unwrap();
                sim.latency(p, &sg, &spec, c.sequence.fingerprint())
            })
            .collect()
    };
    let a = latencies(&Platform::platinum_8272()); // AVX-512, 16 cores
    let b = latencies(&Platform::graviton2()); // NEON, 16 cores
                                               // Count pairwise ranking disagreements.
    let mut disagree = 0usize;
    let mut total = 0usize;
    for i in 0..a.len() {
        for j in (i + 1)..a.len() {
            total += 1;
            if (a[i] < a[j]) != (b[i] < b[j]) {
                disagree += 1;
            }
        }
    }
    let rate = disagree as f64 / total as f64;
    assert!(
        rate > 0.03,
        "platforms rank too similarly (disagreement {rate:.3}) — no domain gap"
    );
}

#[test]
fn same_isa_platforms_rank_more_alike_than_cross_isa() {
    // Basis of Table 9: Intel↔Intel transfer beats Intel↔ARM.
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 256,
            n: 256,
            k: 256,
        },
    );
    let policy = SketchPolicy::cpu();
    let sim = Simulator::new();
    let mut rng = SmallRng::seed_from_u64(13);
    let candidates: Vec<Candidate> = (0..120)
        .map(|_| Candidate::random(&policy, &sg, &mut rng))
        .collect();
    let lat = |p: &Platform| -> Vec<f64> {
        candidates
            .iter()
            .map(|c| {
                let spec = lower(&sg, &c.sequence).unwrap();
                sim.latency(p, &sg, &spec, c.sequence.fingerprint())
            })
            .collect()
    };
    let i7 = lat(&Platform::i7_10510u());
    let e5 = lat(&Platform::e5_2673()); // same ISA (AVX2 Intel)
    let arm = lat(&Platform::graviton2()); // different ISA
    let agreement = |x: &[f64], y: &[f64]| -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..x.len() {
            for j in (i + 1)..x.len() {
                total += 1;
                if (x[i] < x[j]) == (y[i] < y[j]) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    };
    let same_isa = agreement(&i7, &e5);
    let cross_isa = agreement(&i7, &arm);
    assert!(
        same_isa > cross_isa,
        "same-ISA agreement {same_isa:.3} must exceed cross-ISA {cross_isa:.3}"
    );
}

#[test]
fn platform_unroll_preferences_differ() {
    let prefs: Vec<i64> = Platform::all()
        .iter()
        .map(|p| preferred_unroll(p.quirk_seed))
        .collect();
    assert!(prefs.iter().any(|&p| p != prefs[0]), "prefs {prefs:?}");
}

#[test]
fn every_test_network_subgraph_is_schedulable_on_every_platform() {
    let sim = Simulator::new();
    for net in test_networks() {
        for platform in Platform::all() {
            let policy = if platform.is_gpu() {
                SketchPolicy::gpu()
            } else {
                SketchPolicy::cpu()
            };
            let mut rng = SmallRng::seed_from_u64(17);
            for inst in &net.instances {
                let c = Candidate::random(&policy, &inst.subgraph, &mut rng);
                let spec = lower(&inst.subgraph, &c.sequence)
                    .unwrap_or_else(|e| panic!("{} / {}: {e}", net.name, inst.subgraph.name));
                let lat = sim.latency(&platform, &inst.subgraph, &spec, c.sequence.fingerprint());
                assert!(
                    lat.is_finite() && lat > 0.0 && lat < 60.0,
                    "{} / {} on {}: latency {lat}",
                    net.name,
                    inst.subgraph.name,
                    platform.name
                );
            }
        }
    }
}

#[test]
fn more_random_trials_find_better_schedules() {
    // Monotone improvement with search effort — the backbone of every
    // tuning-curve experiment.
    let sg = Subgraph::new(
        "c",
        AnchorOp::Conv2d {
            n: 1,
            cin: 64,
            hw: 28,
            cout: 128,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        },
    );
    let platform = Platform::e5_2673();
    let few = best_random_latency(&platform, &sg, 10, 23);
    let many = best_random_latency(&platform, &sg, 200, 23);
    assert!(many <= few, "more trials can't be worse: {many} vs {few}");
}

#[test]
fn softmax_exp_computes_the_pinned_bits_on_this_build() {
    // Platform canary. Every score, trained weight and digest in the repo
    // rests on `tlp_nn::kernels::exp` being a fixed operation sequence: the
    // same bits at any vector width, target CPU and opt level. FNV-1a over
    // its outputs on the grid -104, -104 + 2⁻¹², .. < 96 (every point exact
    // in `f32`; flush, clamp and 0.0 included); a build whose arithmetic
    // differs fails here first.
    let digest = (0..200 * 4096).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
        let x = (i as f32 - 104.0 * 4096.0) / 4096.0;
        (h ^ u64::from(tlp_nn::kernels::exp(x).to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let want = 0x5e3c_4e72_76d8_e7a0u64;
    assert_eq!(digest, want, "expected {want:#018x}, got {digest:#018x}");
}
