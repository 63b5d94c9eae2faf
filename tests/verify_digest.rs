//! The verifier's output, pinned: every `Diagnostic` (code, severity, step,
//! message) `verify_with` emits over a seeded corpus, under inferred and
//! pinned `gpu`, folded into one digest.
//!
//! The corpus has three parts:
//!
//! 1. sketch output for the soundness suite's subgraphs and for BERT-tiny's
//!    tasks, under the CPU and the GPU policy;
//! 2. each of those schedules under every corruption `verify_soundness.rs`
//!    applies (zeroed, negative and truncated tile factors, dangling names in
//!    fuses and annotations, splits of non-axes, stripped loop variables, an
//!    appended annotation on a never-defined name);
//! 3. hostile schedules that sketch output never produces: thousands of
//!    distinct names, long names sharing their first eight bytes, names with
//!    bytes 0x00–0x07 and non-ASCII bytes, two- to four-digit split parts,
//!    one name consumed and redefined over and over, zero-loop fuses and
//!    empty names.
//!
//! The literals were captured before the dataflow pass's environment was
//! indexed, when every lookup scanned the environment backwards; any change
//! to how the environment stores or finds names must reproduce every
//! finding, its text and its order.
//!
//! A second corpus, folded the same way under its own literal, aims at how
//! split parts (`oc.2`) are told apart from other names on the dense,
//! batch-matmul and conv2d subgraphs: parts referenced or consumed before
//! their axis is split, an axis split twice, splits of parts, names shaped
//! almost like parts (`oc.00`, `oc.`, `.0`, `oc..1`), parts around every
//! plausible table width (`.7` to `.65`), cache-stage follow-splits, GPU
//! bindings whose extents come from parts, and rfactor on parts. Its literal
//! was captured before split parts moved out of the index.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::SketchPolicy;
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};
use tlp_verify::{verify_with, Verifier, VerifyOptions};
use tlp_workload::{bert_tiny, AnchorOp, LoopKind, Subgraph};

const DEVICES: [Option<bool>; 3] = [None, Some(false), Some(true)];

fn subgraphs() -> Vec<Subgraph> {
    let mut pool = vec![
        Subgraph::new(
            "dense",
            AnchorOp::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
        ),
        Subgraph::new(
            "bmm",
            AnchorOp::BatchMatmul {
                b: 4,
                m: 32,
                n: 32,
                k: 32,
            },
        ),
        Subgraph::new(
            "conv",
            AnchorOp::Conv2d {
                n: 1,
                cin: 16,
                hw: 14,
                cout: 16,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
        ),
    ];
    pool.extend(bert_tiny(1, 64).instances.into_iter().map(|i| i.subgraph));
    pool
}

/// The eight corruptions of `verify_soundness.rs`, in its order; `None` when
/// the schedule has no step the corruption applies to.
fn corrupted(seq: &ScheduleSequence, strategy: usize, seed: u64) -> Option<ScheduleSequence> {
    let mut steps: Vec<ConcretePrimitive> = seq.clone().into_iter().collect();
    // A step of `kind` chosen by the seed, if it also satisfies `ok`.
    let pick = |kind: PrimitiveKind, ok: fn(&ConcretePrimitive) -> bool| {
        let hits: Vec<usize> = (0..steps.len())
            .filter(|&i| steps[i].kind == kind)
            .collect();
        let i = *hits.get(seed as usize % hits.len().max(1))?;
        ok(&steps[i]).then_some(i)
    };
    match strategy {
        0 | 1 => {
            let i = pick(PrimitiveKind::Split, |p| !p.ints.is_empty())?;
            let j = seed as usize % steps[i].ints.len();
            steps[i].ints[j] = if strategy == 0 { 0 } else { -3 };
        }
        2 => {
            let i = pick(PrimitiveKind::Split, |p| p.ints.len() >= 2)?;
            steps[i].ints.truncate(1);
        }
        3 => {
            let i = pick(PrimitiveKind::Fuse, |p| !p.loop_vars.is_empty())?;
            let j = seed as usize % steps[i].loop_vars.len();
            steps[i].loop_vars[j] = "ghost".to_string();
        }
        4 => {
            let i = pick(PrimitiveKind::Annotation, |p| !p.loop_vars.is_empty())?;
            steps[i].loop_vars[0] = "ghost".to_string();
        }
        5 => {
            let i = pick(PrimitiveKind::Split, |p| !p.loop_vars.is_empty())?;
            steps[i].loop_vars[0] = "zz".to_string();
        }
        6 => {
            let i = pick(PrimitiveKind::Split, |_| true)?;
            steps[i].loop_vars.clear();
        }
        _ => steps.push(
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["never_defined"])
                .with_extras(["parallel"]),
        ),
    }
    Some(steps.into_iter().collect())
}

fn prim(kind: PrimitiveKind, stage: &str, loops: &[&str]) -> ConcretePrimitive {
    ConcretePrimitive::new(kind, stage).with_loops(loops.iter().copied())
}

fn annotate(var: &str, ann: &str) -> ConcretePrimitive {
    prim(PrimitiveKind::Annotation, "dense", &[var]).with_extras([ann])
}

/// Hostile schedules against the dense subgraph (axes `i`, `j`, `k`).
fn hostile() -> Vec<ScheduleSequence> {
    use PrimitiveKind::{Annotation, Fuse, Reorder, Split};
    let mut out: Vec<ScheduleSequence> = Vec::new();

    // 1 200 distinct names: fuses of never-defined operands record each
    // operand as consumed and define a joined name; references then reach
    // the newest, the oldest and never-defined names.
    let names: Vec<String> = (0..1200).map(|n| format!("v{n}")).collect();
    let mut many: Vec<ConcretePrimitive> = names
        .chunks(2)
        .map(|pair| prim(Fuse, "dense", &[&pair[0], &pair[1]]))
        .collect();
    for n in [0, 1, 7, 599, 1198, 1199, 1200, 4096] {
        many.push(annotate(&format!("v{n}"), "parallel"));
        many.push(annotate(&format!("v{}@v{}", n & !1, n | 1), "unroll"));
    }
    out.push(many.into_iter().collect());

    // 1 201 split parts (`i.0` … `i.1200`), then references to one-, two-,
    // three- and four-digit parts, and a fuse of two-digit parts.
    let mut parts = vec![prim(Split, "dense", &["i"])
        .with_ints(std::iter::once(64).chain(std::iter::repeat_n(1, 1200)))];
    for var in [
        "i.0", "i.9", "i.10", "i.11", "i.99", "i.100", "i.1200", "i.1201",
    ] {
        parts.push(annotate(var, "vectorize"));
    }
    parts.push(prim(Fuse, "dense", &["i.10", "i.11"]));
    parts.push(prim(
        Reorder,
        "dense",
        &["i.10@i.11", "i.10", "i.12", "i.01"],
    ));
    out.push(parts.into_iter().collect());

    // Two-digit parts from a realistic split, consumed by a fuse.
    out.push(
        [
            prim(Split, "dense", &["j"]).with_ints([64, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2]),
            prim(Fuse, "dense", &["j.10", "j.11", "j.1"]),
            annotate("j.10@j.11@j.1", "parallel"),
            annotate("j.10", "unroll"),
            annotate("j.12", "vectorize"),
            annotate("j.13", "vectorize"),
        ]
        .into_iter()
        .collect(),
    );

    // Names longer than eight bytes that share their first eight, and
    // short names that prefix them.
    let long = [
        "abcdefgh",
        "abcdefgh0",
        "abcdefgh1",
        "abcdefgh01",
        "abcdefghij",
        "abcdefg",
        "abcdefgh0",
    ];
    let mut shared: Vec<ConcretePrimitive> =
        long.iter().map(|n| prim(Fuse, "dense", &[n])).collect();
    for n in long.iter().chain(&["abcdefgh10", "abcdefgh", "abcdefgi0"]) {
        shared.push(prim(Reorder, "dense", &[n]));
        shared.push(prim(Fuse, "dense", &[n, "i"]));
        shared.push(annotate(&format!("{n}@i"), "parallel"));
    }
    out.push(shared.into_iter().collect());

    // Control bytes: "a\0" zero-pads to the same eight bytes as "a", and
    // "\0" to the same as the empty name; only the length tells them apart.
    let control = [
        "a", "a\0", "a\0\0", "\0", "\x01", "\x07", "i\x00", "\x00i", "j\x05.0",
    ];
    let mut ctl = vec![prim(Split, "dense", &["j"]).with_ints([64, 8])];
    for n in control {
        ctl.push(prim(Fuse, "dense", &[n]));
    }
    for n in control.iter().chain(&["", "a\0\0\0", "\x02", "j.0"]) {
        ctl.push(annotate(n, "parallel"));
        ctl.push(prim(Fuse, "dense", &[n]));
        ctl.push(annotate(n, "unroll"));
    }
    out.push(ctl.into_iter().collect());

    // Non-ASCII names, including one whose first eight bytes end inside a
    // multi-byte character.
    let wide = [
        "ï",
        "变量",
        "i.é",
        "ααααβ",
        "ααααγ",
        "ℓoop.0",
        "\u{7f}\u{80}",
    ];
    let mut uni: Vec<ConcretePrimitive> = wide.iter().map(|n| prim(Fuse, "dense", &[n])).collect();
    for n in wide.iter().chain(&["αααα", "ααααβγ", "变"]) {
        uni.push(annotate(n, "vectorize"));
        uni.push(prim(Fuse, "dense", &[n, "k"]));
    }
    out.push(uni.into_iter().collect());

    // One name consumed and redefined over and over: a one-operand fuse
    // consumes `i` and defines `i` again; a second fuse of the same name in
    // one step consumes it twice.
    let mut churn = Vec::new();
    for round in 0..64 {
        churn.push(prim(Fuse, "dense", &["i"]));
        churn.push(annotate(
            "i",
            if round % 2 == 0 { "parallel" } else { "unroll" },
        ));
        if round % 8 == 7 {
            churn.push(prim(Fuse, "dense", &["i", "i"]));
            churn.push(annotate("i", "vectorize"));
            churn.push(annotate("i@i", "vectorize"));
        }
    }
    churn.push(prim(Split, "dense", &["i"]).with_ints([64, 4]));
    churn.push(annotate("i", "parallel"));
    churn.push(annotate("i.1", "vectorize"));
    out.push(churn.into_iter().collect());

    // Zero-loop fuses define the empty name; references to it before, in
    // between and after; an annotation that names only the empty name.
    let mut empty = vec![annotate("", "parallel"), prim(Fuse, "dense", &[])];
    for _ in 0..3 {
        empty.push(annotate("", "unroll"));
        empty.push(prim(Fuse, "dense", &["", ""]));
        empty.push(annotate("@", "unroll"));
        empty.push(prim(Fuse, "dense", &[]));
        empty.push(prim(Annotation, "dense", &[""]).with_extras(["threadIdx.x"]));
    }
    empty.push(prim(Reorder, "dense", &["", "@", "i", ""]));
    out.push(empty.into_iter().collect());

    out
}

/// The whole corpus, each schedule paired with the subgraph it is checked
/// against.
fn corpus() -> Vec<(Subgraph, Vec<ScheduleSequence>)> {
    let mut corpus: Vec<(Subgraph, Vec<ScheduleSequence>)> = subgraphs()
        .into_iter()
        .map(|sg| {
            let mut seqs = Vec::new();
            for policy in [SketchPolicy::cpu(), SketchPolicy::gpu()] {
                let sketch = policy.compile(&sg);
                let mut rng = SmallRng::seed_from_u64(0xD16E57);
                for seed in 0..12u64 {
                    let clean = sketch.random_candidate(&mut rng).sequence;
                    seqs.extend((0..8).filter_map(|s| corrupted(&clean, s, seed)));
                    seqs.push(clean);
                }
            }
            (sg, seqs)
        })
        .collect();
    let dense = subgraphs().remove(0);
    corpus.push((dense, hostile()));
    corpus
}

/// Folds every finding over `corpus` — checked by a fresh verifier and by
/// one reused per `(subgraph, options)` pair, which must agree — into
/// `(schedules, findings, digest)`.
fn pin(corpus: &[(Subgraph, Vec<ScheduleSequence>)]) -> (u64, u64, u64) {
    fn fold(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot trade bytes.
        *h = (*h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut schedules, mut findings) = (0u64, 0u64);
    for (sg, seqs) in corpus {
        for gpu in DEVICES {
            let opts = VerifyOptions { gpu };
            let mut reused = Verifier::new(sg, &opts);
            for seq in seqs {
                let report = verify_with(sg, seq, &opts);
                assert_eq!(reused.check(seq), report, "schedule {schedules}");
                for d in &report.diagnostics {
                    fold(&mut digest, &schedules.to_le_bytes());
                    fold(&mut digest, d.code.as_str().as_bytes());
                    fold(&mut digest, d.severity.to_string().as_bytes());
                    fold(
                        &mut digest,
                        &d.step.map_or(u64::MAX, |s| s as u64).to_le_bytes(),
                    );
                    fold(&mut digest, d.message.as_bytes());
                    findings += 1;
                }
                schedules += 1;
            }
        }
    }
    (schedules, findings, digest)
}

#[test]
fn every_diagnostic_on_the_corpus_matches_the_pinned_digest() {
    let (schedules, findings, digest) = pin(&corpus());
    assert_eq!(
        (schedules, findings, digest),
        (6504, 29_723, 0x73a3_75b0_cb01_3a8e),
        "digest {digest:#018x}"
    );
}

/// Schedules that probe how split parts (`oc.2`) are told apart from every
/// other name, against `sg`: `s` is its widest spatial axis, `t` its last
/// other spatial axis and `r` its first reduction axis.
fn split_part_edges(sg: &Subgraph) -> Vec<ScheduleSequence> {
    use PrimitiveKind::{Annotation, CacheWrite, FollowSplit, Fuse, Reorder, Rfactor, Split};
    let anchor = sg.anchor.name();
    let axes = sg.loops();
    let spatial: Vec<_> = axes
        .iter()
        .filter(|a| a.kind == LoopKind::Spatial)
        .collect();
    let widest = spatial
        .iter()
        .max_by_key(|a| a.extent)
        .expect("a spatial axis");
    let (s, se) = (widest.name, widest.extent);
    let other = spatial
        .iter()
        .rev()
        .find(|a| a.name != s)
        .expect("two spatial axes");
    let (t, te) = (other.name, other.extent);
    let red = axes
        .iter()
        .find(|a| a.kind == LoopKind::Reduction)
        .expect("a reduction axis");
    let (r, re) = (red.name, red.extent);
    let p = |kind: PrimitiveKind, loops: &[&str]| prim(kind, anchor, loops);
    let on = |var: &str, ann: &str| p(Annotation, &[var]).with_extras([ann]);
    let split = |var: &str, extent: i64, factors: &[i64]| {
        p(Split, &[var]).with_ints(std::iter::once(extent).chain(factors.iter().copied()))
    };
    let part = |k: usize| format!("{s}.{k}");
    let mut out: Vec<Vec<ConcretePrimitive>> = Vec::new();

    // A part referenced before its axis is split, then after.
    out.push(vec![
        on(&part(1), "unroll"),
        p(Reorder, &[&part(0), s, &part(1)]),
        split(s, se, &[4]),
        on(&part(1), "vectorize"),
        p(Reorder, &[&part(0), &part(1), &part(2), s]),
    ]);

    // A fuse consumes `s.1` (and `s.0`) before the split that defines
    // them; `s.1` is referenced before and after that split.
    out.push(vec![
        p(Fuse, &[&part(1), &part(0)]),
        on(&part(1), "parallel"),
        on(&format!("{s}.1@{s}.0"), "unroll"),
        split(s, se, &[4]),
        on(&part(1), "vectorize"),
        p(Fuse, &[&part(1)]),
        on(&part(1), "unroll"),
        p(Fuse, &[&part(1), &part(1)]),
        on(&part(1), "unroll"),
    ]);

    // An axis split twice, the second time into fewer parts: the first
    // split's higher parts stay live, the axis stays consumed at the first.
    out.push(vec![
        split(s, se, &[2, 2, 2]),
        split(s, se, &[4]),
        on(&part(3), "vectorize"),
        on(&part(2), "unroll"),
        on(&part(1), "unroll"),
        on(s, "parallel"),
        p(Fuse, &[&part(0), &part(3)]),
        split(s, se, &[2, 2, 2, 2]),
        on(&part(3), "vectorize"),
        on(&part(4), "vectorize"),
    ]);

    // A split of a part (V301), references to a part of a part.
    out.push(vec![
        split(s, se, &[4]),
        split(&part(0), se, &[2]),
        on(&format!("{s}.0.1"), "unroll"),
        on(&format!("{s}.0.0"), "unroll"),
        on(&part(0), "parallel"),
        p(Fuse, &[&format!("{s}.0.1")]),
        on(&format!("{s}.0.1"), "unroll"),
    ]);

    // Names shaped almost like parts: a leading zero, no digits, no axis,
    // two dots, digits glued to the axis, another axis's prefix, a sign.
    let near = [
        format!("{s}.00"),
        format!("{s}.01"),
        format!("{s}."),
        ".0".to_string(),
        ".".to_string(),
        format!("{s}..1"),
        format!("{s}1"),
        format!("{s}.1."),
        format!("{s}.+1"),
        format!("{s}.-1"),
        format!("{s}.1a"),
        format!("{s}{s}.1"),
        format!("x{s}.1"),
        format!("{}.1", &s[..s.len() - 1]),
        format!("{s}.٣"),
        format!("{s}.0"),
    ];
    let mut near_steps = vec![split(s, se, &[2, 2])];
    for n in &near {
        near_steps.push(on(n, "unroll"));
    }
    for n in &near {
        near_steps.push(p(Fuse, &[n]));
        near_steps.push(on(n, "parallel"));
    }
    near_steps.push(p(
        Reorder,
        &near.iter().map(String::as_str).collect::<Vec<_>>(),
    ));
    out.push(near_steps);

    // Parts just below, at and past every width a dense part table might
    // pick, each from one split with that many parts.
    for parts in [7usize, 8, 9, 15, 16, 17, 63, 64, 65] {
        let mut steps = vec![split(s, se, &vec![1; parts - 1])];
        for k in [parts - 2, parts - 1, parts, parts + 1] {
            steps.push(on(&part(k), "unroll"));
        }
        steps.push(p(Fuse, &[&part(parts - 2), &part(parts - 1)]));
        steps.push(on(&part(parts - 1), "unroll"));
        steps.push(on(
            &format!("{}@{}", part(parts - 2), part(parts - 1)),
            "parallel",
        ));
        steps.push(p(Fuse, &[&part(parts)]));
        steps.push(on(&part(parts), "unroll"));
        steps.push(split(s, se, &[2]));
        steps.push(on(&part(parts - 1), "unroll"));
        steps.push(on(&part(1), "unroll"));
        out.push(steps);
    }

    // A cache-stage follow-split defines nothing; parts only an anchor
    // split defines are referenced before and after it.
    out.push(vec![
        prim(CacheWrite, anchor, &[]),
        prim(FollowSplit, "cache", &[s]).with_ints([se, 4]),
        prim(Annotation, "cache", &[&part(1)]).with_extras(["unroll"]),
        on(&part(0), "parallel"),
        prim(FollowSplit, anchor, &[s]).with_ints([se, 2, 2]),
        on(&part(2), "vectorize"),
        prim(Annotation, "cache", &[&part(1)]).with_extras(["unroll"]),
        prim(FollowSplit, "cache", &[t]).with_ints([te, 2]),
        on(&format!("{t}.1"), "unroll"),
    ]);

    // Thread and block bindings on split parts: V404 takes its extents from
    // the parts, one of them past any dense table's width.
    out.push(vec![
        split(s, se, &[2, 16]),
        split(
            t,
            te,
            &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 64],
        ),
        on(&part(0), "blockIdx.x"),
        on(&part(2), "threadIdx.x"),
        on(&format!("{t}.18"), "threadIdx.y"),
        on(&part(1), "threadIdx.z"),
    ]);
    out.push(vec![
        split(s, se, &[2, 16]),
        on(&part(0), "blockIdx.x"),
        on(&part(2), "threadIdx.x"),
        on(&part(7), "threadIdx.y"),
    ]);

    // rfactor on parts of a spatial and of a reduction axis, on a part not
    // yet defined, and on a fused name of both.
    out.push(vec![
        split(s, se, &[4]),
        p(Rfactor, &[&part(1)]).with_ints([1]),
        p(Rfactor, &[&format!("{r}.1")]).with_ints([1]),
        split(r, re, &[2]),
        p(Rfactor, &[&format!("{r}.1")]).with_ints([1]),
        p(Rfactor, &[&format!("{r}.01")]).with_ints([1]),
        p(Fuse, &[&part(0), &format!("{r}.0")]),
        p(Rfactor, &[&format!("{s}.0@{r}.0")]).with_ints([1]),
        p(Rfactor, &[&part(9)]).with_ints([1]),
    ]);

    // A one-operand fuse of an axis consumes it and defines it again; the
    // axis can still be split, and its parts are live.
    out.push(vec![
        p(Fuse, &[t]),
        on(t, "parallel"),
        split(t, te, &[1]),
        on(t, "parallel"),
        on(&format!("{t}.1"), "unroll"),
        on(&format!("{t}.0"), "unroll"),
    ]);

    out.into_iter()
        .map(|steps| steps.into_iter().collect())
        .collect()
}

#[test]
fn split_part_edge_cases_match_their_pinned_digest() {
    let corpus: Vec<_> = subgraphs()
        .into_iter()
        .take(3)
        .map(|sg| {
            let seqs = split_part_edges(&sg);
            (sg, seqs)
        })
        .collect();
    let (schedules, findings, digest) = pin(&corpus);
    assert_eq!(
        (schedules, findings, digest),
        (171, 1116, 0x0cba_f064_91f6_2474),
        "digest {digest:#018x}"
    );
}
