//! Substrate ablation for the calibration decision recorded in DESIGN.md §5:
//! how strong does the hand-crafted baseline become if its features are
//! allowed to include the *oracle* information (the unroll pragma and the
//! exact per-axis tile pyramid) that the latency simulator consumes directly?
//!
//! A GBDT is trained per feature set on the Platinum-8272 data and evaluated
//! with the paper's top-k metric, against TLP for reference. The expected
//! shape: oracle features ≫ standard lossy features, confirming that keeping
//! the baseline lossy is what makes the TLP-vs-baseline comparison
//! meaningful on a simulated substrate.
//!
//! Run with `cargo bench -p tlp-bench --bench table_substrate_ablation`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::baselines::{
    program_features, program_features_oracle, ORACLE_FEATURE_DIM, PROGRAM_FEATURE_DIM,
};
use tlp::experiments::{capped_train_tasks, train_and_eval_tlp};
use tlp::top_k_scores;
use tlp_bench::{bench_scale, print_table, write_json};
use tlp_dataset::{Dataset, TaskData};
use tlp_gbdt::{Gbdt, GbdtParams};
use tlp_schedule::ScheduleSequence;
use tlp_workload::Subgraph;

#[derive(Serialize)]
struct Row {
    model: String,
    top1: f64,
    top5: f64,
}

type FeatureFn = fn(&Subgraph, &ScheduleSequence) -> Option<Vec<f32>>;

fn gbdt_eval(
    ds: &Dataset,
    tasks: &[&TaskData],
    platform: usize,
    dim: usize,
    feats: FeatureFn,
) -> (f64, f64) {
    // Train one GBDT on all tasks' (features, label) pairs.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in tasks {
        let labels = t.labels(platform);
        for (r, &y) in t.programs.iter().zip(&labels) {
            if let Some(f) = feats(&t.subgraph, &r.schedule) {
                xs.extend(f);
                ys.push(y);
            }
        }
    }
    let model = Gbdt::fit(
        &xs,
        dim,
        &ys,
        &GbdtParams {
            n_trees: 60,
            ..GbdtParams::default()
        },
    );
    let scorer = |t: &TaskData| -> Vec<f32> {
        t.programs
            .iter()
            .map(|r| {
                feats(&t.subgraph, &r.schedule)
                    .map(|f| model.predict(&f))
                    .unwrap_or(f32::NEG_INFINITY)
            })
            .collect()
    };
    let [top1, top5] = top_k_scores(ds, platform, [1, 5], scorer);
    (top1, top5)
}

fn main() {
    let scale = bench_scale("table_substrate_ablation");
    let ds = scale.cpu_dataset();
    let platform = ds.platform_index("platinum-8272").expect("platform");
    let tasks = capped_train_tasks(&ds, scale.max_train_tasks);

    eprintln!("[substrate] GBDT on standard (lossy) program features…");
    let (s1, s5) = gbdt_eval(&ds, &tasks, platform, PROGRAM_FEATURE_DIM, program_features);
    eprintln!("[substrate] GBDT on oracle features (pragma + tile pyramid)…");
    let (o1, o5) = gbdt_eval(
        &ds,
        &tasks,
        platform,
        ORACLE_FEATURE_DIM,
        program_features_oracle,
    );
    eprintln!("[substrate] TLP reference…");
    let (_, _, t1, t5) = train_and_eval_tlp(&ds, platform, scale.tlp_config(), &scale, 1.0);

    let rows = vec![
        vec![
            "GBDT, standard program features".into(),
            format!("{s1:.4}"),
            format!("{s5:.4}"),
        ],
        vec![
            "GBDT, oracle features".into(),
            format!("{o1:.4}"),
            format!("{o5:.4}"),
        ],
        vec![
            "TLP (primitive sequences)".into(),
            format!("{t1:.4}"),
            format!("{t5:.4}"),
        ],
    ];
    print_table(
        "Substrate ablation: what oracle features would do to the baseline",
        &["model", "top-1", "top-5"],
        &rows,
    );
    println!(
        "\nexpected shape: oracle >= standard (more simulator-internal information),\n\
         justifying DESIGN.md 5's choice to keep baseline features lossy"
    );
    write_json(
        "table_substrate_ablation",
        &vec![
            Row {
                model: "gbdt-standard".into(),
                top1: s1,
                top5: s5,
            },
            Row {
                model: "gbdt-oracle".into(),
                top1: o1,
                top5: o5,
            },
            Row {
                model: "tlp".into(),
                top1: t1,
                top5: t5,
            },
        ],
    );
}
