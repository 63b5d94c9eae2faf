//! Paper Table 6: MTL-TLP effectiveness on CPUs. Target Intel E5-2673 with a
//! small labelled slice ("500K"); auxiliary tasks add other CPU platforms'
//! full data.
//!
//! Paper result: one aux task lifts top-1 0.66→0.87; two aux tasks best
//! (0.89); four tasks regress slightly (0.875).
//!
//! Run with `cargo bench -p tlp-bench --bench table6_mtl_cpu`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::experiments::{train_and_eval_tlp, train_and_eval_with_aux};
use tlp_bench::{bench_scale, print_table, write_json};

/// The paper's 500K of ~8.6M ≈ 6% of the target platform's data.
const TARGET_FRACTION: f64 = 0.08;

#[derive(Serialize)]
struct Row {
    tasks: String,
    top1: f64,
    top5: f64,
}

fn main() {
    let scale = bench_scale("table6_mtl_cpu");
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("e5-2673").expect("target");
    let p8272 = ds.platform_index("platinum-8272").expect("aux");
    let epyc = ds.platform_index("epyc-7452").expect("aux");
    let graviton = ds.platform_index("graviton2").expect("aux");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut record = |name: &str, top1: f64, top5: f64| {
        rows.push(vec![
            name.to_string(),
            format!("{top1:.4}"),
            format!("{top5:.4}"),
        ]);
        json.push(Row {
            tasks: name.to_string(),
            top1,
            top5,
        });
    };

    eprintln!("[table6] 1 task: E5-2673 small slice only…");
    let cfg = scale.tlp_config();
    let (_, _, t1, t5) = train_and_eval_tlp(&ds, target, cfg.clone(), &scale, TARGET_FRACTION);
    record("E5-2673 small", t1, t5);

    eprintln!("[table6] 2 tasks: + Platinum-8272 ALL…");
    let (_, _, t1, t5) =
        train_and_eval_with_aux(&ds, target, &[p8272], cfg.clone(), &scale, TARGET_FRACTION);
    record("+ Platinum-8272 ALL", t1, t5);

    eprintln!("[table6] 3 tasks: + EPYC-7452 ALL…");
    let (_, _, t1, t5) = train_and_eval_with_aux(
        &ds,
        target,
        &[p8272, epyc],
        cfg.clone(),
        &scale,
        TARGET_FRACTION,
    );
    record("+ EPYC-7452 ALL", t1, t5);

    eprintln!("[table6] 4 tasks: + Graviton2 ALL…");
    let (_, _, t1, t5) = train_and_eval_with_aux(
        &ds,
        target,
        &[p8272, epyc, graviton],
        cfg,
        &scale,
        TARGET_FRACTION,
    );
    record("+ Graviton2 ALL", t1, t5);

    print_table(
        "Table 6: MTL-TLP on CPUs (target E5-2673, small target slice)",
        &["tasks", "top-1", "top-5"],
        &rows,
    );
    println!("\npaper shape: 1 task worst; 2-3 tasks best; 4 tasks slightly worse");
    write_json("table6_mtl_cpu", &json);
}
