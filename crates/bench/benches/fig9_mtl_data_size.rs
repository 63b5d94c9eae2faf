//! Paper Figure 9: MTL-TLP accuracy vs. target-platform data size. Two
//! tasks: the target slice sweeps upward; the auxiliary (Platinum-8272) uses
//! all its data.
//!
//! Paper result: accuracy climbs steeply until ~500K samples, then saturates.
//!
//! Run with `cargo bench -p tlp-bench --bench fig9_mtl_data_size`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::experiments::train_and_eval_with_aux;
use tlp_bench::{bench_scale, print_table, write_json};

#[derive(Serialize)]
struct Point {
    fraction: f64,
    samples: usize,
    top1: f64,
    top5: f64,
}

fn main() {
    let scale = bench_scale("fig9_mtl_data_size");
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("e5-2673").expect("target");
    let aux = ds.platform_index("platinum-8272").expect("aux");
    let total: usize = ds.train_tasks().map(|t| t.programs.len()).sum();

    // The paper sweeps 50K … 2M of ~8.6M (0.6% … 23%).
    let fractions = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for frac in fractions {
        eprintln!("[fig9] target fraction {frac}…");
        let cfg = scale.tlp_config();
        let (_, _, top1, top5) = train_and_eval_with_aux(&ds, target, &[aux], cfg, &scale, frac);
        let samples = ((total as f64) * frac) as usize;
        rows.push(vec![
            format!("{:.0}%", frac * 100.0),
            format!("~{samples}"),
            format!("{top1:.4}"),
            format!("{top5:.4}"),
        ]);
        json.push(Point {
            fraction: frac,
            samples,
            top1,
            top5,
        });
    }
    print_table(
        "Figure 9: MTL-TLP accuracy vs target data size (target E5-2673)",
        &["target fraction", "samples", "top-1", "top-5"],
        &rows,
    );
    println!("\npaper shape: steep rise then saturation (knee near '500K')");
    write_json("fig9_mtl_data_size", &json);
}
