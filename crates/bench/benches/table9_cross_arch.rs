//! Paper Table 9: multi-task learning between architectures. Target Intel
//! i7-10510U; the auxiliary task is one of the other four CPUs.
//!
//! Paper result: same-ISA Intel auxiliaries (Platinum-8272, E5-2673) lift the
//! target most; AMD helps less; ARM least.
//!
//! Run with `cargo bench -p tlp-bench --bench table9_cross_arch`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::experiments::train_and_eval_with_aux;
use tlp_bench::{bench_scale, print_table, write_json};

const TARGET_FRACTION: f64 = 0.08;

#[derive(Serialize)]
struct Row {
    aux: String,
    top1: f64,
    top5: f64,
}

fn main() {
    let scale = bench_scale("table9_cross_arch");
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("i7-10510u").expect("target");
    let auxes = ["platinum-8272", "e5-2673", "epyc-7452", "graviton2"];

    // Single runs are seed-noisy at reduced scale; average over seeds so the
    // between-architecture differences are interpretable.
    const SEEDS: [u64; 3] = [0, 1, 2];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for aux_name in auxes {
        eprintln!("[table9] aux {aux_name} ({} seeds)…", SEEDS.len());
        let aux = ds.platform_index(aux_name).expect("aux platform");
        let mut t1_sum = 0.0;
        let mut t5_sum = 0.0;
        for s in SEEDS {
            let mut cfg = scale.tlp_config();
            cfg.seed ^= s.wrapping_mul(0x9E37_79B9);
            let (_, _, top1, top5) =
                train_and_eval_with_aux(&ds, target, &[aux], cfg, &scale, TARGET_FRACTION);
            t1_sum += top1;
            t5_sum += top5;
        }
        let top1 = t1_sum / SEEDS.len() as f64;
        let top5 = t5_sum / SEEDS.len() as f64;
        rows.push(vec![
            format!("i7 small + {aux_name} ALL"),
            format!("{top1:.4}"),
            format!("{top5:.4}"),
        ]);
        json.push(Row {
            aux: aux_name.to_string(),
            top1,
            top5,
        });
    }
    print_table(
        "Table 9: MTL between architectures (target i7-10510U)",
        &["tasks", "top-1", "top-5"],
        &rows,
    );
    println!("\npaper shape: Intel auxiliaries (same ISA) > AMD > ARM");
    write_json("table9_cross_arch", &json);
}
