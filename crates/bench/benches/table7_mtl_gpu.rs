//! Paper Table 7: MTL-TLP effectiveness on GPUs. Target Tesla T4 with a
//! small slice; the auxiliary task adds Tesla K80's full data.
//!
//! Paper result: top-1 0.797 → 0.888 with the K80 aux task.
//!
//! Run with `cargo bench -p tlp-bench --bench table7_mtl_gpu`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::experiments::{train_and_eval_tlp, train_and_eval_with_aux};
use tlp_bench::{bench_scale, print_table, write_json};

const TARGET_FRACTION: f64 = 0.08;

#[derive(Serialize)]
struct Row {
    tasks: String,
    top1: f64,
    top5: f64,
}

fn main() {
    let scale = bench_scale("table7_mtl_gpu");
    let ds = scale.gpu_dataset();
    let target = ds.platform_index("tesla-t4").expect("target");
    let k80 = ds.platform_index("tesla-k80").expect("aux");

    eprintln!("[table7] 1 task: T4 small slice only…");
    let cfg = scale.tlp_config();
    let (_, _, s1, s5) = train_and_eval_tlp(&ds, target, cfg.clone(), &scale, TARGET_FRACTION);

    eprintln!("[table7] 2 tasks: + K80 ALL…");
    let (_, _, m1, m5) = train_and_eval_with_aux(&ds, target, &[k80], cfg, &scale, TARGET_FRACTION);

    print_table(
        "Table 7: MTL-TLP on GPUs (target Tesla T4, small target slice)",
        &["tasks", "top-1", "top-5"],
        &[
            vec!["T4 small".into(), format!("{s1:.4}"), format!("{s5:.4}")],
            vec!["+ K80 ALL".into(), format!("{m1:.4}"), format!("{m5:.4}")],
        ],
    );
    println!("\npaper shape: the K80 aux task lifts both scores markedly");
    write_json(
        "table7_mtl_gpu",
        &vec![
            Row {
                tasks: "T4 small".into(),
                top1: s1,
                top5: s5,
            },
            Row {
                tasks: "+ K80 ALL".into(),
                top1: m1,
                top5: m5,
            },
        ],
    );
}
