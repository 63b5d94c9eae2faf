//! Paper Table 8: transfer-learning and self-supervised baselines vs MTL.
//! Target Intel i7-10510U (small labelled slice); source Intel E5-2673.
//!
//! Paper result: MTL (0.833) > fine-tuning (0.790) > GPT (0.686) > BERT
//! (0.632) — LM pretraining overfits at this feature scale.
//!
//! Run with `cargo bench -p tlp-bench --bench table8_transfer`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::experiments::{capped_train_tasks, eval_tlp, train_and_eval_with_aux};
use tlp::features::FeatureExtractor;
use tlp::metrics::top_k_scores;
use tlp::pretrain::{tokenize, PretrainConfig, PretrainKind, PretrainedLm};
use tlp::train::{train_tlp, TrainData};
use tlp::TlpModel;
use tlp_bench::{bench_scale, print_table, write_json};
use tlp_dataset::{Dataset, TaskData};
use tlp_schedule::Vocabulary;

const TARGET_FRACTION: f64 = 0.08;

#[derive(Serialize)]
struct Row {
    method: String,
    top1: f64,
    top5: f64,
}

fn lm_experiment(
    kind: PretrainKind,
    ds: &Dataset,
    target: usize,
    scale: &tlp::experiments::Scale,
) -> (f64, f64) {
    // Build the token vocabulary from the dataset's name parameters.
    let mut vb = Vocabulary::builder();
    for t in &ds.tasks {
        for r in &t.programs {
            for p in r.schedule.iter() {
                vb.observe(&p.stage);
                for v in &p.loop_vars {
                    vb.observe(v);
                }
                for e in &p.extras {
                    vb.observe(e);
                }
            }
        }
    }
    let vocab = vb.build();
    let cfg = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };

    // Unlabeled pretraining corpus: all target-platform schedules.
    let tasks = capped_train_tasks(ds, scale.max_train_tasks);
    let corpus: Vec<Vec<usize>> = tasks
        .iter()
        .flat_map(|t| {
            t.programs
                .iter()
                .map(|r| tokenize(&r.schedule, &vocab, &cfg))
        })
        .collect();
    let mut lm = PretrainedLm::new(kind, cfg.clone());
    eprintln!(
        "  pretraining {} ({} weights) on {} unlabeled sequences…",
        if kind == PretrainKind::Gpt {
            "GPT"
        } else {
            "BERT"
        },
        lm.num_weights(),
        corpus.len()
    );
    lm.pretrain(&corpus);

    // Fine-tune on the small labelled target slice (task-grouped rank loss).
    let mut rng_fraction = 0usize;
    let groups: Vec<(Vec<usize>, Vec<f32>)> = tasks
        .iter()
        .map(|t| {
            let labels = t.labels(target);
            let keep = ((labels.len() as f64) * TARGET_FRACTION).ceil() as usize;
            let mut toks = Vec::new();
            let mut labs = Vec::new();
            for (i, r) in t.programs.iter().enumerate().take(keep.max(2)) {
                toks.extend(tokenize(&r.schedule, &vocab, &cfg));
                labs.push(labels[i]);
                rng_fraction += 1;
            }
            (toks, labs)
        })
        .collect();
    eprintln!("  fine-tuning on {rng_fraction} labelled samples…");
    lm.fine_tune(&groups, scale.epochs.max(2));

    let scorer = |t: &TaskData| -> Vec<f32> {
        let mut toks = Vec::new();
        for r in &t.programs {
            toks.extend(tokenize(&r.schedule, &vocab, &cfg));
        }
        lm.predict(&toks)
    };
    let [top1, top5] = top_k_scores(ds, target, [1, 5], scorer);
    (top1, top5)
}

fn main() {
    let scale = bench_scale("table8_transfer");
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("i7-10510u").expect("target");
    let source = ds.platform_index("e5-2673").expect("source");
    let cfg = scale.tlp_config();
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let tasks = capped_train_tasks(&ds, scale.max_train_tasks);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut record = |method: &str, top1: f64, top5: f64| {
        rows.push(vec![
            method.to_string(),
            format!("{top1:.4}"),
            format!("{top5:.4}"),
        ]);
        json.push(Row {
            method: method.to_string(),
            top1,
            top5,
        });
    };

    // 1. Fine-tuning: pre-train on the source platform, fine-tune on the
    //    small target slice.
    eprintln!("[table8] fine-tuning…");
    let source_data = TrainData::from_tasks(&tasks, &extractor, source);
    let mut ft_model = TlpModel::new(cfg.clone());
    train_tlp(&mut ft_model, &source_data);
    let target_small =
        TrainData::from_tasks(&tasks, &extractor, target).subsample(TARGET_FRACTION, cfg.seed);
    let mut ft_cfg_model = ft_model;
    ft_cfg_model.config.epochs = (scale.epochs / 2).max(2);
    ft_cfg_model.config.learning_rate *= 0.3;
    train_tlp(&mut ft_cfg_model, &target_small);
    let (t1, t5) = eval_tlp(&ft_cfg_model, &extractor, &ds, target);
    record("Fine-tuning (E5 pre-train → i7 small)", t1, t5);

    // 2. MTL: i7 small + E5 all.
    eprintln!("[table8] MTL…");
    let (_, _, m1, m5) =
        train_and_eval_with_aux(&ds, target, &[source], cfg.clone(), &scale, TARGET_FRACTION);
    record("MTL (i7 small + E5 ALL)", m1, m5);

    // 3/4. GPT and BERT pretraining on unlabeled target data.
    eprintln!("[table8] GPT…");
    let (g1, g5) = lm_experiment(PretrainKind::Gpt, &ds, target, &scale);
    record("GPT (unlabeled pre-train → i7 small)", g1, g5);

    eprintln!("[table8] BERT…");
    let (b1, b5) = lm_experiment(PretrainKind::Bert, &ds, target, &scale);
    record("BERT (unlabeled pre-train → i7 small)", b1, b5);

    print_table(
        "Table 8: transfer learning & self-supervised methods (target i7)",
        &["method", "top-1", "top-5"],
        &rows,
    );
    println!("\npaper shape: MTL > fine-tuning > GPT > BERT");
    write_json("table8_transfer", &json);
}
