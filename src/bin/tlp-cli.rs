//! `tlp-cli` — command-line front end for the TLP reproduction.
//!
//! ```text
//! tlp-cli stats                         dataset statistics (Fig. 6 / Table 1)
//! tlp-cli train <model.json>            train TLP and snapshot it
//! tlp-cli eval <model.json>             top-k of a snapshot on the test set
//! tlp-cli tune <network> [model.json]   tune a workload (random or TLP-guided)
//! tlp-cli adapt [snapshot.json]         continual-adapt a head to ryzen-3950x
//! tlp-cli verify-corpus [out.json]      static-verifier sweep over the CPU and GPU datasets
//! tlp-cli audit-model [out.json]        model-check soundness suite (typed refusals)
//! tlp-cli platforms                     list simulated platforms
//! ```
//!
//! Sizes follow `TLP_SCALE` (test|small|medium|paper; default small).
//!
//! Lives in the root package (not `crates/core`) because `adapt` pulls in
//! `tlp-serve`, which itself depends on the core crate.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

use std::sync::Arc;
use tlp::engine::EngineConfig;
use tlp::experiments::{capped_train_tasks, eval_tlp, Scale};
use tlp::features::FeatureExtractor;
use tlp::persist::{snapshot, SavedTlp};
use tlp::search::TlpCostModel;
use tlp::train::{train_tlp, TrainData};
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{tune_network, CostModel, EvolutionConfig, RandomModel, TuningOptions};
use tlp_hwsim::Platform;
use tlp_schedule::Vocabulary;
use tlp_serve::ModelRegistry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(),
        Some("train") => cmd_train(args.get(1).map(String::as_str)),
        Some("eval") => cmd_eval(args.get(1).map(String::as_str)),
        Some("tune") => cmd_tune(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("adapt") => cmd_adapt(args.get(1).map(String::as_str)),
        Some("verify-corpus") => cmd_verify_corpus(args.get(1).map(String::as_str)),
        Some("audit-model") => cmd_audit_model(args.get(1).map(String::as_str)),
        Some("platforms") => cmd_platforms(),
        _ => {
            eprintln!(
                "usage: tlp-cli <stats|train|eval|tune|adapt|verify-corpus|audit-model|platforms> [args]\n\
                 \n\
                 stats                        dataset statistics\n\
                 train <model.json>           train TLP on the CPU dataset (i7 target)\n\
                 eval <model.json>            evaluate a snapshot's top-k\n\
                 tune <network> [model.json]  tune a workload (resnet-50, mobilenet-v2,\n\
                 \x20                            resnext-50, bert-tiny, bert-base)\n\
                 adapt [snapshot.json]        continual-adapt a warm-started head to\n\
                 \x20                            ryzen-3950x from fault-injected\n\
                 \x20                            measurements, hot-swapping canaried\n\
                 \x20                            snapshots into a live registry; prints\n\
                 \x20                            the adaptation report as JSON\n\
                 verify-corpus [out.json]     run the static schedule verifier over\n\
                 \x20                            generated CPU and GPU dataset samples and\n\
                 \x20                            print (or write) a JSON diagnostics summary\n\
                 audit-model [out.json]       run the model-check soundness suite:\n\
                 \x20                            golden models must restore and every\n\
                 \x20                            adversarial corruption must be refused\n\
                 \x20                            with its typed error; prints (or writes)\n\
                 \x20                            a JSON summary plus check throughput\n\
                 platforms                    list simulated platforms"
            );
            2
        }
    };
    std::process::exit(code);
}

fn cmd_platforms() -> i32 {
    println!(
        "{:<16} {:>6} {:>9} {:>12} {:>10}",
        "name", "cores", "GHz", "peak GF/s", "DRAM GB/s"
    );
    for p in Platform::all() {
        println!(
            "{:<16} {:>6} {:>9.2} {:>12.0} {:>10.0}",
            p.name,
            p.cores,
            p.freq_ghz,
            p.peak_gflops(),
            p.dram_gbps
        );
    }
    0
}

fn cmd_stats() -> i32 {
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    println!("tasks: {}  programs: {}", ds.tasks.len(), ds.num_programs());
    let u = tlp_dataset::uniqueness(&ds);
    println!(
        "distinct sequences: {} (repetition rate {:.3}%)",
        u.distinct,
        u.repetition_rate() * 100.0
    );
    println!(
        "max sequence length: {}",
        tlp_dataset::max_sequence_length(&ds)
    );
    for (k, s) in tlp_dataset::max_embedding_sizes(&ds) {
        println!("  {:<4} max embedding size {s}", k.abbrev());
    }
    0
}

fn cmd_train(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("train: missing output path");
        return 2;
    };
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("i7-10510u").expect("platform");
    let cfg = scale.tlp_config();
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_tasks(
        &capped_train_tasks(&ds, scale.max_train_tasks),
        &extractor,
        target,
    );
    println!("training on {} samples…", data.num_samples());
    let mut model = TlpModel::new(cfg);
    let report = train_tlp(&mut model, &data);
    println!("epoch losses: {:?}", report.epoch_losses());
    println!(
        "trained {} samples in {:.2}s ({:.0} samples/s)",
        report.samples,
        report.wall_s,
        report.samples_per_s()
    );
    let (t1, t5) = eval_tlp(&model, &extractor, &ds, target);
    println!("top-1 {t1:.4}  top-5 {t5:.4}");
    match snapshot(&model, &extractor).save(path) {
        Ok(()) => {
            println!("saved snapshot to {path}");
            0
        }
        Err(e) => {
            eprintln!("train: {e}");
            1
        }
    }
}

fn cmd_eval(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("eval: missing model path");
        return 2;
    };
    // Any head count loads; a multi-head snapshot scores through head 0.
    let (model, extractor) = match SavedTlp::load(path).and_then(|snap| snap.restore()) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("eval: {e}");
            return 1;
        }
    };
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("i7-10510u").expect("platform");
    let (t1, t5) = eval_tlp(&model, &extractor, &ds, target);
    println!("top-1 {t1:.4}  top-5 {t5:.4}");
    0
}

fn cmd_tune(network: Option<&str>, model_path: Option<&str>) -> i32 {
    let Some(name) = network else {
        eprintln!("tune: missing network name");
        return 2;
    };
    let Some(net) = tlp_workload::test_networks()
        .into_iter()
        .find(|n| n.name == name)
    else {
        eprintln!("tune: unknown network `{name}`");
        return 2;
    };
    let platform = Platform::i7_10510u();
    let opts = TuningOptions {
        rounds: net.num_tasks() * 2,
        programs_per_round: 10,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            ..EvolutionConfig::default()
        },
        ..TuningOptions::default()
    };
    let mut model: Box<dyn CostModel> = match model_path {
        Some(p) => match SavedTlp::load(p).and_then(|snap| snap.restore()) {
            Ok((m, ex)) => {
                println!("tuning with TLP snapshot {p}");
                Box::new(TlpCostModel::new(m, ex))
            }
            Err(e) => {
                eprintln!("tune: {e}");
                return 1;
            }
        },
        None => {
            println!("tuning with the random baseline (pass a snapshot for TLP guidance)");
            Box::new(RandomModel::new(1))
        }
    };
    let report = tune_network(&net, &platform, model.as_mut(), &opts);
    println!(
        "{}: final workload latency {:.3} ms after {:.0} s simulated search ({} measurements)",
        net.name,
        report.final_latency_s() * 1e3,
        report.total_search_time_s(),
        report.measurements
    );
    println!(
        "static gate: {} candidates generated, {} pruned ({:.2}%)",
        report.search.generated,
        report.search.pruned,
        report.search.pruned_fraction() * 100.0
    );
    if report.search.draft_checked > 0 {
        println!(
            "speculation: {} full-model scores, {} draft scores, {:.1}% draft acceptance",
            report.search.full_scored,
            report.search.draft_scored,
            report.search.draft_acceptance() * 100.0
        );
    }
    0
}

fn cmd_adapt(snapshot_path: Option<&str>) -> i32 {
    use tlp::experiments::eval_head;
    use tlp::{train_mtl_with, TrainOptions};
    use tlp_continual::{run_continual, CanarySet, ContinualConfig, SnapshotPublisher, FAULT_RATE};

    let cfg = TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    };
    let ds = tlp_dataset::generate_dataset_for(
        &[tlp_workload::bert_tiny(1, 64)],
        &[tlp_workload::bert_tiny(1, 128)],
        &[
            Platform::i7_10510u(),
            Platform::e5_2673(),
            Platform::ryzen_3950x(),
        ],
        &tlp_dataset::DatasetConfig {
            programs_per_task: 48,
            refined_fraction: 0.25,
            seed: 0xC11,
        },
    );
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);

    println!("training base model on i7-10510u + e5-2673…");
    let mut base = TlpModel::with_heads(cfg.clone(), 2);
    let data = [
        TrainData::from_dataset(&ds, &extractor, 0),
        TrainData::from_dataset(&ds, &extractor, 1),
    ];
    train_mtl_with(
        &mut base,
        &data,
        &TrainOptions::from_config(&cfg).with_seed(0x0B),
    );
    let mut model = base.grow_head_from(1);
    let (zero_shot, _) = eval_head(&model, &extractor, &ds, 2, 2);
    println!("warm-started ryzen-3950x head from e5-2673 (zero-shot top-1 {zero_shot:.4})");

    let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "ryzen-3950x",
        2,
        CanarySet::from_dataset(&ds, 2, 0),
    );
    let config = ContinualConfig {
        rounds: 4,
        per_task_candidates: 4,
        max_tasks: 3,
        adapt: TrainOptions::from_config(&cfg)
            .with_epochs(4)
            .with_batch_size(16)
            .with_learning_rate(1e-3)
            .with_seed(0x5EED),
        seed: 0xADA7,
    };
    println!(
        "adapting: {} rounds x {} tasks x {} candidates at fault rate {}…",
        config.rounds, config.max_tasks, config.per_task_candidates, FAULT_RATE
    );
    let report = match run_continual(&mut model, &extractor, &ds, &config, Some(&mut publisher)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adapt: {e}");
            return 1;
        }
    };
    match serde_json::to_string_pretty(&report) {
        Ok(j) => println!("{j}"),
        Err(e) => {
            eprintln!("adapt: {e}");
            return 1;
        }
    }
    if let Some(path) = snapshot_path {
        if let Err(e) = snapshot(&model, &extractor).save(path) {
            eprintln!("adapt: {e}");
            return 1;
        }
        println!("saved adapted snapshot to {path}");
    }
    0
}

/// Per-code diagnostic count in the `verify-corpus` report.
#[derive(serde::Serialize)]
struct CodeCount {
    code: String,
    severity: String,
    count: u64,
}

/// One dataset's verifier sweep: its size, its recorded validity labels,
/// and the diagnostics a per-task verifier reports under the sweep's device.
#[derive(serde::Serialize)]
struct Sweep {
    tasks: usize,
    programs: usize,
    validity: tlp_dataset::ValidityStats,
    codes: Vec<CodeCount>,
}

/// JSON report emitted by `verify-corpus`: the CPU dataset's sweep at the
/// top level and the GPU dataset's, with the device pinned to GPU, under
/// `gpu`. The CPU fields are [`Sweep`]'s, spelled out: the vendored
/// `serde_derive` takes no `#[serde(flatten)]`.
#[derive(serde::Serialize)]
struct CorpusReport {
    scale: String,
    tasks: usize,
    programs: usize,
    validity: tlp_dataset::ValidityStats,
    codes: Vec<CodeCount>,
    gpu: Sweep,
}

/// Checks every program of `ds` with one verifier per task, the device
/// pinned to `gpu`.
fn sweep(ds: &tlp_dataset::Dataset, gpu: bool) -> Sweep {
    let opts = tlp_verify::VerifyOptions { gpu: Some(gpu) };
    let mut counts: std::collections::BTreeMap<tlp_verify::Code, u64> =
        std::collections::BTreeMap::new();
    let mut severities = std::collections::HashMap::new();
    for t in &ds.tasks {
        let mut verifier = tlp_verify::Verifier::new(&t.subgraph, &opts);
        for r in &t.programs {
            let report = verifier.check(&r.schedule);
            for d in &report.diagnostics {
                *counts.entry(d.code).or_insert(0) += 1;
                severities.insert(d.code, d.severity);
            }
        }
    }
    Sweep {
        tasks: ds.tasks.len(),
        programs: ds.num_programs(),
        validity: tlp_dataset::validity(ds),
        codes: counts
            .into_iter()
            .map(|(code, count)| CodeCount {
                code: code.as_str().to_string(),
                severity: severities
                    .get(&code)
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                count,
            })
            .collect(),
    }
}

fn cmd_verify_corpus(out_path: Option<&str>) -> i32 {
    let scale = Scale::from_env();
    let cpu = sweep(&scale.cpu_dataset(), false);
    let gpu = sweep(&scale.gpu_dataset(), true);
    let mut invalid = false;
    for (device, v) in [("", cpu.validity), ("GPU ", gpu.validity)] {
        if v.valid != v.total {
            eprintln!(
                "verify-corpus: {} of {} generated {device}programs carry verifier errors",
                v.total - v.valid,
                v.total
            );
            invalid = true;
        }
    }
    let report = CorpusReport {
        scale: format!("{scale:?}"),
        tasks: cpu.tasks,
        programs: cpu.programs,
        validity: cpu.validity,
        codes: cpu.codes,
        gpu,
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("verify-corpus: {e}");
            return 1;
        }
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("verify-corpus: write {path}: {e}");
                return 1;
            }
            println!("wrote diagnostics summary to {path}");
        }
        None => println!("{json}"),
    }
    i32::from(invalid)
}

/// One golden model's check outcome in the `audit-model` JSON report.
#[derive(serde::Serialize)]
struct ModelAudit {
    model: String,
    params: usize,
    restored: bool,
}

/// One adversarial mutation's outcome: `caught` when the restore refused it
/// with the typed error the mutation calls for.
#[derive(serde::Serialize)]
struct AdversarialAudit {
    case: String,
    caught: bool,
    refusal: Option<String>,
}

/// JSON report emitted by `audit-model`.
#[derive(serde::Serialize)]
struct AuditModelReport {
    golden: Vec<ModelAudit>,
    adversarial: Vec<AdversarialAudit>,
    params_per_s: f64,
    sound: bool,
}

/// `store` with the parameters at positions `a` and `b` swapped: the same
/// names, dims and values, in another order.
fn swapped(store: &tlp_nn::ParamStore, a: usize, b: usize) -> tlp_nn::ParamStore {
    let mut ids: Vec<tlp_nn::ParamId> = store.ids().collect();
    ids.swap(a, b);
    let mut out = tlp_nn::ParamStore::new();
    for id in ids {
        out.add(store.name(id), store.value(id).clone());
    }
    out
}

fn cmd_audit_model(out_path: Option<&str>) -> i32 {
    use tlp::persist::PersistError;
    use tlp_modelcheck::StoreFault;

    let cfg = TlpConfig::test_scale();
    let extractor =
        FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    let param_count = |snap: &SavedTlp| -> usize { snap.store().num_weights() };
    // Model construction is seeded, so rebuilding reproduces identical bytes.
    let fresh = |heads: usize| snapshot(&TlpModel::with_heads(cfg.clone(), heads), &extractor);
    let refuse = |case: String, snap: SavedTlp, expect: &dyn Fn(&PersistError) -> bool| {
        let refusal = snap.restore().err();
        AdversarialAudit {
            case,
            caught: refusal.as_ref().is_some_and(expect),
            refusal: refusal.map(|e| e.to_string()),
        }
    };
    let layout_at = |at: usize| {
        move |e: &PersistError| match e {
            PersistError::Invalid(StoreFault::Layout { index, .. }) => *index == at,
            _ => false,
        }
    };

    let mut golden = Vec::new();
    let mut adversarial = Vec::new();
    for heads in [1usize, 3] {
        // Golden models: freshly constructed, so the restore must hand the
        // model back.
        let snap = fresh(heads);
        golden.push(ModelAudit {
            model: format!("tlp-{heads}"),
            params: param_count(&snap),
            restored: snap.restore().is_ok(),
        });

        // Adversarial mutations of a fresh golden snapshot, each refused
        // with the typed error it calls for. An escape is a soundness bug.
        for case in ["bit-flip", "nan-inject", "tensor-truncate"] {
            let mut s = fresh(heads);
            let id = s.store().ids().next().expect("non-empty store");
            let t = s.store_mut().value_mut(id);
            let expect: &dyn Fn(&PersistError) -> bool = match case {
                "bit-flip" => {
                    t.data_mut()[0] = f32::from_bits(t.data()[0].to_bits() ^ 1);
                    &|e| matches!(e, PersistError::Checksum { .. })
                }
                "nan-inject" => {
                    t.data_mut()[0] = f32::NAN;
                    &|e| matches!(e, PersistError::Invalid(StoreFault::NonFinite { .. }))
                }
                _ => {
                    *t = tlp_nn::Tensor::zeros(&[1]);
                    &layout_at(0)
                }
            };
            adversarial.push(refuse(format!("{case}/{heads}"), s, expect));
        }
        for forged in [heads - 1, heads + 1] {
            let mut s = fresh(heads);
            s.set_heads(forged);
            let expect: &dyn Fn(&PersistError) -> bool = if forged == 0 {
                &|e| matches!(e, PersistError::HeadCount { found: 0, .. })
            } else {
                &|e| matches!(e, PersistError::Invalid(StoreFault::Layout { .. }))
            };
            adversarial.push(refuse(format!("head-forgery/{heads}->{forged}"), s, expect));
        }
        // Two same-shaped parameters swapped in position, checksum
        // re-sealed: only an ordered compare sees that the model would bind
        // the attention query weights as `backbone.up2.w`.
        let mut s = fresh(heads);
        let store = s.store();
        let index_of = |name: &str| store.ids().position(|id| store.name(id) == name);
        let (a, b) = (index_of("backbone.up2.w"), index_of("backbone.attn.q.w"));
        let (a, b) = (a.expect("up2"), b.expect("attention query"));
        *s.store_mut() = swapped(s.store(), a, b);
        s.set_heads(heads);
        adversarial.push(refuse(format!("permute/{heads}"), s, &layout_at(a)));
    }

    // Check throughput over the golden three-head snapshot: the whole
    // restore (fresh layout, ordered compare, finite scan, checksum) — the
    // same work the persist and serve gates do.
    let timed = fresh(3);
    let iters = 10u32;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let _ = std::hint::black_box(timed.restore());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let params_per_s = (param_count(&timed) as f64 * f64::from(iters)) / elapsed.max(1e-9);

    let sound = golden.iter().all(|g| g.restored) && adversarial.iter().all(|a| a.caught);
    let report = AuditModelReport {
        golden,
        adversarial,
        params_per_s,
        sound,
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("audit-model: {e}");
            return 1;
        }
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("audit-model: write {path}: {e}");
                return 1;
            }
            println!("wrote audit summary to {path}");
        }
        None => println!("{json}"),
    }
    println!("audit throughput: {params_per_s:.0} params/s");
    if report.sound {
        0
    } else {
        eprintln!("audit-model: soundness check FAILED (see report)");
        1
    }
}
