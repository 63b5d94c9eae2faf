//! `tlp-sysbench`: one system benchmark for the TLP reproduction — four
//! workloads, end-to-end metrics with regression bounds, and per-layer
//! attribution measured from outside the program. See `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --offline --manifest-path tlp-sysbench/Cargo.toml -- \
//!     --workload <score_cold|tune_search|serve_warm|serve_miss|all> \
//!     [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--repeat N]
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

mod harness;
mod inputs;
mod layers;
mod loadgen;
mod metrics;
mod reference;
mod score_cold;
mod serve;
mod stats;
mod trace;
mod tune_search;

use serde::Value;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use harness::{Outcome, RunOptions};
use loadgen::LoadShape;
use metrics::{Better, END_TO_END};

/// Workload names and why each exists (the same lines as `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 4] = [
    (
        "score_cold",
        "all-miss batch-512 predict: features + model kernels + engine fan-out do all the work, serve/verify/tuner none (paper Fig. 10 path)",
    ),
    (
        "tune_search",
        "tune_network on BERT-tiny: sketch, verify gate, hwsim measurement and the engine at its natural ~0.5 hit ratio split the time, serve does none",
    ),
    (
        "serve_warm",
        "closed loop through Server, cache prefilled: admission, queue, coalescing and reply channels dominate, the model idles (ROADMAP item 1's 0.40x)",
    ),
    (
        "serve_miss",
        "same server and loop, every candidate never seen: cache is written not read and batches carry GEMM work, so probe-vs-insert or max_wait trades show as a loss",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--repeat" => args.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Runs one workload in this process.
///
/// Full sizes make a trial 0.7–1.7 s on two 2.1 GHz cores, so a 20 s run
/// takes its medians over 8–15 trials; `--smoke` sizes finish a workload in
/// about 2 s.
fn run_workload(args: &Args) -> Result<Outcome, String> {
    let opts = RunOptions {
        measure: Duration::from_secs(if args.smoke { 0 } else { args.seconds }),
        min_trials: if args.smoke { 2 } else { 3 },
        traced: args.trace,
    };
    // Two generator threads × four requests in flight: eight logical tuners
    // from no more threads than the smallest supported machine has cores.
    let shape = |requests_per_thread| LoadShape {
        threads: 2,
        window: 4,
        requests_per_thread,
    };
    let smoke = args.smoke;
    Ok(match args.workload.as_str() {
        "score_cold" => {
            let (pool, passes) = if smoke { (1024, 2) } else { (4096, 8) };
            harness::run(&score_cold::ScoreCold::new(pool, passes, args.seed)?, &opts)
        }
        "tune_search" => {
            let rounds = if smoke { 12 } else { 100 };
            harness::run(&tune_search::TuneSearch::new(rounds, args.seed), &opts)
        }
        "serve_warm" => {
            let requests = if smoke { 300 } else { 2500 };
            harness::run(&serve::Serve::new(true, shape(requests), args.seed)?, &opts)
        }
        "serve_miss" => {
            let requests = if smoke { 100 } else { 1000 };
            harness::run(
                &serve::Serve::new(false, shape(requests), args.seed)?,
                &opts,
            )
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Map(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// Prints every metric by name with its unit, then the result object.
fn report(args: &Args, outcome: &Outcome) -> bool {
    let e = &outcome.end_to_end;
    println!(
        "workload {} seed {} · {} untraced trials · ≥{} op latencies per trial · {} machine threads",
        args.workload,
        args.seed,
        e.per_trial.len(),
        e.samples_per_trial,
        layers::machine_threads()
    );
    if args.workload.starts_with("serve") {
        println!(
            "closed loop, 2 threads × 4 requests in flight; a request that finishes while its \
             thread waits on an older one is timed at most one service time late"
        );
    }
    let per_trial: Vec<String> = e.per_trial.iter().map(|v| format!("{v:.0}")).collect();
    println!("cand_per_s by trial: {}", per_trial.join(" "));
    println!(
        "durations and rates are at calm machine speed (reference.rs); the machine ran at \
         {:.3}x of it",
        e.speed
    );
    println!(
        "wall-clock medians: cand_per_s {:.4} op_p50_us {:.4} op_p95_us {:.4} setup_s {:.6}",
        e.raw[0], e.raw[1], e.raw[2], e.raw[3]
    );
    let mut values = Vec::new();
    let mut finite = true;
    for m in &END_TO_END {
        let v = e.get(m.name);
        finite &= v.is_finite();
        println!(
            "  {:<26} {:>16.4} {:<8} (median over trials, {} is better, bound {:.0}%)",
            m.name,
            v,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
        if !args.trace {
            values.push((m.name.to_string(), metric(v, m.unit)));
        }
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<26} {:>16.6} ratio    ({} failed of {} ops; bound 0)",
        "fail_ratio", fail_ratio, outcome.failed, outcome.attempted
    );
    if let Some((layers, trace)) = &outcome.traced {
        println!("per-layer (traced pass):");
        for (m, v) in layers.iter() {
            finite &= v.is_finite();
            println!(
                "  {:<26} {:>16.4} {:<8} ({} is better)",
                m.name,
                v,
                m.unit,
                m.better.as_str()
            );
            values.push((m.name.to_string(), metric(v, m.unit)));
        }
        match trace.write(&args.workload) {
            Ok(path) => println!("{} spans written to {}", trace.spans.len(), path.display()),
            Err(e) => eprintln!("tlp-sysbench: could not write the trace: {e}"),
        }
    }
    let correct = outcome.failed == 0 && finite && (!args.trace || outcome.traced.is_some());
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Map(values)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a value tree always serializes")
    );
    correct
}

/// Re-executes this binary for one workload and pass, so peak memory and
/// caches are per workload, and returns the metrics of its result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); status {}", output.status))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload}: incorrect run: {last}"));
    }
    match result.get("metrics") {
        Some(Value::Map(metrics)) => Ok(metrics
            .iter()
            .filter_map(|(k, v)| {
                let unit = match v.get("unit")? {
                    Value::Str(unit) => unit.clone(),
                    _ => return None,
                };
                Some((k.clone(), v.get("value")?.as_f64()?, unit))
            })
            .collect()),
        _ => Err(format!("{workload}: result line without metrics")),
    }
}

/// The metrics of one child run in result-line order: name, value, unit.
type Metrics = Vec<(String, f64, String)>;

/// `--workload all`: every workload, untraced then traced, each in a fresh
/// child process; `--repeat N` runs the set N times and fails unless every
/// end-to-end metric of each later set is within its bound of the first.
fn run_all(args: &Args) -> Result<(), String> {
    let mut sets: Vec<Vec<(String, Metrics)>> = Vec::new();
    for _ in 0..args.repeat {
        let mut set = Vec::new();
        for (workload, _) in WORKLOADS {
            let mut metrics = child(args, workload, false)?;
            metrics.extend(child(args, workload, true)?);
            set.push((workload.to_string(), metrics));
        }
        sets.push(set);
    }
    let mut violations = Vec::new();
    for (w, (workload, first)) in sets[0].iter().enumerate() {
        println!("{workload}");
        for (m, (name, value, unit)) in first.iter().enumerate() {
            let mut line = format!("  {name:<26} {value:>16.4}");
            for later in &sets[1..] {
                let again = later[w].1[m].1;
                line.push_str(&format!(" {again:>16.4}"));
                if let Some(e) = END_TO_END.iter().find(|e| e.name == name) {
                    let worse = match e.better {
                        Better::Higher => (value - again) / value,
                        Better::Lower => (again - value) / value,
                    };
                    if worse > e.bound {
                        violations.push(format!(
                            "{workload} {name}: {value} then {again}, worse by {:.1}% > {:.0}%",
                            worse * 100.0,
                            e.bound * 100.0
                        ));
                    }
                }
            }
            println!("{line} {unit}");
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "sets of runs disagree beyond the bound:\n  {}",
            violations.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tlp-sysbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args).and_then(|outcome| {
            report(&args, &outcome)
                .then_some(())
                .ok_or("operations failed or a metric is not finite".to_string())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tlp-sysbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    fn read(relative: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn names(list: &Value) -> Vec<(String, String)> {
        let Value::Seq(items) = list else {
            panic!("expected a list, got {list:?}")
        };
        let field = |item: &Value, key: &str| match item.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        items
            .iter()
            .map(|i| {
                let second = if i.get("why").is_some() {
                    "why"
                } else {
                    "unit"
                };
                (field(i, "name"), field(i, second))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_tables() {
        let json: Value = serde_json::from_str(&read("../BENCHMARK.json")).expect("valid JSON");
        let section = |key: &str| json.get(key).unwrap_or_else(|| panic!("missing {key}"));
        let own = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names(section("workloads")), own(&WORKLOADS));
        let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names(section("end_to_end")), own(&e2e));
        let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names(section("per_layer")), own(&layers));
        let Value::Seq(items) = section("end_to_end") else {
            panic!("end_to_end is a list")
        };
        for (item, m) in items.iter().zip(&END_TO_END) {
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert_eq!(
                item.get("better"),
                Some(&Value::Str(m.better.as_str().into()))
            );
        }
        let Value::Seq(items) = section("per_layer") else {
            panic!("per_layer is a list")
        };
        for (item, m) in items.iter().zip(&PER_LAYER) {
            assert_eq!(
                item.get("better"),
                Some(&Value::Str(m.better.as_str().into()))
            );
        }
    }

    /// A package that is its own workspace does not inherit the repository's
    /// profiles; the benchmark must build the program the same way.
    #[test]
    fn profiles_match_repository_root() {
        let table = |manifest: &str, header: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        for header in ["[profile.release]", "[profile.test]"] {
            let root = table(&read("../Cargo.toml"), header);
            assert!(!root.is_empty(), "{header} missing at the root");
            assert_eq!(table(&read("Cargo.toml"), header), root, "{header}");
        }
    }
}
