//! Schedule text, mutated, through `check_text`: a seeded, structure-aware
//! fuzz of the verifier's text entry point.
//!
//! Each input starts from the text of an emitted schedule and takes one to
//! four mutations: drop, duplicate or swap lines; splice in a line of another
//! schedule; rename a stage or a loop variable (to live, consumed, long,
//! empty, control-byte or non-ASCII names); replace an int with a huge,
//! negative or out-of-range one; append a deep fuse chain; or cut or insert a
//! punctuation character. Every input must come back either unparsed with a
//! lone `V001` error or parsed with a report that carries no `V001`, no input
//! may panic, and a `Verifier` reused across all inputs must report exactly
//! what the fresh one inside `check_text` does. A parsed input that differs
//! from its base in int values only (its skeleton is the base's) is also
//! checked by a verifier that checked the base first, and so holds the
//! base's plan when the base is clean: it too must report what the fresh
//! one does.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp_autotuner::SketchPolicy;
use tlp_schedule::{parse_schedule, Skeletons};
use tlp_verify::{check_text, Code, Severity, Verifier, VerifyOptions};
use tlp_workload::{bert_tiny, AnchorOp, Subgraph};

/// Inputs generated per (subgraph, base schedule).
const MUTANTS: usize = 40;

/// Names a rename draws from: axes and split parts of the pool's subgraphs,
/// fused names, and names no sketch emits.
const NAMES: [&str; 16] = [
    "i",
    "j",
    "k",
    "i.0",
    "i.1",
    "j.10",
    "i.0@j.0",
    "ghost",
    "",
    "@",
    "abcdefgh0",
    "abcdefgh1",
    "a\0",
    "\x07",
    "变量",
    "dense",
];

/// Replacement ints: the first three overflow `i64` and fail to parse.
const INTS: [&str; 10] = [
    "99999999999999999999",
    "-99999999999999999999",
    "1e3",
    "9223372036854775807",
    "-9223372036854775808",
    "-1",
    "0",
    "4611686018427387904",
    "+8",
    "-0",
];

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n.max(1)
    }
}

/// A line's comma-separated parts between its parentheses (the `Display`
/// form separates them with `", "`), or `None` for a line without that shape.
fn parts(line: &str) -> Option<(&str, Vec<&str>)> {
    let open = line.find('(')?;
    let body = line[open + 1..].strip_suffix(')')?;
    Some((&line[..open], body.split(", ").collect()))
}

/// The loop variables a schedule's text names (bare parts after the stage).
fn loop_vars(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|l| parts(l))
        .flat_map(|(_, ps)| ps.into_iter().skip(1))
        .filter(|p| !p.starts_with('[') && !p.starts_with('"') && !p.ends_with(']'))
        .map(str::to_string)
        .collect()
}

fn mutate(lines: &mut Vec<String>, donor: &[String], rng: &mut Lcg) {
    let n = lines.len();
    match rng.below(8) {
        0 if n > 0 => {
            lines.remove(rng.below(n));
        }
        1 if n > 0 => {
            let line = lines[rng.below(n)].clone();
            lines.insert(rng.below(n + 1), line);
        }
        2 if n > 1 => lines.swap(rng.below(n), rng.below(n)),
        3 if !donor.is_empty() => {
            let line = donor[rng.below(donor.len())].clone();
            lines.insert(rng.below(n + 1), line);
        }
        4 if n > 0 => {
            let at = rng.below(n);
            if let Some((kind, mut ps)) = parts(&lines[at]) {
                let slot = rng.below(ps.len());
                if !ps[slot].starts_with('[') && !ps[slot].starts_with('"') {
                    ps[slot] = NAMES[rng.below(NAMES.len())];
                    lines[at] = format!("{kind}({})", ps.join(", "));
                }
            }
        }
        5 if n > 0 => {
            let at = rng.below(n);
            if let (Some(open), Some(close)) = (lines[at].find('['), lines[at].find(']')) {
                if open < close {
                    let mut ints: Vec<&str> = lines[at][open + 1..close].split(", ").collect();
                    let slot = rng.below(ints.len());
                    ints[slot] = INTS[rng.below(INTS.len())];
                    lines[at] = format!(
                        "{}{}{}",
                        &lines[at][..=open],
                        ints.join(", "),
                        &lines[at][close..]
                    );
                }
            }
        }
        6 => {
            // A fuse chain whose every link consumes the previous link's
            // name: names grow with the depth.
            let vars = loop_vars(lines);
            let stage = lines
                .first()
                .and_then(|l| parts(l))
                .map_or("dense".to_string(), |(_, ps)| ps[0].to_string());
            let mut acc = vars.first().cloned().unwrap_or_else(|| "i".to_string());
            for _ in 0..8 + rng.below(56) {
                let next = match vars.len() {
                    0 => NAMES[rng.below(NAMES.len())].to_string(),
                    v => vars[rng.below(v)].clone(),
                };
                lines.push(format!("FU({stage}, {acc}, {next})"));
                acc = format!("{acc}@{next}");
            }
            lines.push(format!("AN({stage}, {acc}, \"parallel\")"));
        }
        _ if n > 0 => {
            let at = rng.below(n);
            let bounds: Vec<usize> = lines[at]
                .char_indices()
                .map(|(i, _)| i)
                .chain([lines[at].len()])
                .collect();
            let cut = bounds[rng.below(bounds.len())];
            if rng.below(2) == 0 {
                lines[at].truncate(cut);
            } else {
                let c = [',', '[', ']', '"', '(', ')', '@', '.', ' '][rng.below(9)];
                lines[at].insert(cut, c);
            }
        }
        _ => lines.push("AN(dense, i, \"parallel\")".to_string()),
    }
}

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
    pool.extend(
        bert_tiny(1, 64)
            .instances
            .into_iter()
            .take(3)
            .map(|i| i.subgraph),
    );
    pool
}

#[test]
fn mutated_schedule_text_yields_a_parse_failure_or_a_report_and_never_panics() {
    let pool = subgraphs();
    // Emitted text per subgraph: CPU and GPU sketch output.
    let texts: Vec<Vec<Vec<String>>> = pool
        .iter()
        .map(|sg| {
            let mut rng = SmallRng::seed_from_u64(0xF022);
            [SketchPolicy::cpu(), SketchPolicy::gpu()]
                .iter()
                .flat_map(|policy| {
                    let sketch = policy.compile(sg);
                    (0..4)
                        .map(|_| {
                            let seq = sketch.random_candidate(&mut rng).sequence;
                            seq.to_string().lines().map(str::to_string).collect()
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        })
        .collect();

    let mut rng = Lcg(0x5EED_F022);
    let (mut parsed, mut unparsed) = (0usize, 0usize);
    let (mut int_only, mut planned) = (0usize, 0usize);
    for gpu in [None, Some(false), Some(true)] {
        let opts = VerifyOptions { gpu };
        for (s, sg) in pool.iter().enumerate() {
            let mut reused = Verifier::new(sg, &opts);
            for base in &texts[s] {
                let base_seq = parse_schedule(&base.join("\n")).expect("emitted text parses");
                let mut skeleton = Skeletons::default();
                skeleton.insert(&base_seq);
                let mut warmed = Verifier::new(sg, &opts);
                warmed.check(&base_seq);
                let donor = &texts[(s + 1) % pool.len()][rng.below(texts[0].len())];
                for _ in 0..MUTANTS {
                    let mut lines = base.clone();
                    for _ in 0..1 + rng.below(4) {
                        mutate(&mut lines, donor, &mut rng);
                    }
                    let text = lines.join("\n");
                    let (seq, report) = check_text(sg, &text, &opts);
                    let v001 = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.code == Code::ParseFailure)
                        .count();
                    match seq {
                        None => {
                            unparsed += 1;
                            assert_eq!(report.diagnostics.len(), 1, "{text}");
                            assert_eq!(v001, 1, "{text}");
                            assert_eq!(report.diagnostics[0].severity, Severity::Error);
                        }
                        Some(seq) => {
                            parsed += 1;
                            assert_eq!(v001, 0, "{text}");
                            assert_eq!(reused.check(&seq), report, "{text}");
                            if skeleton.find(&seq).is_some() {
                                int_only += 1;
                                planned += usize::from(warmed.planned(&seq));
                                assert_eq!(warmed.check(&seq), report, "{text}");
                            }
                        }
                    }
                }
            }
        }
    }
    // Both outcomes must be well represented, or the fuzz is not reaching
    // one of the two paths; and int-only inputs must meet planned verifiers.
    assert!(
        planned >= 50,
        "{planned} of {int_only} int-only inputs met a plan"
    );
    let total = parsed + unparsed;
    assert!(parsed * 4 > total, "{parsed} of {total} inputs parsed");
    assert!(
        unparsed * 10 > total,
        "{unparsed} of {total} inputs failed to parse"
    );
}
