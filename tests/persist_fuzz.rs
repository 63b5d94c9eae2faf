//! Snapshot text, mutated, through `SavedTlp::load` and `restore`: a seeded,
//! structure-aware fuzz of the model-snapshot decoder.
//!
//! Each input starts from the JSON of a seeded 1-head or 3-head snapshot and
//! takes one to four mutations: truncate the text, flip a byte, drop or
//! duplicate a key, write a huge, negative, fractional or non-finite number
//! over a value or over any number in the text, or set `format_version` or
//! `heads` to a neighbouring, zero or huge count. Every input must come back
//! either as a typed `PersistError` from `load` or `restore`, or as an `Ok`
//! whose parameter store is bit-equal to the original and whose model and
//! extractor score a schedule. No input may panic.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers lib code, not tests (see clippy.toml)

use std::panic::{catch_unwind, AssertUnwindSafe};
use tlp::features::{FeatureBuf, FeatureExtractor};
use tlp::persist::{snapshot, PersistError, SavedTlp};
use tlp::{TlpConfig, TlpModel};
use tlp_nn::{ParamStore, Workspace};
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};

/// Inputs generated per base snapshot.
const MUTANTS: usize = 400;

/// Keys a key-level mutation targets: every top-level field, every config
/// field, and the per-parameter fields of the store.
const KEYS: [&str; 22] = [
    "format_version",
    "config",
    "vocab",
    "seq_len",
    "emb_size",
    "store",
    "heads",
    "checksum",
    "hidden",
    "res_blocks",
    "backbone",
    "loss",
    "learning_rate",
    "epochs",
    "batch_size",
    "seed",
    "params",
    "name",
    "value",
    "grad",
    "shape",
    "data",
];

/// Replacement numbers: huge (in and beyond `u64`), negative, fractional,
/// non-finite spellings, and small counts.
const NUMBERS: [&str; 16] = [
    "18446744073709551615",
    "4611686018427387904",
    "99999999999999999999999",
    "1e300",
    "1e999",
    "-1",
    "-4611686018427387904",
    "0.5",
    "-0",
    "NaN",
    "Infinity",
    "-Infinity",
    "0",
    "1",
    "2",
    "7",
];

/// Counts written over `format_version` and `heads`.
const COUNTS: [&str; 7] = ["0", "1", "2", "3", "4", "65536", "18446744073709551615"];

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

/// End (exclusive) of the JSON value starting at `at`, scanning strings,
/// nested brackets and bare tokens; the text's end if it is cut short.
fn value_end(text: &[u8], at: usize) -> usize {
    let mut depth = 0usize;
    let mut i = at;
    let mut in_str = false;
    while i < text.len() {
        let b = text[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => {
                    in_str = false;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'[' | b'{' => depth += 1,
                b']' | b'}' if depth == 0 => return i,
                b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                b',' if depth == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    text.len()
}

/// Byte spans `(key_start, value_start, value_end)` of every `"key":` entry.
fn entries(text: &str, key: &str) -> Vec<(usize, usize, usize)> {
    let pattern = format!("\"{key}\":");
    text.match_indices(&pattern)
        .map(|(at, _)| {
            let value = at + pattern.len();
            (at, value, value_end(text.as_bytes(), value))
        })
        .collect()
}

/// Byte spans of every number token (a run of digits, signs, dots and
/// exponents starting with a digit or a minus) outside strings.
fn numbers(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_str) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_str = true;
            i += 1;
        } else if b.is_ascii_digit() || b == b'-' {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

fn splice(text: &mut String, (start, end): (usize, usize), with: &str) -> String {
    let what = format!("{:?} -> {with:?}", &text[start..end.min(start + 24)]);
    text.replace_range(start..end, with);
    what
}

/// Applies one mutation; returns a description for the failure message.
fn mutate(text: &mut String, rng: &mut Lcg) -> String {
    match rng.below(8) {
        0 => {
            let mut cut = rng.below(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
            format!("truncate at {cut}")
        }
        1 if !text.is_empty() => {
            // Flip one of the low seven bits, so ASCII stays ASCII and the
            // text stays UTF-8 (the snapshot writer emits ASCII only).
            let at = rng.below(text.len());
            let bytes = flip_bit(text, at, 1 << rng.below(7));
            format!("flip byte {at}: {bytes}")
        }
        1..=3 => {
            let key = KEYS[rng.below(KEYS.len())];
            let spans = entries(text, key);
            if spans.is_empty() {
                return format!("no {key}");
            }
            let (at, value, end) = spans[rng.below(spans.len())];
            if rng.below(2) == 0 {
                // Drop the entry and the comma that separates it.
                let (from, to) = if text.as_bytes().get(end) == Some(&b',') {
                    (at, end + 1)
                } else if at > 0 && text.as_bytes()[at - 1] == b',' {
                    (at - 1, end)
                } else {
                    (at, end)
                };
                text.replace_range(from..to, "");
                format!("drop {key} at {at}")
            } else {
                // Duplicate the key ahead of itself, with its own value or a
                // number, so the decoder sees it twice.
                let dup = if rng.below(2) == 0 {
                    text[value..end].to_string()
                } else {
                    NUMBERS[rng.below(NUMBERS.len())].to_string()
                };
                let what = format!("duplicate {key} at {at} as {:?}", &dup[..dup.len().min(24)]);
                text.insert_str(at, &format!("\"{key}\":{dup},"));
                what
            }
        }
        4 => {
            let key = KEYS[rng.below(KEYS.len())];
            let spans = entries(text, key);
            if spans.is_empty() {
                return format!("no {key}");
            }
            let (_, value, end) = spans[rng.below(spans.len())];
            let with = NUMBERS[rng.below(NUMBERS.len())];
            format!("{key}: {}", splice(text, (value, end), with))
        }
        5 => {
            let spans = numbers(text);
            if spans.is_empty() {
                return "no number".into();
            }
            let span = spans[rng.below(spans.len())];
            let with = NUMBERS[rng.below(NUMBERS.len())];
            format!("number at {}: {}", span.0, splice(text, span, with))
        }
        _ => {
            let key = if rng.below(2) == 0 {
                "format_version"
            } else {
                "heads"
            };
            // The top-level entry: the last one, since the store and the
            // config come first and the config has its own `heads`.
            let Some(&(_, value, end)) = entries(text, key).last() else {
                return format!("no {key}");
            };
            let with = COUNTS[rng.below(COUNTS.len())];
            format!("{key}: {}", splice(text, (value, end), with))
        }
    }
}

fn flip_bit(text: &mut String, at: usize, mask: u8) -> String {
    let mut bytes = std::mem::take(text).into_bytes();
    let before = bytes[at];
    bytes[at] ^= mask;
    let after = bytes[at];
    *text = String::from_utf8(bytes).unwrap_or_else(|e| {
        // A non-ASCII byte was hit: undo the flip.
        let mut bytes = e.into_bytes();
        bytes[at] = before;
        String::from_utf8(bytes).expect("was UTF-8")
    });
    format!("{before:#04x} -> {after:#04x}")
}

fn store_bits(store: &ParamStore) -> Vec<(String, Vec<usize>, Vec<u32>)> {
    store
        .ids()
        .map(|id| {
            let t = store.value(id);
            (
                store.name(id).to_string(),
                t.shape().to_vec(),
                t.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Head-0 scores of one split schedule.
fn score(model: &TlpModel, extractor: &FeatureExtractor) -> Vec<f32> {
    let schedule: ScheduleSequence = [ConcretePrimitive::new(PrimitiveKind::Split, "dense")
        .with_loops(["i"])
        .with_ints([64, 8])]
    .into_iter()
    .collect();
    let mut feats = FeatureBuf::new();
    extractor.extract_batch_into(std::slice::from_ref(&schedule), &mut feats);
    let mut scores = Vec::new();
    model.predict_task_into(&mut Workspace::new(), &feats, 0, &mut scores);
    scores
}

#[test]
fn mutated_snapshots_fail_typed_or_restore_bit_equal() {
    let dir = std::env::temp_dir().join(format!("tlp_persist_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (mut restored, mut rejected) = (0usize, 0usize);
    for (heads, seed) in [(1usize, 0xF0u64), (3, 0xF3)] {
        let cfg = TlpConfig {
            seed,
            ..TlpConfig::test_scale()
        };
        let ex = FeatureExtractor::with_vocab(
            tlp_schedule::Vocabulary::builder().build(),
            cfg.seq_len,
            cfg.emb_size,
        );
        let model = TlpModel::with_heads(cfg, heads);
        let original = store_bits(&model.store);
        let base = serde_json::to_string(&snapshot(&model, &ex)).expect("serialize");
        let mut rng = Lcg(seed);
        for input in 0..MUTANTS {
            let mut text = base.clone();
            let steps: Vec<String> = (0..1 + rng.below(4))
                .map(|_| mutate(&mut text, &mut rng))
                .collect();
            let path = dir.join(format!("{heads}_{input}.json"));
            std::fs::write(&path, &text).expect("write input");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let snap = match SavedTlp::load(&path) {
                    Ok(snap) => snap,
                    Err(e) => return Err(e.to_string()),
                };
                match snap.restore() {
                    Ok((model, extractor)) => {
                        assert!(
                            store_bits(&model.store) == original,
                            "restore accepted a store that differs from the original"
                        );
                        // A restored pair scores: the extractor's rows are
                        // the ones the model reads.
                        assert_eq!(score(&model, &extractor).len(), 1);
                        Ok(())
                    }
                    Err(e) => Err(e.to_string()),
                }
            }));
            let _ = std::fs::remove_file(&path);
            match outcome {
                Ok(Ok(())) => restored += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => {
                    let _ = std::fs::remove_dir_all(&dir);
                    panic!("{heads}-head input {input} panicked after {steps:?}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir(&dir);
    // The mix must exercise both outcomes: some mutations leave the store
    // and its declared layout intact (a dropped grad, a duplicated key that
    // loses to the original), most break them.
    assert!(
        restored > 0 && rejected > restored,
        "restored {restored}, rejected {rejected}"
    );
}

/// Two edits that keep every parameter's name and shape, so only the
/// snapshot checksum can see them: 4 → 2 attention heads over a width of
/// 16, and one name moved to another token. Either would restore a model
/// that scores differently from the one saved; both must be refused.
#[test]
fn layout_keeping_edits_are_refused() {
    let cfg = TlpConfig::test_scale();
    assert_eq!((cfg.hidden, cfg.heads), (16, 4));
    let mut vocab = tlp_schedule::Vocabulary::builder();
    for name in ["dense", "dense", "i"] {
        vocab.observe(name);
    }
    let ex = FeatureExtractor::with_vocab(vocab.build(), cfg.seq_len, cfg.emb_size);
    let model = TlpModel::with_heads(cfg, 2);
    let base = serde_json::to_string(&snapshot(&model, &ex)).expect("serialize");
    let dir = std::env::temp_dir().join(format!("tlp_persist_edits_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // The config comes before the top-level head count, so the first
    // `heads` entry is the attention heads.
    let edits: [(&str, &str, &str); 2] = [("heads", "4", "2"), ("dense", "1", "2")];
    for (key, from, to) in edits {
        let mut text = base.clone();
        let (_, value, end) = entries(&text, key)[0];
        assert_eq!(&text[value..end], from, "{key} in {base}");
        text.replace_range(value..end, to);
        let path = dir.join(format!("{key}.json"));
        std::fs::write(&path, &text).expect("write input");
        let snap = SavedTlp::load(&path).expect("the edit keeps the format");
        let _ = std::fs::remove_file(&path);
        match snap.restore().err() {
            Some(PersistError::Checksum { recorded, computed }) => {
                assert_ne!(recorded, computed, "{key} edit")
            }
            other => panic!("{key} edit restored as {other:?}"),
        }
    }
    let _ = std::fs::remove_dir(&dir);
}
