//! Literal pins on what a sequence hashes and serializes to. Fingerprints
//! key every score cache and seed the simulator's noise, so a change to the
//! sequence's storage must leave each of them bit-identical; the literals
//! below were captured before the sequence was stored flat.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::{Deserialize, Serialize};
use tlp_schedule::{
    parse_schedule, ConcretePrimitive, Fingerprinter, PrimitiveKind, ScheduleSequence,
};

/// Seeded sketch output (CPU conv2d, dense and softmax; GPU conv2d and
/// dense), one `// label` header per sequence. `tlp-autotuner`'s
/// `compiled_sketch.rs` checks that the sketches still emit exactly this.
const SKETCH_CORPUS: &str = include_str!("fixtures/sketch_corpus.txt");

/// Hand-written schedule text: names shorter and longer than one hash
/// word, multi-byte characters, an empty int list, many ints, many names.
const PARSED_TEXT: &str = "\
SP(dense, i, [64, 8, 4])
SP(dense, j, [])
FU(dense, i.0, j.0, i.1, j.1, i.2, j.2)
AN(dense, i.0@j.0@i.1@j.1, \"parallel\")
AN(dense, ü, \"vectorize\", \"unroll\")
PR(a_stage_name_longer_than_sixteen_bytes, [512, -3, 0, 9223372036854775807], \"auto_unroll_max_step\")
CI(r)
CHR(dense)";

/// Splits the corpus at its `// ` header lines.
fn corpus() -> Vec<ScheduleSequence> {
    let mut blocks: Vec<String> = Vec::new();
    for line in SKETCH_CORPUS.lines() {
        if line.starts_with("// ") {
            blocks.push(String::new());
        } else if let Some(block) = blocks.last_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    let mut sequences: Vec<ScheduleSequence> =
        blocks.iter().map(|b| parse_schedule(b).unwrap()).collect();
    sequences.push(parse_schedule(PARSED_TEXT).unwrap());
    sequences.push(ScheduleSequence::new());
    sequences
}

#[test]
fn corpus_fingerprints_match_the_pinned_digest() {
    let sequences = corpus();
    assert_eq!(sequences.len(), 32);
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut fold = |x: u64| digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
    for s in &sequences {
        fold(s.fingerprint());
        fold(s.salted_fingerprint(0x9e37_79b9_7f4a_7c15));
        fold(s.len() as u64);
    }
    assert_eq!(digest, 0x6c6d_57b3_1f35_0426, "got {digest:#x}");
}

#[test]
fn a_fingerprinter_folds_the_pinned_digest_cold_and_warm() {
    let sequences = corpus();
    let mut fp = Fingerprinter::default();
    let (mut plain, mut salted) = (Vec::new(), Vec::new());
    // The cold pass folds the plain fingerprints from skeletons it has not
    // seen and the salted ones from the skeletons held by then; the warm
    // and the repeated pass are answered from the fingerprinter's memo.
    for (pass, memoized) in [("cold", 0), ("warm", 64), ("repeated", 128)] {
        fp.fingerprints_into(&sequences, &mut plain);
        fp.salted_fingerprints_into(0x9e37_79b9_7f4a_7c15, &sequences, &mut salted);
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |x: u64| digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
        for ((s, &fingerprint), &salted) in sequences.iter().zip(&plain).zip(&salted) {
            fold(fingerprint);
            fold(salted);
            fold(s.len() as u64);
        }
        assert_eq!(digest, 0x6c6d_57b3_1f35_0426, "{pass}: got {digest:#x}");
        assert_eq!(fp.hits().0, memoized, "{pass}");
    }
}

#[test]
fn a_three_primitive_sequence_serializes_to_the_pinned_text() {
    let seq: ScheduleSequence = [
        ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints([64, 8, 4]),
        ConcretePrimitive::new(PrimitiveKind::Fuse, "dense").with_loops(["i.0", "j.0"]),
        ConcretePrimitive::new(PrimitiveKind::Pragma, "dense")
            .with_ints([512])
            .with_extras(["auto_unroll_max_step"]),
    ]
    .into_iter()
    .collect();
    // The value tree `serde_json` renders one-to-one; the root crate's
    // `tests/serialization.rs` pins the same sequence's JSON text.
    let value = seq.serialize_value();
    assert_eq!(
        format!("{value:?}"),
        r#"Map([("primitives", Seq([Map([("kind", Str("Split")), ("stage", Str("dense")), ("loop_vars", Seq([Str("i")])), ("ints", Seq([I64(64), I64(8), I64(4)])), ("extras", Seq([]))]), Map([("kind", Str("Fuse")), ("stage", Str("dense")), ("loop_vars", Seq([Str("i.0"), Str("j.0")])), ("ints", Seq([])), ("extras", Seq([]))]), Map([("kind", Str("Pragma")), ("stage", Str("dense")), ("loop_vars", Seq([])), ("ints", Seq([I64(512)])), ("extras", Seq([Str("auto_unroll_max_step")]))])]))])"#
    );
    let back = ScheduleSequence::deserialize_value(&value).unwrap();
    assert_eq!(back, seq);
    assert_eq!(back.fingerprint(), seq.fingerprint());
}
