//! Property tests for the vocabulary, sequence fingerprinting and the
//! in-place sequence writer.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use tlp_schedule::{
    parse_schedule, ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary,
};

prop_compose! {
    /// Any primitive: any kind, 0–3 loop vars, 0–4 ints, 0–2 extras, names
    /// of varying length.
    fn any_primitive()(
        kind in 0usize..14,
        stage in "[a-z_]{1,8}",
        vars in prop::collection::vec("[a-z@.0-9]{1,12}", 0..4),
        ints in prop::collection::vec(0i64..10_000, 0..5),
        extras in prop::collection::vec("[a-zA-Z_.]{1,10}", 0..3),
    ) -> ConcretePrimitive {
        ConcretePrimitive::new(PrimitiveKind::ALL[kind], stage)
            .with_loops(vars)
            .with_ints(ints)
            .with_extras(extras)
    }
}

prop_compose! {
    fn any_sequence()(primitives in prop::collection::vec(any_primitive(), 0..8)) -> ScheduleSequence {
        primitives.into_iter().collect()
    }
}

/// Writes `source`'s primitives over whatever `target` holds, each
/// primitive's extras first when `extras_first` (a loop variable written
/// after an extra still lands before it).
fn write_over_in_order(
    target: &mut ScheduleSequence,
    source: &ScheduleSequence,
    extras_first: bool,
) {
    let mut writer = target.rewrite();
    for p in source {
        let mut w = writer.primitive(p.kind, p.stage);
        if extras_first {
            for e in &p.extras {
                w.extra(e);
            }
        }
        w.ints(p.ints.iter().copied());
        for v in &p.loop_vars {
            w.loop_var(v);
        }
        if !extras_first {
            for e in &p.extras {
                w.extra(e);
            }
        }
    }
}

/// Writes `source`'s primitives over whatever `target` holds.
fn write_over(target: &mut ScheduleSequence, source: &ScheduleSequence) {
    write_over_in_order(target, source, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a sequence held, rewriting it yields exactly the value built
    /// from scratch — longer, shorter (the old tail is cut off) or empty.
    #[test]
    fn rewrite_over_any_sequence_equals_the_fresh_build(
        old in any_sequence(),
        new in any_sequence(),
        newer in any_sequence(),
    ) {
        let mut target = old;
        for source in [&new, &newer] {
            write_over(&mut target, source);
            prop_assert_eq!(&target, source);
            prop_assert_eq!(target.fingerprint(), source.fingerprint());
        }
        let shorter: ScheduleSequence = newer
            .iter()
            .take(newer.len() / 2)
            .map(|p| p.to_concrete())
            .collect();
        write_over(&mut target, &shorter);
        prop_assert_eq!(&target, &shorter);
        // A writer that writes nothing leaves nothing behind.
        let _ = target.rewrite();
        prop_assert!(target.is_empty());
    }

    /// The order a primitive's parts are written in does not matter: loop
    /// variables written after extras still come first.
    #[test]
    fn parts_written_in_any_order_build_the_same_sequence(
        old in any_sequence(),
        new in any_sequence(),
    ) {
        for extras_first in [false, true] {
            let mut target = old.clone();
            write_over_in_order(&mut target, &new, extras_first);
            prop_assert_eq!(&target, &new);
            prop_assert_eq!(target.fingerprint(), new.fingerprint());
            prop_assert_eq!(target.to_string(), new.to_string());
        }
    }

    /// Every view reads back the owned primitive it was built from.
    #[test]
    fn views_read_back_the_pushed_primitives(primitives in prop::collection::vec(any_primitive(), 0..8)) {
        let seq: ScheduleSequence = primitives.iter().cloned().collect();
        prop_assert_eq!(seq.len(), primitives.len());
        for (i, p) in primitives.iter().enumerate() {
            let view = seq.get(i).unwrap();
            prop_assert_eq!(&view.to_concrete(), p);
            prop_assert_eq!(view.loop_vars.len(), p.loop_vars.len());
            prop_assert_eq!(view.loop_vars.first(), p.loop_vars.first().map(String::as_str));
            for (j, v) in p.loop_vars.iter().enumerate() {
                prop_assert_eq!(view.loop_vars.get(j), Some(v.as_str()));
            }
            prop_assert_eq!(view.extras.get(p.extras.len()), None);
        }
        prop_assert!(seq.get(primitives.len()).is_none());
        let back: Vec<_> = seq.clone().into_iter().collect();
        prop_assert_eq!(back, primitives);
    }

    /// Distinct names receive distinct tokens; tokens are dense 1..=n.
    #[test]
    fn tokens_distinct_and_dense(names in prop::collection::hash_set("[a-z]{1,6}", 1..20)) {
        let mut b = Vocabulary::builder();
        for n in &names {
            b.observe(n);
        }
        let v = b.build();
        let mut tokens: Vec<u32> = names.iter().map(|n| v.token(n)).collect();
        tokens.sort_unstable();
        tokens.dedup();
        prop_assert_eq!(tokens.len(), names.len(), "distinct tokens per name");
        prop_assert_eq!(*tokens.first().unwrap(), 1);
        prop_assert_eq!(*tokens.last().unwrap() as usize, names.len());
    }

    /// Observation frequency strictly orders tokens: more frequent → smaller.
    #[test]
    fn frequency_orders_tokens(counts in prop::collection::vec(1u32..50, 2..8)) {
        let mut b = Vocabulary::builder();
        // name_i observed counts[i] + (len - i) * 100 times: strictly
        // decreasing frequency by construction.
        for (i, &c) in counts.iter().enumerate() {
            let extra = (counts.len() - i) as u32 * 100;
            for _ in 0..(c + extra) {
                b.observe(&format!("name{i}"));
            }
        }
        let v = b.build();
        for i in 1..counts.len() {
            prop_assert!(
                v.token(&format!("name{}", i - 1)) < v.token(&format!("name{i}")),
                "higher-frequency names get smaller tokens"
            );
        }
    }

    /// Fingerprints are permutation-sensitive: swapping two distinct
    /// primitives changes the fingerprint (order is semantic for schedules).
    #[test]
    fn fingerprint_order_sensitive(a_ints in prop::collection::vec(1i64..100, 1..4)) {
        let p1 = ConcretePrimitive::new(PrimitiveKind::Split, "s")
            .with_loops(["i"])
            .with_ints(a_ints.clone());
        let p2 = ConcretePrimitive::new(PrimitiveKind::Fuse, "s").with_loops(["i.0", "j.0"]);
        let ab: ScheduleSequence = [p1.clone(), p2.clone()].into_iter().collect();
        let ba: ScheduleSequence = [p2, p1].into_iter().collect();
        prop_assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    /// Parsing the Display output of any generated primitive round-trips.
    #[test]
    fn display_parse_roundtrip_generated(
        stage in "[a-z_]{1,8}",
        vars in prop::collection::vec("[a-z]{1,3}(\\.[0-9])?", 0..3),
        ints in prop::collection::vec(0i64..10_000, 0..5),
        extras in prop::collection::vec("[a-zA-Z_.]{1,10}", 0..2),
        kind_idx in 0usize..14,
    ) {
        let p = ConcretePrimitive::new(PrimitiveKind::ALL[kind_idx], stage)
            .with_loops(vars)
            .with_ints(ints)
            .with_extras(extras);
        let seq: ScheduleSequence = [p].into_iter().collect();
        let back = parse_schedule(&seq.to_string()).expect("parse own display");
        prop_assert_eq!(back, seq);
    }
}
