//! The warm fingerprinter against `ScheduleSequence::salted_fingerprint`,
//! over sketch output: one fingerprinter kept across requests of CPU and
//! GPU candidates of several tasks, of every length up to nine (so each
//! count of schedules left over after the four lanes), with candidates
//! repeated within a request and across requests under alternating salts
//! (so its memo answers some of them), past its skeleton cap, so it starts
//! its set over mid-request, and past its memo's count and byte caps, so
//! the memo starts over too.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlp_autotuner::{Sketch, SketchPolicy};
use tlp_schedule::{Fingerprinter, ScheduleSequence, Skeletons};
use tlp_workload::{test_networks, Subgraph};

/// Every subgraph of the test networks, in order.
fn subgraphs() -> Vec<Subgraph> {
    test_networks()
        .into_iter()
        .flat_map(|net| net.instances.into_iter().map(|i| i.subgraph))
        .collect()
}

fn policy(gpu: bool) -> SketchPolicy {
    if gpu {
        SketchPolicy::gpu()
    } else {
        SketchPolicy::cpu()
    }
}

/// Fingerprints `request` through `fp` and one by one, and says whether
/// they agree.
fn agrees(fp: &mut Fingerprinter, salt: u64, request: &[ScheduleSequence]) -> bool {
    let mut out = vec![1; 11];
    fp.salted_fingerprints_into(salt, request, &mut out);
    let want: Vec<u64> = request.iter().map(|s| s.salted_fingerprint(salt)).collect();
    out == want
}

#[test]
fn a_fingerprinter_past_its_skeleton_cap_still_hashes_every_schedule() {
    let mut rng = SmallRng::seed_from_u64(41);
    let mut pool = Vec::new();
    for gpu in [false, true] {
        for sg in subgraphs() {
            let sketch = policy(gpu).compile(&sg);
            pool.extend((0..6).map(|_| sketch.random_candidate(&mut rng).sequence));
        }
    }
    let mut distinct = Skeletons::default();
    for s in &pool {
        if distinct.find(s).is_none() {
            distinct.insert(s);
        }
    }
    assert!(distinct.len() > 64, "{} skeletons", distinct.len());
    // Then 1 100 distinct candidates of one sketch with 16 skeletons: more
    // than the memo's 1 024 schedules, and more than its 128 KiB in ints
    // alone.
    let reduce = subgraphs()
        .into_iter()
        .find(|sg| sg.name == "s0b0_reduce")
        .unwrap();
    let sketch = policy(false).compile(&reduce);
    let mut seen = std::collections::BTreeSet::new();
    let run = pool.len();
    while pool.len() < run + 1100 {
        let s = sketch.random_candidate(&mut rng).sequence;
        if seen.insert(s.fingerprint()) {
            pool.push(s);
        }
    }
    let ints: usize = pool[run..].iter().map(|s| s.ints().len()).sum();
    assert!(8 * ints > 128 << 10, "{ints} ints");

    let mut fp = Fingerprinter::default();
    let mut rest = &pool[..];
    for len in (0..10).cycle() {
        if rest.is_empty() {
            break;
        }
        let (request, tail) = rest.split_at(len.min(rest.len()));
        assert!(agrees(&mut fp, 0, request), "{len} schedules");
        assert!(agrees(&mut fp, 0x9e37_79b9_7f4a_7c15, request));
        rest = tail;
    }
    assert!(fp.len() < distinct.len());
    let (memoized, found, looked_up) = fp.hits();
    assert_eq!(looked_up, 2 * pool.len() as u64);
    assert!(
        0 < found && found < looked_up,
        "{found} of {looked_up} found"
    );
    // The memo started over on the run: it holds the run's last schedules
    // and none of its first.
    let (first, last) = (&pool[run..run + 16], &pool[pool.len() - 16..]);
    assert!(agrees(&mut fp, 0, last) && agrees(&mut fp, 0, first));
    assert_eq!(fp.hits().0, memoized + 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_fingerprinter_hashes_what_salted_fingerprint_hashes(
        first_task in 0usize..1000,
        tasks in 1usize..6,
        gpu in 0u8..2,
        lengths in prop::collection::vec(0usize..10, 1..40),
        salt in 0u64..u64::MAX,
        seed in 0u64..10_000,
    ) {
        let subgraphs = subgraphs();
        // Neighbouring tasks, CPU and GPU sketches alternating.
        let sketches: Vec<Sketch> = (0..tasks)
            .map(|k| {
                let sg = &subgraphs[(first_task + k) % subgraphs.len()];
                policy((gpu as usize + k) % 2 == 1).compile(sg)
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fp = Fingerprinter::default();
        let mut sent: Vec<ScheduleSequence> = Vec::new();
        for (r, &len) in lengths.iter().enumerate() {
            let sketch = &sketches[r % sketches.len()];
            let mut request: Vec<ScheduleSequence> = Vec::with_capacity(len);
            // Half fresh, a quarter repeated from an earlier request and a
            // quarter from earlier in this one.
            for _ in 0..len {
                let repeat = match rng.gen_range(0..4) {
                    2 if !sent.is_empty() => Some(&sent[rng.gen_range(0..sent.len())]),
                    3 if !request.is_empty() => Some(&request[rng.gen_range(0..request.len())]),
                    _ => None,
                };
                let s = match repeat {
                    Some(s) => s.clone(),
                    None => sketch.random_candidate(&mut rng).sequence,
                };
                request.push(s);
            }
            let salts = if r % 2 == 0 { [salt, 0] } else { [0, salt] };
            for salt in salts {
                prop_assert!(agrees(&mut fp, salt, &request));
            }
            sent.extend(request);
        }
    }
}
