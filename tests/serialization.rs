//! Serde round-trips of the data-structure types (C-SERDE): datasets,
//! schedules, reports and parameters must survive JSON serialization so
//! experiment artifacts can be cached and inspected.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp_autotuner::{Candidate, ScheduleDecision, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_nn::{ParamStore, Tensor};
use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};
use tlp_workload::{resnet50, AnchorOp, Subgraph};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn schedule_sequence_roundtrips() {
    let seq: ScheduleSequence = [
        ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints([64, 8, 4]),
        ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
            .with_loops(["i.0"])
            .with_extras(["parallel"]),
    ]
    .into_iter()
    .collect();
    let back: ScheduleSequence = roundtrip(&seq);
    assert_eq!(back, seq);
    assert_eq!(back.fingerprint(), seq.fingerprint());
}

#[test]
fn platform_and_subgraph_roundtrip() {
    for p in Platform::all() {
        assert_eq!(roundtrip(&p), p);
    }
    let sg = Subgraph::new("d", AnchorOp::Dense { m: 8, n: 8, k: 8 });
    assert_eq!(roundtrip(&sg), sg);
}

#[test]
fn network_roundtrips() {
    let net = resnet50(1, 224);
    let back: tlp_workload::Network = roundtrip(&net);
    assert_eq!(back, net);
    assert_eq!(back.total_flops(), net.total_flops());
}

#[test]
fn candidate_and_decision_roundtrip() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let sg = Subgraph::new(
        "d",
        AnchorOp::Dense {
            m: 64,
            n: 64,
            k: 64,
        },
    );
    let c = Candidate::random(&SketchPolicy::cpu(), &sg, &mut rng);
    let back: Candidate = roundtrip(&c);
    assert_eq!(back, c);
    let d: ScheduleDecision = roundtrip(&c.decision);
    assert_eq!(d, c.decision);
}

#[test]
fn param_store_roundtrip_preserves_weights() {
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::from_vec(vec![1.5, -2.5, 0.0], &[3]));
    let back: ParamStore = roundtrip(&store);
    assert_eq!(back.value(w), store.value(w));
    assert_eq!(back.name(w), "w");
}

#[test]
fn dataset_roundtrips() {
    use tlp_dataset::{generate_dataset_for, Dataset, DatasetConfig};
    let ds = generate_dataset_for(
        &[tlp_workload::bert_tiny(1, 64)],
        &[],
        &[Platform::i7_10510u()],
        &DatasetConfig {
            programs_per_task: 6,
            ..DatasetConfig::default()
        },
    );
    let back: Dataset = roundtrip(&ds);
    assert_eq!(back.num_programs(), ds.num_programs());
    assert_eq!(back.tasks[0].programs, ds.tasks[0].programs);
}

#[test]
fn tuning_report_roundtrips() {
    use tlp_autotuner::{tune_network, EvolutionConfig, RandomModel, TuningOptions, TuningReport};
    let net = tlp_workload::bert_tiny(1, 64);
    let mut model = RandomModel::new(1);
    let opts = TuningOptions {
        rounds: net.num_tasks(),
        programs_per_round: 2,
        evolution: EvolutionConfig {
            population: 8,
            generations: 1,
            ..EvolutionConfig::default()
        },
        seed: 3,
        ..TuningOptions::default()
    };
    let report = tune_network(&net, &Platform::i7_10510u(), &mut model, &opts);
    let back: TuningReport = roundtrip(&report);
    assert_eq!(back.rounds.len(), report.rounds.len());
    assert_eq!(back.final_latency_s(), report.final_latency_s());
}
