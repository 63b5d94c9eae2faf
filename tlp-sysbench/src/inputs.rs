//! Seeded inputs and the correctness oracle. The program under test sees only
//! what is generated here; `--seed` reaches nothing else.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use tlp::engine::EngineConfig;
use tlp::features::{FeatureBuf, FeatureExtractor};
use tlp::search::TlpScorer;
use tlp::{FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, CostModel, ScoreRequest, SearchTask, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_nn::Workspace;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_workload::{AnchorOp, Subgraph};

use crate::stats::Digest;

/// Bits of one reference score (`None` = unscoreable candidate).
pub type ScoreBits = Option<u32>;

pub fn bits(score: Option<f32>) -> ScoreBits {
    score.map(f32::to_bits)
}

/// The fixed scoring task: Conv2d 1×64×56×56, 3×3, on the i7-10510U.
pub fn conv_task() -> SearchTask {
    SearchTask::new(
        Subgraph::new(
            "c",
            AnchorOp::Conv2d {
                n: 1,
                cin: 64,
                hw: 56,
                cout: 64,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
        ),
        Platform::i7_10510u(),
    )
}

/// A different task for serving warm-ups: the task is part of the score-cache
/// key, so warming on it leaves the measured pool's entries cold.
pub fn warmup_task() -> SearchTask {
    SearchTask::new(
        Subgraph::new(
            "warm",
            AnchorOp::Dense {
                m: 160,
                n: 96,
                k: 96,
            },
        ),
        Platform::i7_10510u(),
    )
}

/// `n` random CPU candidates for `task`, pairwise distinct (so a cold pass
/// really is all-miss) and verifier-clean (so admission refuses none).
pub fn pool(task: &SearchTask, n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = SketchPolicy::cpu();
    let opts = tlp_verify::VerifyOptions {
        gpu: Some(false),
        ..tlp_verify::VerifyOptions::default()
    };
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let seq = Candidate::random(&policy, &task.subgraph, &mut rng).sequence;
        if seen.insert(seq.fingerprint())
            && !tlp_verify::verify_with(&task.subgraph, &seq, &opts).has_errors()
        {
            out.push(seq);
        }
    }
    out
}

/// The frozen extractor, its vocabulary observed from `schedules`.
pub fn extractor_for<'a>(
    schedules: impl IntoIterator<Item = &'a ScheduleSequence>,
) -> FeatureExtractor {
    let mut vocab = Vocabulary::builder();
    for s in schedules {
        for p in s.iter() {
            vocab.observe(&p.stage);
            p.loop_vars.iter().for_each(|v| vocab.observe(v));
            p.extras.iter().for_each(|e| vocab.observe(e));
        }
    }
    let cfg = TlpConfig::default();
    FeatureExtractor::with_vocab(vocab.build(), cfg.seq_len, cfg.emb_size)
}

/// The default 25×22 / hidden-48 seeded model over `extractor`.
pub fn scorer(extractor: FeatureExtractor) -> TlpScorer {
    TlpScorer {
        model: TlpModel::new(TlpConfig::default()),
        extractor,
    }
}

/// How many table entries are cross-checked against the dense tape forward.
const CROSS_CHECK: usize = 256;

/// Reference scores for `pool`, from a private single-threaded, uncached
/// model — never from the engine configuration under test. The first
/// [`CROSS_CHECK`] entries are themselves checked against the dense tape
/// forward `TlpModel::predict_with`, which shares no inference code with the
/// fused path the engine runs.
///
/// # Errors
///
/// Returns the first disagreement between the two reference paths.
pub fn oracle(task: &SearchTask, pool: &[ScheduleSequence]) -> Result<Vec<ScoreBits>, String> {
    let reference = FeatureModel::with_engine(
        scorer(extractor_for(pool)),
        EngineConfig::sequential_uncached(),
    );
    let mut table = Vec::with_capacity(pool.len());
    for chunk in pool.chunks(512) {
        let batch = reference.predict(ScoreRequest::new(task, chunk));
        table.extend(
            batch
                .scores()
                .zip(&batch.valid)
                .map(|(s, &ok)| ok.then_some(s.to_bits())),
        );
    }
    let head = &pool[..pool.len().min(CROSS_CHECK)];
    let s = reference.scorer();
    let mut feats = FeatureBuf::new();
    s.extractor.extract_batch_into(head, &mut feats);
    let dense = s.model.predict_with(&mut Workspace::new(), feats.data());
    for (i, (d, t)) in dense.iter().zip(&table).enumerate() {
        if Some(d.to_bits()) != *t {
            return Err(format!(
                "oracle entry {i}: engine reference {t:?} != dense tape forward {:#x}",
                d.to_bits()
            ));
        }
    }
    Ok(table)
}

/// Digest of an oracle table: equal across commits for one seed as long as
/// inputs, features and model arithmetic are unchanged.
pub fn table_digest(table: &[ScoreBits]) -> f64 {
    let mut d = Digest::new();
    for t in table {
        d.word(t.map_or(u64::MAX, u64::from));
    }
    d.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_distinct_and_oracle_agrees_with_dense_forward() {
        let task = conv_task();
        let a = pool(&task, 300, 9);
        assert_eq!(a, pool(&task, 300, 9), "same seed, same inputs");
        assert_ne!(a, pool(&task, 300, 10));
        let fps: BTreeSet<u64> = a.iter().map(ScheduleSequence::fingerprint).collect();
        assert_eq!(fps.len(), a.len());
        let table = oracle(&task, &a).expect("the two reference paths agree");
        assert_eq!(table.len(), a.len());
        assert!(table.iter().all(Option::is_some));
        assert_eq!(table_digest(&table), table_digest(&table.clone()));
    }
}
