//! GPT/BERT-style self-supervised pretraining baselines (paper §6.2.2,
//! Table 8).
//!
//! The paper compares MTL against pretraining a language model on *unlabeled*
//! schedule-primitive sequences, then fine-tuning a regression head with the
//! small labelled target-platform set — and finds pretraining inferior at
//! this feature scale (the LM's weight count dwarfs the input information).
//!
//! Schedules are tokenized (kind tokens, log-bucketed number tokens, name
//! tokens), encoded by a small transformer; GPT pretrains with causal
//! next-token prediction, BERT with masked-token prediction (the full-token
//! prediction variant: every position is predicted, 15% are corrupted).

use crate::trainer::{fit, grouped_batches, TrainOptions, TrainReport, Trainable};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tlp_nn::{
    Binding, Embedding, Fwd, Graph, Linear, LrSchedule, MultiHeadSelfAttention, ParamId,
    ParamStore, Tensor, Var, Workspace,
};
use tlp_schedule::{preprocess, Element, ScheduleSequence, Vocabulary};

/// Reserved token ids.
pub const PAD: usize = 0;
/// Mask token (BERT corruption).
pub const MASK: usize = 1;
/// Beginning-of-sequence token.
pub const BOS: usize = 2;
const KIND_BASE: usize = 3;
const NUM_BASE: usize = KIND_BASE + tlp_schedule::PrimitiveKind::ALL.len();
const NUM_BUCKETS: usize = 20;
const NAME_BASE: usize = NUM_BASE + NUM_BUCKETS;

/// Pretraining objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PretrainKind {
    /// Causal next-token prediction.
    Gpt,
    /// Masked-token prediction.
    Bert,
}

/// Hyper-parameters of the pretrained LM.
#[derive(Clone, Debug, PartialEq)]
pub struct PretrainConfig {
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Attention layers.
    pub layers: usize,
    /// Token-sequence length (cropped/padded).
    pub max_len: usize,
    /// Cap on distinct name tokens.
    pub name_cap: usize,
    /// Pretraining epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Batch size.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            d_model: 32,
            heads: 4,
            layers: 2,
            max_len: 48,
            name_cap: 64,
            epochs: 2,
            learning_rate: 1e-3,
            batch_size: 64,
            seed: 0x6e7,
        }
    }
}

impl PretrainConfig {
    /// Total vocabulary size.
    pub fn vocab_size(&self) -> usize {
        NAME_BASE + self.name_cap
    }
}

/// Tokenizes one schedule sequence: `BOS`, then per primitive its kind token
/// followed by one token per parameter element.
pub fn tokenize(seq: &ScheduleSequence, vocab: &Vocabulary, cfg: &PretrainConfig) -> Vec<usize> {
    let mut out = Vec::with_capacity(cfg.max_len);
    out.push(BOS);
    'outer: for p in seq.iter() {
        let a = preprocess(p);
        if out.len() >= cfg.max_len {
            break;
        }
        out.push(KIND_BASE + a.kind.index());
        for e in a.elements {
            if out.len() >= cfg.max_len {
                break 'outer;
            }
            let tok = match e {
                Element::Num(n) => {
                    let bucket = (1.0 + n.max(0.0)).log2().floor() as usize;
                    NUM_BASE + bucket.min(NUM_BUCKETS - 1)
                }
                Element::Name(s) => NAME_BASE + (vocab.token(&s) as usize).min(cfg.name_cap - 1),
            };
            out.push(tok);
        }
    }
    out.resize(cfg.max_len, PAD);
    out
}

/// A small transformer LM over schedule tokens.
#[derive(Debug)]
pub struct PretrainedLm {
    /// Configuration.
    pub config: PretrainConfig,
    /// Objective used for pretraining.
    pub kind: PretrainKind,
    /// All parameters (encoder + LM head + regression head).
    pub store: ParamStore,
    emb: Embedding,
    pos: ParamId,
    attns: Vec<MultiHeadSelfAttention>,
    lm_head: Linear,
    reg_head: Linear,
}

impl PretrainedLm {
    /// Creates a fresh LM.
    pub fn new(kind: PretrainKind, config: PretrainConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let emb = Embedding::new(
            &mut store,
            &mut rng,
            "lm.emb",
            config.vocab_size(),
            config.d_model,
        );
        let pos = store.add(
            "lm.pos",
            tlp_nn::init::uniform(&mut rng, &[config.max_len * config.d_model], 0.05),
        );
        let attns = (0..config.layers)
            .map(|i| {
                MultiHeadSelfAttention::new(
                    &mut store,
                    &mut rng,
                    &format!("lm.attn{i}"),
                    config.d_model,
                    config.heads,
                )
            })
            .collect();
        let lm_head = Linear::new(
            &mut store,
            &mut rng,
            "lm.head",
            config.d_model,
            config.vocab_size(),
        );
        let reg_head = Linear::new(&mut store, &mut rng, "lm.reg", config.d_model, 1);
        PretrainedLm {
            config,
            kind,
            store,
            emb,
            pos,
            attns,
            lm_head,
            reg_head,
        }
    }

    /// Total weight count (the paper's point: huge relative to 25×22 inputs).
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    fn causal_mask(l: usize) -> Tensor {
        let mut m = Tensor::zeros(&[l, l]);
        for i in 0..l {
            for j in (i + 1)..l {
                *m.at_mut(&[i, j]) = -1e9;
            }
        }
        m
    }

    /// Encodes a flat token batch (`n × max_len`) into `[n, max_len, d]`.
    fn encode(&self, g: &mut Graph, bind: &mut Binding, tokens: &[usize], n: usize) -> Var {
        let l = self.config.max_len;
        let d = self.config.d_model;
        let mut f = Fwd::new(g, &self.store, bind);
        let e = self.emb.forward(&mut f, tokens); // [n*l, d]
        let e = f.g.reshape(e, &[n, l * d]);
        let pos = f.param(self.pos);
        let e = f.g.add_bias(e, pos);
        let mut h = f.g.reshape(e, &[n, l, d]);
        let mask = match self.kind {
            PretrainKind::Gpt => Some(Self::causal_mask(l)),
            PretrainKind::Bert => None,
        };
        for attn in &self.attns {
            let a = attn.forward_masked(&mut f, h, mask.as_ref());
            h = f.g.add(h, a); // residual
        }
        h
    }

    /// The LM baselines' recipe: this config's sizes at a constant learning
    /// rate.
    fn options(&self, seed_salt: u64) -> TrainOptions {
        TrainOptions {
            epochs: self.config.epochs,
            batch_size: self.config.batch_size,
            learning_rate: self.config.learning_rate,
            lr_schedule: LrSchedule::Constant,
            seed: self.config.seed ^ seed_salt,
        }
    }

    /// Pretrains on unlabeled token sequences with this config's options.
    pub fn pretrain(&mut self, corpus: &[Vec<usize>]) -> TrainReport {
        let options = self.options(0x9e);
        let mut task = LmPretrainTask {
            lm: self,
            corpus,
            batch_size: options.batch_size.max(1),
        };
        fit(&options, &mut task)
    }

    /// Regression scores via mean-pooled encoder output (the downstream
    /// cost-model head).
    pub fn predict(&self, tokens: &[usize]) -> Vec<f32> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let n = tokens.len() / self.config.max_len;
        let mut g = Graph::new();
        let mut bind = Binding::new();
        let scores = self.forward_regression(&mut g, &mut bind, tokens, n);
        g.value(scores).data().to_vec()
    }

    fn forward_regression(
        &self,
        g: &mut Graph,
        bind: &mut Binding,
        tokens: &[usize],
        n: usize,
    ) -> Var {
        let l = self.config.max_len;
        let h = self.encode(g, bind, tokens, n);
        let pooled = g.sum_axis(h, 1); // [n, d]
        let pooled = g.scale(pooled, 1.0 / l as f32);
        let mut f = Fwd::new(g, &self.store, bind);
        let y = self.reg_head.forward(&mut f, pooled);
        g.reshape(y, &[n])
    }

    /// Fine-tunes the regression head (and encoder) on labelled token groups
    /// with rank loss, using this config's options for `epochs` epochs.
    pub fn fine_tune(&mut self, groups: &[(Vec<usize>, Vec<f32>)], epochs: usize) -> TrainReport {
        let options = self.options(0xF1).with_epochs(epochs);
        let mut task = FineTuneTask {
            lm: self,
            groups,
            batch_size: options.batch_size.max(2),
        };
        fit(&options, &mut task)
    }
}

/// One LM-objective micro-batch: flat `n × max_len` input/target tokens.
#[derive(Clone, Debug)]
struct LmBatch {
    inputs: Vec<usize>,
    targets: Vec<usize>,
    n: usize,
}

/// [`Trainable`] adapter for LM pretraining: shuffled corpus chunks; BERT
/// corruption is drawn from the shuffle RNG while batches are built.
struct LmPretrainTask<'a> {
    lm: &'a mut PretrainedLm,
    corpus: &'a [Vec<usize>],
    batch_size: usize,
}

impl Trainable for LmPretrainTask<'_> {
    type Batch = LmBatch;

    fn store(&self) -> &ParamStore {
        &self.lm.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.lm.store
    }

    fn epoch_batches(&self, rng: &mut SmallRng) -> Vec<Self::Batch> {
        let l = self.lm.config.max_len;
        let mut order: Vec<usize> = (0..self.corpus.len()).collect();
        order.shuffle(rng);
        let mut out = Vec::new();
        for chunk in order.chunks(self.batch_size) {
            let mut inputs = Vec::with_capacity(chunk.len() * l);
            let mut targets = Vec::with_capacity(chunk.len() * l);
            for &ci in chunk {
                let toks = &self.corpus[ci];
                match self.lm.kind {
                    PretrainKind::Gpt => {
                        // Input t predicts token t+1 (last predicts PAD).
                        inputs.extend_from_slice(toks);
                        targets.extend_from_slice(&toks[1..]);
                        targets.push(PAD);
                    }
                    PretrainKind::Bert => {
                        // Corrupt 15%; predict the original everywhere.
                        for &t in toks {
                            inputs.push(if rng.gen_bool(0.15) { MASK } else { t });
                            targets.push(t);
                        }
                    }
                }
            }
            out.push(LmBatch {
                inputs,
                targets,
                n: chunk.len(),
            });
        }
        out
    }

    fn batch_samples(&self, batch: &Self::Batch) -> usize {
        batch.n
    }

    fn loss(&self, ws: &mut Workspace, batch: &Self::Batch) -> Var {
        let l = self.lm.config.max_len;
        let h = self
            .lm
            .encode(&mut ws.graph, &mut ws.bind, &batch.inputs, batch.n);
        let h2 = ws.graph.reshape(h, &[batch.n * l, self.lm.config.d_model]);
        let logits = {
            let mut f = Fwd::new(&mut ws.graph, &self.lm.store, &mut ws.bind);
            self.lm.lm_head.forward(&mut f, h2)
        };
        let logp = ws.graph.log_softmax(logits);
        ws.graph.nll_loss(logp, &batch.targets)
    }
}

/// One rank-loss fine-tuning micro-batch: flat tokens + aligned labels.
#[derive(Clone, Debug)]
struct FtBatch {
    toks: Vec<usize>,
    labels: Vec<f32>,
}

/// [`Trainable`] adapter for rank fine-tuning over labelled token groups.
struct FineTuneTask<'a> {
    lm: &'a mut PretrainedLm,
    groups: &'a [(Vec<usize>, Vec<f32>)],
    batch_size: usize,
}

impl Trainable for FineTuneTask<'_> {
    type Batch = FtBatch;

    fn store(&self) -> &ParamStore {
        &self.lm.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.lm.store
    }

    fn epoch_batches(&self, rng: &mut SmallRng) -> Vec<Self::Batch> {
        let l = self.lm.config.max_len;
        let lens: Vec<usize> = self.groups.iter().map(|(_, labels)| labels.len()).collect();
        let mut out = Vec::new();
        grouped_batches(&lens, self.batch_size, rng, |gi, idx| {
            let (tokens, labels) = &self.groups[gi];
            let mut toks = Vec::with_capacity(idx.len() * l);
            for &i in idx {
                toks.extend_from_slice(&tokens[i * l..(i + 1) * l]);
            }
            out.push(FtBatch {
                toks,
                labels: idx.iter().map(|&i| labels[i]).collect(),
            });
        });
        out
    }

    fn batch_samples(&self, batch: &Self::Batch) -> usize {
        batch.labels.len()
    }

    fn loss(&self, ws: &mut Workspace, batch: &Self::Batch) -> Var {
        let scores = self.lm.forward_regression(
            &mut ws.graph,
            &mut ws.bind,
            &batch.toks,
            batch.labels.len(),
        );
        tlp_nn::lambda_rank_loss(&mut ws.graph, scores, &batch.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind};

    fn vocab() -> Vocabulary {
        let mut b = Vocabulary::builder();
        for w in ["dense", "i", "j", "k", "parallel"] {
            b.observe(w);
        }
        b.build()
    }

    fn seq() -> ScheduleSequence {
        [
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([8, 4]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0"])
                .with_extras(["parallel"]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn tokenize_shape_and_range() {
        let cfg = PretrainConfig::default();
        let toks = tokenize(&seq(), &vocab(), &cfg);
        assert_eq!(toks.len(), cfg.max_len);
        assert_eq!(toks[0], BOS);
        assert!(toks.iter().all(|&t| t < cfg.vocab_size()));
        assert!(toks.contains(&PAD), "short sequence is padded");
    }

    #[test]
    fn gpt_pretraining_reduces_loss() {
        let cfg = PretrainConfig {
            max_len: 16,
            d_model: 16,
            heads: 2,
            layers: 1,
            epochs: 5,
            ..PretrainConfig::default()
        };
        let v = vocab();
        let corpus: Vec<Vec<usize>> = (0..24).map(|_| tokenize(&seq(), &v, &cfg)).collect();
        let mut lm = PretrainedLm::new(PretrainKind::Gpt, cfg);
        let losses = lm.pretrain(&corpus).epoch_losses();
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn bert_pretraining_runs() {
        let cfg = PretrainConfig {
            max_len: 16,
            d_model: 16,
            heads: 2,
            layers: 1,
            epochs: 2,
            ..PretrainConfig::default()
        };
        let v = vocab();
        let corpus: Vec<Vec<usize>> = (0..16).map(|_| tokenize(&seq(), &v, &cfg)).collect();
        let mut lm = PretrainedLm::new(PretrainKind::Bert, cfg);
        let losses = lm.pretrain(&corpus).epoch_losses();
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn fine_tune_and_predict() {
        let cfg = PretrainConfig {
            max_len: 16,
            d_model: 16,
            heads: 2,
            layers: 1,
            epochs: 1,
            ..PretrainConfig::default()
        };
        let v = vocab();
        let toks = tokenize(&seq(), &v, &cfg);
        let mut group_tokens = Vec::new();
        for _ in 0..8 {
            group_tokens.extend_from_slice(&toks);
        }
        let labels: Vec<f32> = (0..8).map(|i| (i + 1) as f32 / 8.0).collect();
        let mut lm = PretrainedLm::new(PretrainKind::Gpt, cfg.clone());
        let losses = lm
            .fine_tune(&[(group_tokens.clone(), labels)], 3)
            .epoch_losses();
        assert_eq!(losses.len(), 3);
        let preds = lm.predict(&group_tokens);
        assert_eq!(preds.len(), 8);
    }
}
