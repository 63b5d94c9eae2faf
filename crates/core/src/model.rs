//! The TLP cost-model architecture (paper §4.4, Fig. 7).
//!
//! Input `[N, L, E_l]` features are up-sampled by linear layers, passed
//! through the backbone basic module (one 8-head self-attention layer or one
//! LSTM layer), then two residual blocks, final linear layers, and a sum over
//! the sequence produces the score. The red-box *backbone* (upsampling +
//! basic module) is shared across tasks; the blue-box *head* (output linears
//! + sum) is per-task.
//!
//! MTL-TLP (paper §5, Fig. 8) is this network with more heads, so there is
//! one model type: [`TlpModel`] owns the shared backbone and one thin head
//! per hardware platform, head 0 being the target platform;
//! [`TlpModel::new`] is the one-head case. Absent labels contribute no loss
//! and no head gradient: each mini-batch is drawn from one platform's
//! labelled pool (see [`crate::train`]).

use crate::config::{Backbone, TlpConfig};
use crate::features::FeatureBuf;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use tlp_nn::{
    ragged_tail_sums, Binding, Epilogue, Fwd, Graph, LayerNorm, Linear, Lstm,
    MultiHeadSelfAttention, ParamId, ParamStore, Ragged, ResidualBlock, Tensor, Var, Workspace,
    PAD_ROW,
};

/// The shared portion of the network: up-sampling linears + basic module +
/// residual blocks. Sharing the residual blocks keeps the per-task heads
/// small — the paper's "non-shared parameters fit hardware-dependent
/// features" are a thin slice on top of a hardware-independent trunk.
#[derive(Clone, Debug)]
pub struct TlpBackbone {
    up1: Linear,
    up2: Linear,
    module: BackboneModule,
    res: Vec<ResidualBlock>,
    /// Hidden width.
    pub hidden: usize,
}

#[derive(Clone, Debug)]
enum BackboneModule {
    Attention(MultiHeadSelfAttention),
    Lstm(Lstm),
    Transformer {
        attn: MultiHeadSelfAttention,
        ln1: LayerNorm,
        ff1: Linear,
        ff2: Linear,
        ln2: LayerNorm,
    },
}

impl TlpBackbone {
    /// Registers backbone parameters.
    pub fn new(store: &mut ParamStore, rng: &mut SmallRng, config: &TlpConfig) -> Self {
        let up1 = Linear::new(store, rng, "backbone.up1", config.emb_size, config.hidden);
        let up2 = Linear::new(store, rng, "backbone.up2", config.hidden, config.hidden);
        let module = match config.backbone {
            Backbone::Attention => BackboneModule::Attention(MultiHeadSelfAttention::new(
                store,
                rng,
                "backbone.attn",
                config.hidden,
                config.heads,
            )),
            Backbone::Lstm => BackboneModule::Lstm(Lstm::new(
                store,
                rng,
                "backbone.lstm",
                config.hidden,
                config.hidden,
            )),
            Backbone::Transformer => BackboneModule::Transformer {
                attn: MultiHeadSelfAttention::new(
                    store,
                    rng,
                    "backbone.tx.attn",
                    config.hidden,
                    config.heads,
                ),
                ln1: LayerNorm::new(store, "backbone.tx.ln1", config.hidden),
                ff1: Linear::new(
                    store,
                    rng,
                    "backbone.tx.ff1",
                    config.hidden,
                    config.hidden * 2,
                ),
                ff2: Linear::new(
                    store,
                    rng,
                    "backbone.tx.ff2",
                    config.hidden * 2,
                    config.hidden,
                ),
                ln2: LayerNorm::new(store, "backbone.tx.ln2", config.hidden),
            },
        };
        let res = (0..config.res_blocks)
            .map(|i| ResidualBlock::new(store, rng, &format!("backbone.res{i}"), config.hidden))
            .collect();
        TlpBackbone {
            up1,
            up2,
            module,
            res,
            hidden: config.hidden,
        }
    }

    /// The attention basic module, when this backbone uses one — the
    /// precondition for the fused inference path.
    pub(crate) fn attention_module(&self) -> Option<&MultiHeadSelfAttention> {
        match &self.module {
            BackboneModule::Attention(attn) => Some(attn),
            _ => None,
        }
    }

    /// Maps `[n, l, emb]` features to `[n, l, hidden]` context features.
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        let h = self.up1.forward(f, x);
        let h = f.g.relu(h);
        let h = self.up2.forward(f, h);
        let h = f.g.relu(h);
        let mut h = match &self.module {
            BackboneModule::Attention(attn) => {
                // Residual connection around the attention module keeps the
                // up-sampled features flowing to the head.
                let a = attn.forward(f, h);
                f.g.add(h, a)
            }
            BackboneModule::Lstm(lstm) => lstm.forward(f, h),
            BackboneModule::Transformer {
                attn,
                ln1,
                ff1,
                ff2,
                ln2,
            } => {
                // Post-norm transformer encoder layer.
                let a = attn.forward(f, h);
                let h1 = f.g.add(h, a);
                let h1 = ln1.forward(f, h1);
                let m = ff1.forward(f, h1);
                let m = f.g.relu(m);
                let m = ff2.forward(f, m);
                let h2 = f.g.add(h1, m);
                ln2.forward(f, h2)
            }
        };
        for block in &self.res {
            h = block.forward(f, h);
        }
        h
    }
}

/// The per-task portion: output linears + sequence sum. Deliberately thin so
/// a platform head can be fit with little labelled target data (paper §5.3).
#[derive(Clone, Debug)]
pub struct TlpHead {
    out1: Linear,
    out2: Linear,
}

impl TlpHead {
    /// Parameter-name prefix of head `i`: `head{i}.`. Every head —
    /// including the only head of a one-head model — registers under it,
    /// and the head partition, training and `tlp-continual` all ask this
    /// function rather than spelling the rule themselves.
    pub fn prefix(i: usize) -> String {
        format!("head{i}.")
    }

    /// Registers the parameters of head `i`.
    pub fn new(store: &mut ParamStore, rng: &mut SmallRng, i: usize, config: &TlpConfig) -> Self {
        let prefix = Self::prefix(i);
        let mid = (config.hidden / 2).max(1);
        TlpHead {
            out1: Linear::new(store, rng, &format!("{prefix}out1"), config.hidden, mid),
            out2: Linear::new(store, rng, &format!("{prefix}out2"), mid, 1),
        }
    }

    /// Maps `[n, l, hidden]` context features to `[n]` scores.
    pub fn forward(&self, f: &mut Fwd<'_>, h: Var) -> Var {
        let h = self.out1.forward(f, h);
        let h = f.g.relu(h);
        let h = self.out2.forward(f, h); // [n, l, 1]
        let shape = f.g.value(h).shape().to_vec();
        let (n, l) = (shape[0], shape[1]);
        let h = f.g.reshape(h, &[n, l]);
        f.g.sum_axis(h, 1)
    }
}

/// The TLP cost model: one shared backbone, one thin head per platform.
#[derive(Clone, Debug)]
pub struct TlpModel {
    /// Model/training hyper-parameters (shared by all heads).
    pub config: TlpConfig,
    /// All learnable parameters (backbone + every head).
    pub store: ParamStore,
    backbone: TlpBackbone,
    heads: Vec<TlpHead>,
}

impl TlpModel {
    /// Creates a one-head model with freshly initialized weights.
    pub fn new(config: TlpConfig) -> Self {
        TlpModel::with_heads(config, 1)
    }

    /// Creates a model with `n_tasks` heads; head 0 is the target platform.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` is zero.
    pub fn with_heads(config: TlpConfig, n_tasks: usize) -> Self {
        assert!(n_tasks > 0, "a model needs at least one head");
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let backbone = TlpBackbone::new(&mut store, &mut rng, &config);
        let heads = (0..n_tasks)
            .map(|i| TlpHead::new(&mut store, &mut rng, i, &config))
            .collect();
        TlpModel {
            config,
            store,
            backbone,
            heads,
        }
    }

    /// Number of tasks (heads).
    pub fn num_tasks(&self) -> usize {
        self.heads.len()
    }

    /// Every head's [`TlpHead::prefix`], in head order.
    pub fn head_prefixes(&self) -> Vec<String> {
        (0..self.num_tasks()).map(TlpHead::prefix).collect()
    }

    /// Returns a new model with one extra head appended (index
    /// [`TlpModel::num_tasks`] of `self`) — the continual-learning entry
    /// point for adapting to a hardware platform the model has never seen.
    ///
    /// The shared trunk and every existing head are copied *bitwise* from
    /// `self` (parameters are matched by registered name), so the grown
    /// model scores old platforms exactly like the original. The new head
    /// gets a fresh deterministic initialization drawn from the model
    /// config's seed, so growing is reproducible.
    pub fn grow_head(&self) -> TlpModel {
        let mut grown = TlpModel::with_heads(self.config.clone(), self.num_tasks() + 1);
        let old_by_name: HashMap<&str, ParamId> = self
            .store
            .ids()
            .map(|id| (self.store.name(id), id))
            .collect();
        let new_ids: Vec<ParamId> = grown.store.ids().collect();
        for id in new_ids {
            let name = grown.store.name(id).to_string();
            if let Some(&old_id) = old_by_name.get(name.as_str()) {
                *grown.store.value_mut(id) = self.store.value(old_id).clone();
            }
        }
        grown
    }

    /// Like [`TlpModel::grow_head`], but warm-starts the new head with a
    /// bitwise copy of head `src`'s parameters instead of a fresh random
    /// initialization.
    ///
    /// Before any adaptation the grown model therefore scores the new
    /// platform exactly as `src` scores its own — the head-level version of
    /// the paper's cross-hardware transfer: when the new device resembles a
    /// known one, fine-tuning from its head needs far fewer measurements
    /// than learning the head from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn grow_head_from(&self, src: usize) -> TlpModel {
        assert!(src < self.num_tasks(), "source head out of range");
        let mut grown = self.grow_head();
        let new = self.num_tasks();
        let (src_prefix, new_prefix) = (TlpHead::prefix(src), TlpHead::prefix(new));
        let src_by_suffix: HashMap<&str, ParamId> = self
            .head_param_ids(src)
            .into_iter()
            .map(|id| (&self.store.name(id)[src_prefix.len()..], id))
            .collect();
        for id in grown.head_param_ids(new) {
            let suffix = &grown.store.name(id)[new_prefix.len()..];
            let src_id = *src_by_suffix
                .get(suffix)
                .unwrap_or_else(|| panic!("head layout mismatch at {suffix}"));
            *grown.store.value_mut(id) = self.store.value(src_id).clone();
        }
        grown
    }

    /// Ids of the parameters belonging to head `task` (registered under
    /// [`TlpHead::prefix`]).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn head_param_ids(&self, task: usize) -> Vec<ParamId> {
        assert!(task < self.num_tasks(), "head index out of range");
        let prefix = TlpHead::prefix(task);
        self.store
            .ids()
            .filter(|&id| self.store.name(id).starts_with(&prefix))
            .collect()
    }

    /// Ids of the shared-trunk parameters: everything not owned by any
    /// head. Together with [`TlpModel::head_param_ids`] for every head this
    /// partitions the store — the invariant gradient-masking policies
    /// (frozen-trunk adaptation) rely on.
    pub fn trunk_param_ids(&self) -> Vec<ParamId> {
        let prefixes = self.head_prefixes();
        self.store
            .ids()
            .filter(|&id| {
                let name = self.store.name(id);
                !prefixes.iter().any(|p| name.starts_with(p.as_str()))
            })
            .collect()
    }

    /// Forward pass on a tape through the shared backbone and head `task`:
    /// `features` is `n × (seq_len·emb_size)` row-major; returns the `[n]`
    /// score node.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not `n` times the feature size.
    pub fn forward_task(
        &self,
        g: &mut Graph,
        bind: &mut Binding,
        features: &[f32],
        n: usize,
        task: usize,
    ) -> Var {
        let fs = self.config.seq_len * self.config.emb_size;
        assert_eq!(features.len(), n * fs, "feature batch shape mismatch");
        let x = g.constant(Tensor::from_vec(
            features.to_vec(),
            &[n, self.config.seq_len, self.config.emb_size],
        ));
        let mut f = Fwd::new(g, &self.store, bind);
        let h = self.backbone.forward(&mut f, x);
        self.heads[task].forward(&mut f, h)
    }

    /// Inference through head `task`: scores for a dense feature batch
    /// (higher = predicted faster) on the tape — the reference the fused
    /// path is checked against. The caller-owned [`Workspace`] recycles the
    /// tape storage across calls.
    pub fn predict_task_with(&self, ws: &mut Workspace, features: &[f32], task: usize) -> Vec<f32> {
        if features.is_empty() {
            return Vec::new();
        }
        let fs = self.config.seq_len * self.config.emb_size;
        let n = features.len() / fs;
        ws.reset();
        let scores = self.forward_task(&mut ws.graph, &mut ws.bind, features, n, task);
        ws.graph.value(scores).data().to_vec()
    }

    /// [`TlpModel::predict_task_with`] through the target-platform head.
    pub fn predict_with(&self, ws: &mut Workspace, features: &[f32]) -> Vec<f32> {
        self.predict_task_with(ws, features, 0)
    }

    /// Scores a [`FeatureBuf`] batch through head `task` into a caller-owned
    /// output vector — the zero-copy inference entry point the engine's
    /// workers use.
    ///
    /// For the attention backbone (the paper's default) this runs a fused,
    /// tape-free forward pass over the buffer's compact real rows: scratch
    /// comes from the workspace arena, so after warmup a micro-batch
    /// performs zero heap allocations, and scores are bit-identical to
    /// [`TlpModel::predict_task_with`] on the dense features (the fixed
    /// accumulation-order contract in `tlp_nn::kernels` plus the padding
    /// tail replay in `tlp_nn::infer`). LSTM and transformer backbones fall
    /// back to the tape path.
    ///
    /// # Panics
    ///
    /// Panics if the buffer shape disagrees with the model config or `task`
    /// is out of range.
    pub fn predict_task_into(
        &self,
        ws: &mut Workspace,
        feats: &FeatureBuf,
        task: usize,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if feats.is_empty() {
            return;
        }
        assert_eq!(feats.seq_len(), self.config.seq_len, "seq_len mismatch");
        assert_eq!(feats.emb_size(), self.config.emb_size, "emb_size mismatch");
        match self.backbone.attention_module() {
            Some(attn) => {
                fused_forward(
                    &self.store,
                    &self.backbone,
                    attn,
                    &self.heads[task],
                    ws,
                    feats,
                    out,
                );
            }
            None => {
                ws.reset();
                let scores =
                    self.forward_task(&mut ws.graph, &mut ws.bind, feats.data(), feats.len(), task);
                out.extend_from_slice(ws.graph.value(scores).data());
            }
        }
    }

    /// [`TlpModel::predict_task_into`] through the target-platform head.
    pub fn predict_into(&self, ws: &mut Workspace, feats: &FeatureBuf, out: &mut Vec<f32>) {
        self.predict_task_into(ws, feats, 0, out);
    }

    /// Total scalar weight count.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }
}

/// The fused, tape-free forward pass for attention backbones, operating on
/// the compact representation of a [`FeatureBuf`]: no padding rows, and up
/// to attention each distinct row of the micro-batch once (`tlp_nn::infer`).
///
/// Stage by stage this replays the dense tape pipeline — up1 → relu → up2 →
/// relu → attention + residual → residual blocks → head → sequence sum —
/// with every per-element accumulation in the same order, so scores are
/// bit-identical (verified by `predict_into_matches_tape_bitwise` below and
/// the engine equivalence suite). All scratch comes from the workspace
/// arena; after warmup the whole pass performs zero heap allocations.
fn fused_forward(
    store: &ParamStore,
    backbone: &TlpBackbone,
    attn: &MultiHeadSelfAttention,
    head: &TlpHead,
    ws: &mut Workspace,
    feats: &FeatureBuf,
    out: &mut Vec<f32>,
) {
    let e = feats.emb_size();
    let l = feats.seq_len();
    let hidden = backbone.hidden;
    let ragged = Ragged::new(feats.rows_used(), l);
    let r = ragged.total_rows();
    let c = ragged.candidates();
    let Workspace { arena, rows, .. } = ws;

    // Intern the real rows (a leading prefix of each candidate's dense
    // block): `x` receives each distinct row once — the all-zero padding row
    // first, as `PAD_ROW` — and `rows.row_of()` maps the `r` real rows,
    // candidate-major, onto them. This is the only data movement between
    // extraction and GEMM.
    let mut x = arena.take((r + 1) * e);
    rows.begin(r, e, &mut x);
    for row in feats.real_rows() {
        rows.intern(row, &mut x);
    }
    let d = x.len() / e;
    let row_of = rows.row_of();

    // Upsampling: relu(x·W + b), fused epilogue, once per distinct row.
    let mut h1 = arena.take(d * hidden);
    backbone
        .up1
        .infer_rows(store, &x, d, &mut h1, Epilogue::BiasRelu);
    let mut h2 = arena.take(d * hidden);
    backbone
        .up2
        .infer_rows(store, &h1, d, &mut h2, Epilogue::BiasRelu);

    // Attention over the ragged batch mixes each row with the rest of its
    // candidate, so from here on nothing is shared: every real row has its
    // own image and each candidate carries its own pad row (the last `c`
    // rows).
    let mut h = arena.take((r + c) * hidden);
    attn.infer_ragged(store, arena, &h2, row_of, &ragged, &mut h);
    // Residual connection around the module: h = up2 output + attention.
    let pads = std::iter::repeat_n(&PAD_ROW, c);
    for (dst, &id) in h.chunks_exact_mut(hidden).zip(row_of.iter().chain(pads)) {
        let src = &h2[id as usize * hidden..(id as usize + 1) * hidden];
        for (dv, &sv) in dst.iter_mut().zip(src) {
            *dv += sv;
        }
    }

    for block in &backbone.res {
        block.infer_rows(store, arena, &mut h, r + c);
    }

    // Head: out1 → relu → out2, then the per-candidate sequence sum with
    // the padding tail replayed.
    let mid = head.out1.out_dim();
    let mut t1 = arena.take((r + c) * mid);
    head.out1
        .infer_rows(store, &h, r + c, &mut t1, Epilogue::BiasRelu);
    let mut y = arena.take(r + c);
    head.out2
        .infer_rows(store, &t1, r + c, &mut y, Epilogue::Bias);
    ragged_tail_sums(&y, &ragged, out);

    arena.give(y);
    arena.give(t1);
    arena.give(h);
    arena.give(h2);
    arena.give(h1);
    arena.give(x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LossKind;

    #[test]
    fn forward_shapes() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let fs = cfg.seq_len * cfg.emb_size;
        let feats = vec![0.1f32; 3 * fs];
        let scores = model.predict_with(&mut Workspace::new(), &feats);
        assert_eq!(scores.len(), 3);
        // Identical inputs yield identical scores.
        assert!((scores[0] - scores[1]).abs() < 1e-6);
    }

    #[test]
    fn lstm_backbone_also_works() {
        let cfg = TlpConfig {
            backbone: Backbone::Lstm,
            loss: LossKind::Mse,
            ..TlpConfig::test_scale()
        };
        let model = TlpModel::new(cfg.clone());
        let fs = cfg.seq_len * cfg.emb_size;
        let scores = model.predict_with(&mut Workspace::new(), &vec![0.2f32; 2 * fs]);
        assert_eq!(scores.len(), 2);
    }

    #[test]
    fn transformer_backbone_works() {
        let cfg = TlpConfig {
            backbone: Backbone::Transformer,
            ..TlpConfig::test_scale()
        };
        let model = TlpModel::new(cfg.clone());
        let fs = cfg.seq_len * cfg.emb_size;
        let scores = model.predict_with(&mut Workspace::new(), &vec![0.3f32; 2 * fs]);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.is_finite()));
        // The encoder layer adds weights over the plain attention backbone.
        let plain = TlpModel::new(TlpConfig::test_scale());
        assert!(model.num_weights() > plain.num_weights());
    }

    #[test]
    fn different_inputs_different_scores() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let fs = cfg.seq_len * cfg.emb_size;
        let mut feats = vec![0.0f32; 2 * fs];
        for x in feats[..fs].iter_mut() {
            *x = 1.0;
        }
        let scores = model.predict_with(&mut Workspace::new(), &feats);
        assert!((scores[0] - scores[1]).abs() > 1e-6);
    }

    #[test]
    fn predict_empty_is_empty() {
        let model = TlpModel::new(TlpConfig::test_scale());
        assert!(model.predict_with(&mut Workspace::new(), &[]).is_empty());
    }

    #[test]
    fn predict_into_matches_tape_bitwise() {
        use crate::features::{FeatureBuf, FeatureExtractor};
        use rand::SeedableRng;
        use tlp_autotuner::{Candidate, SketchPolicy};
        use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence, Vocabulary};
        use tlp_workload::{AnchorOp, Subgraph};
        // Near-all-distinct rows with varying real-row counts, including an
        // empty schedule (all padding) and one cropped at seq_len.
        let distinct: Vec<ScheduleSequence> = (0..7usize)
            .map(|i| {
                (0..i)
                    .map(|j| {
                        ConcretePrimitive::new(PrimitiveKind::Split, "d")
                            .with_loops(["i"])
                            .with_ints([j as i64 + 1, (i + 1) as i64])
                    })
                    .collect()
            })
            .collect();
        // Random sketches of one task: mostly the same rows over and over.
        let sg = Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let sketches: Vec<ScheduleSequence> = (0..24)
            .map(|_| Candidate::random(&SketchPolicy::cpu(), &sg, &mut rng).sequence)
            .collect();
        // One candidate a copy of another: every one of its rows repeats.
        let mut with_copy = distinct.clone();
        with_copy.push(distinct[6].clone());
        for backbone in [Backbone::Attention, Backbone::Lstm, Backbone::Transformer] {
            let cfg = TlpConfig {
                backbone,
                ..TlpConfig::test_scale()
            };
            let ex = FeatureExtractor::with_vocab(
                Vocabulary::builder().build(),
                cfg.seq_len,
                cfg.emb_size,
            );
            let model = TlpModel::with_heads(cfg, 2);
            let mut ws = Workspace::new();
            let mut buf = FeatureBuf::new();
            for (seqs, min_repeats) in [(&distinct, 0.0), (&sketches, 0.75), (&with_copy, 0.2)] {
                ex.extract_batch_into(seqs, &mut buf);
                let seen: std::collections::BTreeSet<Vec<u32>> = buf
                    .real_rows()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect();
                let repeats = 1.0 - seen.len() as f64 / buf.real_rows().count() as f64;
                assert!(repeats >= min_repeats, "only {repeats} of rows repeat");
                for task in 0..2 {
                    let dense = model.predict_task_with(&mut ws, buf.data(), task);
                    let mut fused = Vec::new();
                    // Twice: the second call runs on a warmed arena.
                    for _ in 0..2 {
                        model.predict_task_into(&mut ws, &buf, task, &mut fused);
                        assert_eq!(dense.len(), fused.len());
                        for (i, (a, b)) in dense.iter().zip(&fused).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{backbone:?} head {task} score {i} differs: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn heads_share_backbone_but_differ() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::with_heads(cfg.clone(), 2);
        let fs = cfg.seq_len * cfg.emb_size;
        let feats = vec![0.3f32; fs];
        let mut ws = Workspace::new();
        let s0 = model.predict_task_with(&mut ws, &feats, 0);
        let s1 = model.predict_task_with(&mut ws, &feats, 1);
        // Different random head init → different outputs for same input.
        assert!((s0[0] - s1[0]).abs() > 1e-7);
        // The head-0 form is exactly head 0.
        assert_eq!(
            model.predict_with(&mut ws, &feats)[0].to_bits(),
            s0[0].to_bits()
        );
    }

    fn assert_heads_bitwise_equal(a: &TlpModel, b: &TlpModel, heads: usize, feats: &[f32]) {
        let mut ws = Workspace::new();
        for task in 0..heads {
            let x = a.predict_task_with(&mut ws, feats, task);
            let y = b.predict_task_with(&mut ws, feats, task);
            for (x, y) in x.iter().zip(&y) {
                assert_eq!(x.to_bits(), y.to_bits(), "head {task} drifted");
            }
        }
    }

    #[test]
    fn grow_head_preserves_old_heads_bitwise() {
        let cfg = TlpConfig::test_scale();
        let fs = cfg.seq_len * cfg.emb_size;
        let feats: Vec<f32> = (0..2 * fs).map(|i| (i % 13) as f32 * 0.05).collect();
        // A one-head model grows exactly like a multi-head one.
        for heads in [1usize, 2] {
            let base = TlpModel::with_heads(cfg.clone(), heads);
            let grown = base.grow_head();
            assert_eq!(grown.num_tasks(), heads + 1);
            assert_heads_bitwise_equal(&base, &grown, heads, &feats);
            // The new head is freshly initialized, not a copy of head 0, and
            // growing is deterministic.
            let mut ws = Workspace::new();
            let s0 = grown.predict_task_with(&mut ws, &feats, 0);
            let new = grown.predict_task_with(&mut ws, &feats, heads);
            assert!((s0[0] - new[0]).abs() > 1e-7);
            let again = base.grow_head().predict_task_with(&mut ws, &feats, heads);
            assert_eq!(new[0].to_bits(), again[0].to_bits());
        }
    }

    #[test]
    fn grow_head_from_warm_starts_the_new_head() {
        let cfg = TlpConfig::test_scale();
        let fs = cfg.seq_len * cfg.emb_size;
        let feats: Vec<f32> = (0..2 * fs).map(|i| (i % 11) as f32 * 0.07).collect();
        for heads in [1usize, 2] {
            let base = TlpModel::with_heads(cfg.clone(), heads);
            let src = heads - 1;
            let grown = base.grow_head_from(src);
            assert_eq!(grown.num_tasks(), heads + 1);
            // The new head scores exactly like its source head...
            let mut ws = Workspace::new();
            let from = grown.predict_task_with(&mut ws, &feats, src);
            let new = grown.predict_task_with(&mut ws, &feats, heads);
            for (x, y) in from.iter().zip(&new) {
                assert_eq!(x.to_bits(), y.to_bits(), "warm start is not bitwise");
            }
            // ...and old heads are untouched relative to the base model.
            assert_heads_bitwise_equal(&base, &grown, heads, &feats);
        }
    }

    #[test]
    fn param_ids_partition_the_store() {
        // 11 heads so head 1's prefix must not swallow head 10's.
        let model = TlpModel::with_heads(TlpConfig::test_scale(), 11);
        let mut seen = vec![0usize; model.store.len()];
        for id in model.trunk_param_ids() {
            seen[model.store.ids().position(|x| x == id).unwrap()] += 1;
        }
        for t in 0..model.num_tasks() {
            let ids = model.head_param_ids(t);
            assert!(!ids.is_empty(), "head {t} owns no parameters");
            for id in ids {
                seen[model.store.ids().position(|x| x == id).unwrap()] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "trunk/head ids must partition the store exactly once: {seen:?}"
        );
    }

    #[test]
    fn weight_count_scales_with_hidden() {
        let small = TlpModel::new(TlpConfig::test_scale());
        let big = TlpModel::new(TlpConfig::default());
        assert!(big.num_weights() > small.num_weights());
    }
}
