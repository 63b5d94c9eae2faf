//! Neural network layers used by the TLP cost models.
//!
//! Layers own [`ParamId`]s registered in a [`ParamStore`]; their `forward`
//! methods run on a per-step [`Fwd`] context bundling the autograd tape,
//! the store, and the parameter binding.

use crate::graph::{Graph, Var};
use crate::infer::{Ragged, PAD_ROW};
use crate::init::{uniform, xavier_uniform};
use crate::kernels::{self, gemm_ld, Epilogue};
use crate::params::{Binding, ParamId, ParamStore};
use crate::tensor::Tensor;
use crate::workspace::Arena;
use rand::rngs::SmallRng;

/// Forward-pass context: the tape, the parameter store, and the binding
/// that maps parameters to tape leaves.
#[derive(Debug)]
pub struct Fwd<'a> {
    /// The autograd tape for this step.
    pub g: &'a mut Graph,
    /// The model parameters.
    pub store: &'a ParamStore,
    /// The per-tape parameter binding cache.
    pub bind: &'a mut Binding,
}

impl<'a> Fwd<'a> {
    /// Creates a forward context.
    pub fn new(g: &'a mut Graph, store: &'a ParamStore, bind: &'a mut Binding) -> Self {
        Fwd { g, store, bind }
    }

    /// Binds a parameter into the tape.
    pub fn param(&mut self, id: ParamId) -> Var {
        self.bind.var(self.g, self.store, id)
    }
}

/// Fully connected layer `y = x·W + b` applied over the last axis.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a linear layer's parameters.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SmallRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), xavier_uniform(rng, in_dim, out_dim));
        let b = store.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to `x` of shape `[.., in_dim]`.
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        let shape = f.g.value(x).shape().to_vec();
        let Some(&last) = shape.last() else {
            panic!("linear input must have rank >= 1");
        };
        assert_eq!(last, self.in_dim, "linear input width mismatch");
        let rows: usize = shape[..shape.len() - 1].iter().product();
        let x2 = f.g.reshape(x, &[rows, self.in_dim]);
        let w = f.param(self.w);
        let b = f.param(self.b);
        let y = f.g.matmul(x2, w);
        let y = f.g.add_bias(y, b);
        let mut out_shape = shape;
        if let Some(d) = out_shape.last_mut() {
            *d = self.out_dim;
        }
        f.g.reshape(y, &out_shape)
    }

    /// Fused tape-free inference: `out = epilogue(x·W + b)` over `rows`
    /// rows of width `in_dim`, bit-identical to the `matmul → add_bias`
    /// (→ `relu`) tape sequence.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatches.
    pub fn infer_rows(
        &self,
        store: &ParamStore,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        ep: Epilogue,
    ) {
        let w = store.value(self.w);
        let b = store.value(self.b);
        kernels::gemm_bias(
            x,
            w.data(),
            b.data(),
            out,
            rows,
            self.in_dim,
            self.out_dim,
            ep,
        );
    }
}

/// Multi-head scaled-dot-product self-attention over `[N, L, E]` inputs.
///
/// One layer of this module is the paper's default backbone basic module
/// (TLP §4.4: a single self-attention layer with 8 heads suffices).
#[derive(Clone, Debug)]
pub struct MultiHeadSelfAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    out: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadSelfAttention {
    /// Registers attention parameters; `dim` must be divisible by `heads`.
    ///
    /// # Panics
    ///
    /// Panics if `dim % heads != 0`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SmallRng,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must be divisible by heads"
        );
        MultiHeadSelfAttention {
            q: Linear::new(store, rng, &format!("{name}.q"), dim, dim),
            k: Linear::new(store, rng, &format!("{name}.k"), dim, dim),
            v: Linear::new(store, rng, &format!("{name}.v"), dim, dim),
            out: Linear::new(store, rng, &format!("{name}.out"), dim, dim),
            heads,
            dim,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model width (embedding dimension).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies self-attention to `x` of shape `[n, l, dim]`.
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        self.forward_masked(f, x, None)
    }

    /// Applies self-attention with an optional additive attention mask of
    /// shape `[l, l]` (e.g. a causal mask with `-1e9` above the diagonal).
    pub fn forward_masked(&self, f: &mut Fwd<'_>, x: Var, mask: Option<&Tensor>) -> Var {
        let shape = f.g.value(x).shape().to_vec();
        assert_eq!(shape.len(), 3, "attention input must be [n, l, e]");
        let (n, l, e) = (shape[0], shape[1], shape[2]);
        assert_eq!(e, self.dim, "attention width mismatch");
        let h = self.heads;
        let dh = e / h;

        let q = self.q.forward(f, x);
        let k = self.k.forward(f, x);
        let v = self.v.forward(f, x);

        // [n, l, e] -> [n*h, l, dh]
        let split = |f: &mut Fwd<'_>, t: Var| {
            let t = f.g.reshape(t, &[n, l, h, dh]);
            let t = f.g.permute(t, &[0, 2, 1, 3]);
            f.g.reshape(t, &[n * h, l, dh])
        };
        let qs = split(f, q);
        let ks = split(f, k);
        let vs = split(f, v);

        let kt = f.g.permute(ks, &[0, 2, 1]); // [n*h, dh, l]
        let scores = f.g.bmm(qs, kt); // [n*h, l, l]
        let scale = 1.0 / (dh as f32).sqrt();
        let attn = if let Some(m) = mask {
            assert_eq!(m.shape(), &[l, l], "attention mask must be [l, l]");
            let scores = f.g.scale(scores, scale);
            let mut tiled = Tensor::zeros(&[n * h, l, l]);
            for chunk in tiled.data_mut().chunks_mut(l * l) {
                chunk.copy_from_slice(m.data());
            }
            let mv = f.g.constant(tiled);
            let masked = f.g.add(scores, mv);
            f.g.softmax(masked)
        } else {
            // Unmasked hot path: one fused node, bit-identical to
            // scale → softmax.
            f.g.scaled_softmax(scores, scale)
        };
        let ctx = f.g.bmm(attn, vs); // [n*h, l, dh]

        let ctx = f.g.reshape(ctx, &[n, h, l, dh]);
        let ctx = f.g.permute(ctx, &[0, 2, 1, 3]);
        let ctx = f.g.reshape(ctx, &[n, l, e]);
        self.out.forward(f, ctx)
    }

    /// Fused tape-free self-attention over a compact tail-padded batch.
    ///
    /// `x` holds the micro-batch's distinct rows, row [`PAD_ROW`] being the
    /// padding row every candidate's tail repeats; `row_of` names the
    /// distinct row behind each of the `R` real rows (candidate-major, `R`
    /// = `ragged.total_rows()`). The Q/K/V projections run once per
    /// distinct row and each candidate's tiles are gathered through
    /// `row_of`. Every per-candidate pass (gather, scale, softmax, tail
    /// re-add, scatter) runs once over all heads: their query lanes sit side
    /// by side in one score tile, and each head's two small GEMMs read and
    /// write its share through leading dimensions. `out` receives `R + C`
    /// rows: the attention output (including the output projection) for
    /// each real row, then one pad-row output per candidate — pad queries
    /// are identical within a candidate, so their shared output is computed
    /// once.
    ///
    /// Bit-identical to [`MultiHeadSelfAttention::forward`] on the dense
    /// `[C, l, dim]` tensor: a projection's output row depends only on its
    /// input row, and scores, softmax, and weighted sums replay the same
    /// f32 operations in the same order, with the padding tail's repeated
    /// values computed once and re-added per position (see [`crate::infer`]
    /// for the argument).
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatches.
    pub fn infer_ragged(
        &self,
        store: &ParamStore,
        arena: &mut Arena,
        x: &[f32],
        row_of: &[u32],
        ragged: &Ragged<'_>,
        out: &mut [f32],
    ) {
        let e = self.dim;
        let h = self.heads;
        let dh = e / h;
        let d = x.len() / e;
        let r = ragged.total_rows();
        let c = ragged.candidates();
        let l = ragged.seq_len();
        assert_eq!(x.len(), d * e, "distinct-row input length mismatch");
        assert_eq!(row_of.len(), r, "row map length mismatch");
        assert_eq!(out.len(), (r + c) * e, "output length mismatch");

        let mut q = arena.take(d * e);
        let mut k = arena.take(d * e);
        let mut v = arena.take(d * e);
        self.q.infer_rows(store, x, d, &mut q, Epilogue::Bias);
        self.k.infer_rows(store, x, d, &mut k, Epilogue::Bias);
        self.v.infer_rows(store, x, d, &mut v, Epilogue::Bias);
        let pad = PAD_ROW as usize * e;

        let mut ctx = arena.take((r + c) * e);
        // Per-candidate scratch, sized for the longest candidate (`l` real
        // rows plus the shared pad row/query). Query lanes are the columns of
        // both attention matmuls and of the softmax; their count is rounded
        // up to the kernel's narrowest panel so none of them has a scalar
        // remainder. The score tile holds every head's lanes side by side.
        let lanes = |nq: usize| nq.div_ceil(kernels::NR8) * kernels::NR8;
        let lmax = lanes(l + 1);
        let mut kr = arena.take((l + 1) * e);
        let mut qt = arena.take(e * lmax);
        let mut vt = arena.take(e * l);
        let mut st = arena.take((l + 1) * h * lmax);
        let mut ot = arena.take(e * lmax);
        let mut pt = arena.take(e * lmax);
        let mut mx = arena.take(h * lmax);
        let mut sm = arena.take(h * lmax);
        let scale = 1.0 / (dh as f32).sqrt();

        let mut base = 0usize;
        for (i, &ru) in ragged.rows_used().iter().enumerate() {
            let ids = &row_of[base..base + ru];
            let nk = ru + 1; // real keys plus the shared pad key
            let nq = lanes(ru + 1); // real queries, the pad query, zero lanes
            let hq = h * nq; // score-tile lanes: head `t` owns `t·nq..`
            let st = &mut st[..nk * hq];
            let ot = &mut ot[..e * nq];
            let pt = &mut pt[..e * nq];

            // Gather once for all heads, so both attention matmuls of every
            // head run through the register-blocked [`kernels::gemm_ld`]:
            //   kr: [nk, e]  real keys then the pad key;
            //   qt: [e, nq]  queries transposed, pad query in lane `ru`,
            //                lanes past it zero (finite scores that are
            //                never scattered back);
            //   vt: [e, ru]  values transposed.
            for (j, &id) in ids.iter().enumerate() {
                let o = id as usize * e;
                kr[j * e..(j + 1) * e].copy_from_slice(&k[o..o + e]);
                for dd in 0..e {
                    qt[dd * nq + j] = q[o + dd];
                    vt[dd * ru + j] = v[o + dd];
                }
            }
            kr[ru * e..nk * e].copy_from_slice(&k[pad..pad + e]);
            for (lane, &pq) in qt.chunks_exact_mut(nq).zip(&q[pad..pad + e]) {
                lane[ru] = pq;
                lane[ru + 1..].fill(0.0);
            }

            // Transposed scores st[key][t·nq + query] = k·q over head `t`'s
            // columns, each element accumulated d-ascending like the dense
            // bmm (f32 `mul` is operand-order insensitive, so k·q ≡ q·k
            // bitwise). The pad key lands in row `ru`, the pad query in lane
            // `ru` of each head.
            for t in 0..h {
                let (kh, qh) = (&kr[t * dh..], &qt[t * dh * nq..]);
                gemm_ld(kh, e, qh, nq, &mut st[t * nq..], hq, nk, dh, nq);
            }
            for s in st.iter_mut() {
                *s *= scale;
            }
            // Per-query softmax down each column, every head's queries
            // advanced together so every pass vectorizes across the `hq`
            // lanes. Each lane replays the dense row's order — max fold and
            // sum k-ascending, the `l - ru` identical tail terms deduplicated
            // (the tail exp is added once per position) — and leaves the tail
            // weight `a_pad` in the pad-key row.
            softmax_cols(st, &mut mx[..hq], &mut sm[..hq], hq, ru, l);
            // Weighted value sum over the real keys, k-ascending from +0.0 —
            // the pad-key row is excluded from the matmul...
            for t in 0..h {
                let (vh, ah) = (&vt[t * dh * ru..], &st[t * nq..]);
                gemm_ld(vh, ru, ah, hq, &mut ot[t * dh * nq..], nq, dh, ru, nq);
            }
            // ...and its term, computed once per query, is re-added per tail
            // position, as the dense loop would (each element's chain still
            // receives its identical pad term `l - ru` times after the real
            // keys).
            let a_pad = &st[ru * hq..];
            for (dd, (p, &pv)) in pt.chunks_exact_mut(nq).zip(&v[pad..pad + e]).enumerate() {
                for (p, &a) in p.iter_mut().zip(&a_pad[dd / dh * nq..]) {
                    *p = a * pv;
                }
            }
            for _ in ru..l {
                for (o, &p) in ot.iter_mut().zip(pt.iter()) {
                    *o += p;
                }
            }
            // Scatter back to row-major context rows: lanes `..ru` to the
            // real rows, lane `ru` to the pad row.
            for j in 0..=ru {
                let dst = if j < ru { base + j } else { r + i };
                let row = &mut ctx[dst * e..(dst + 1) * e];
                for (cv, o) in row.iter_mut().zip(ot.chunks_exact(nq)) {
                    *cv = o[j];
                }
            }
            base += ru;
        }

        self.out.infer_rows(store, &ctx, r + c, out, Epilogue::Bias);

        arena.give(sm);
        arena.give(mx);
        arena.give(pt);
        arena.give(ot);
        arena.give(st);
        arena.give(vt);
        arena.give(qt);
        arena.give(kr);
        arena.give(ctx);
        arena.give(v);
        arena.give(k);
        arena.give(q);
    }
}

/// Softmax down every column of the transposed score matrix `st`
/// (`nq` query lanes, zero-query padding lanes included — lanes are
/// independent, so a padding lane costs arithmetic and touches no score;
/// `ru` real-key rows plus the pad-key row at index `ru`), normalizing each
/// column in place over its dense row
/// `[s_0 .. s_{ru-1}, s_pad × (l - ru)]`. Columns advance together so the
/// max/exp/sum/normalize passes vectorize across query lanes, while each
/// lane's fold order stays exactly the dense row's: max then sum in
/// k-ascending order, the tail's (identical) exp value added once per
/// position. The pad-key row is overwritten with the tail weight `a_pad`
/// for the caller's tail re-add. `mx` and `sum` are caller scratch.
fn softmax_cols(st: &mut [f32], mx: &mut [f32], sum: &mut [f32], nq: usize, ru: usize, l: usize) {
    mx.fill(f32::NEG_INFINITY);
    for row in st[..ru * nq].chunks_exact(nq) {
        for (m, &s) in mx.iter_mut().zip(row) {
            *m = m.max(s);
        }
    }
    if ru < l {
        for (m, &s) in mx.iter_mut().zip(&st[ru * nq..(ru + 1) * nq]) {
            *m = m.max(s);
        }
    }
    sum.fill(0.0);
    for row in st[..ru * nq].chunks_exact_mut(nq) {
        for ((s, &m), acc) in row.iter_mut().zip(mx.iter()).zip(sum.iter_mut()) {
            *s = kernels::exp(*s - m);
            *acc += *s;
        }
    }
    // The pad row becomes e_pad, counted once per tail position.
    for (s, &m) in st[ru * nq..(ru + 1) * nq].iter_mut().zip(mx.iter()) {
        *s = kernels::exp(*s - m);
    }
    for _ in ru..l {
        for (acc, &e) in sum.iter_mut().zip(&st[ru * nq..(ru + 1) * nq]) {
            *acc += e;
        }
    }
    for (m, &acc) in mx.iter_mut().zip(sum.iter()) {
        *m = 1.0 / acc; // reuse mx as the reciprocal-sum lane buffer
    }
    for row in st[..(ru + 1) * nq].chunks_exact_mut(nq) {
        for (s, &inv) in row.iter_mut().zip(mx.iter()) {
            *s *= inv;
        }
    }
}

/// Single-layer LSTM over `[N, L, E]`, returning the full `[N, L, H]`
/// hidden-state sequence (the paper's alternative backbone basic module).
#[derive(Clone, Debug)]
pub struct Lstm {
    // Gate weights, one (Wx, Wh, b) triple per gate: input, forget, cell, output.
    wx: [ParamId; 4],
    wh: [ParamId; 4],
    b: [ParamId; 4],
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// Registers LSTM parameters.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SmallRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let gate_names = ["i", "f", "g", "o"];
        let mut wx = Vec::new();
        let mut wh = Vec::new();
        let mut b = Vec::new();
        for gn in gate_names {
            wx.push(store.add(
                format!("{name}.wx_{gn}"),
                xavier_uniform(rng, in_dim, hidden),
            ));
            wh.push(store.add(
                format!("{name}.wh_{gn}"),
                xavier_uniform(rng, hidden, hidden),
            ));
            // Forget gate bias starts positive to encourage gradient flow.
            let bias = if gn == "f" {
                Tensor::full(&[hidden], 1.0)
            } else {
                Tensor::zeros(&[hidden])
            };
            b.push(store.add(format!("{name}.b_{gn}"), bias));
        }
        Lstm {
            wx: [wx[0], wx[1], wx[2], wx[3]],
            wh: [wh[0], wh[1], wh[2], wh[3]],
            b: [b[0], b[1], b[2], b[3]],
            in_dim,
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the recurrence over `x` of shape `[n, l, in_dim]`, producing `[n, l, hidden]`.
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        let shape = f.g.value(x).shape().to_vec();
        assert_eq!(shape.len(), 3, "lstm input must be [n, l, e]");
        let (n, l, e) = (shape[0], shape[1], shape[2]);
        assert_eq!(e, self.in_dim, "lstm input width mismatch");

        let mut h = f.g.constant(Tensor::zeros(&[n, self.hidden]));
        let mut c = f.g.constant(Tensor::zeros(&[n, self.hidden]));
        let mut outputs = Vec::with_capacity(l);
        for t in 0..l {
            let xt = f.g.select(x, 1, t); // [n, e]
            let gate = |f: &mut Fwd<'_>, gi: usize, xt: Var, h: Var| {
                let wx = f.param(self.wxs(gi));
                let wh = f.param(self.whs(gi));
                let b = f.param(self.bs(gi));
                let a = f.g.matmul(xt, wx);
                let bmm = f.g.matmul(h, wh);
                let s = f.g.add(a, bmm);
                f.g.add_bias(s, b)
            };
            let i_g = gate(f, 0, xt, h);
            let f_g = gate(f, 1, xt, h);
            let g_g = gate(f, 2, xt, h);
            let o_g = gate(f, 3, xt, h);
            let i_s = f.g.sigmoid(i_g);
            let f_s = f.g.sigmoid(f_g);
            let g_t = f.g.tanh(g_g);
            let o_s = f.g.sigmoid(o_g);
            let fc = f.g.mul(f_s, c);
            let ig = f.g.mul(i_s, g_t);
            c = f.g.add(fc, ig);
            let ct = f.g.tanh(c);
            h = f.g.mul(o_s, ct);
            outputs.push(h);
        }
        f.g.stack(&outputs, 1)
    }

    fn wxs(&self, i: usize) -> ParamId {
        self.wx[i]
    }
    fn whs(&self, i: usize) -> ParamId {
        self.wh[i]
    }
    fn bs(&self, i: usize) -> ParamId {
        self.b[i]
    }
}

/// Pre-activation residual block `y = x + W2·relu(W1·x)` followed by ReLU,
/// as used after the TLP backbone (paper Fig. 7: two residual blocks).
#[derive(Clone, Debug)]
pub struct ResidualBlock {
    l1: Linear,
    l2: Linear,
}

impl ResidualBlock {
    /// Registers a residual block of width `dim`.
    pub fn new(store: &mut ParamStore, rng: &mut SmallRng, name: &str, dim: usize) -> Self {
        ResidualBlock {
            l1: Linear::new(store, rng, &format!("{name}.l1"), dim, dim),
            l2: Linear::new(store, rng, &format!("{name}.l2"), dim, dim),
        }
    }

    /// Applies the block to `x` of shape `[.., dim]`.
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        let h = self.l1.forward(f, x);
        let h = f.g.relu(h);
        let h = self.l2.forward(f, h);
        let s = f.g.add(x, h);
        f.g.relu(s)
    }

    /// Fused tape-free inference, transforming `rows` rows of `x` in
    /// place; bit-identical to [`ResidualBlock::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * dim`.
    pub fn infer_rows(&self, store: &ParamStore, arena: &mut Arena, x: &mut [f32], rows: usize) {
        let dim = self.l1.in_dim();
        assert_eq!(x.len(), rows * dim, "residual input length mismatch");
        let mut h1 = arena.take(rows * dim);
        let mut h2 = arena.take(rows * dim);
        self.l1
            .infer_rows(store, x, rows, &mut h1, Epilogue::BiasRelu);
        self.l2
            .infer_rows(store, &h1, rows, &mut h2, Epilogue::Bias);
        for (xv, &hv) in x.iter_mut().zip(h2.iter()) {
            *xv = (*xv + hv).max(0.0);
        }
        arena.give(h2);
        arena.give(h1);
    }
}

/// Layer normalization with learnable affine parameters.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers layer-norm parameters of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: store.add(format!("{name}.gamma"), Tensor::full(&[dim], 1.0)),
            beta: store.add(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Normalizes over the last axis of `x`.
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        let gamma = f.param(self.gamma);
        let beta = f.param(self.beta);
        f.g.layer_norm(x, gamma, beta, self.eps)
    }

    /// Fused tape-free inference, normalizing each width-`dim` row of `x`
    /// in place; bit-identical to [`LayerNorm::forward`] (both call
    /// [`kernels::layer_norm_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the layer width.
    pub fn infer_rows(&self, store: &ParamStore, x: &mut [f32]) {
        let gamma = store.value(self.gamma);
        let beta = store.value(self.beta);
        let d = gamma.data().len();
        assert_eq!(x.len() % d, 0, "layer_norm input length mismatch");
        for row in x.chunks_exact_mut(d) {
            kernels::layer_norm_row(row, gamma.data(), beta.data(), self.eps);
        }
    }
}

/// Token embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    weight: ParamId,
    dim: usize,
}

impl Embedding {
    /// Registers an embedding table `[vocab, dim]`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SmallRng,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let weight = store.add(format!("{name}.weight"), uniform(rng, &[vocab, dim], 0.1));
        Embedding { weight, dim }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up `ids`, producing `[ids.len(), dim]`.
    pub fn forward(&self, f: &mut Fwd<'_>, ids: &[usize]) -> Var {
        let w = f.param(self.weight);
        f.g.embedding(w, ids)
    }
}

/// A plain multi-layer perceptron with ReLU activations between layers.
///
/// The TenSet-MLP baseline (paper §2) is an instance of this.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Registers an MLP with the given layer widths, e.g. `[in, h1, h2, out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(store: &mut ParamStore, rng: &mut SmallRng, name: &str, widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "mlp needs at least [in, out] widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.fc{i}"), w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Applies the MLP (ReLU between layers, none after the last).
    pub fn forward(&self, f: &mut Fwd<'_>, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(f, h);
            if i + 1 < self.layers.len() {
                h = f.g.relu(h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use rand::{Rng, SeedableRng};

    fn ctx() -> (Graph, ParamStore, Binding, SmallRng) {
        (
            Graph::new(),
            ParamStore::new(),
            Binding::new(),
            SmallRng::seed_from_u64(42),
        )
    }

    #[test]
    fn linear_shapes() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 7);
        let x = g.constant(Tensor::zeros(&[2, 5, 4]));
        let mut f = Fwd::new(&mut g, &store, &mut bind);
        let y = lin.forward(&mut f, x);
        assert_eq!(g.value(y).shape(), &[2, 5, 7]);
    }

    #[test]
    fn attention_shapes_and_grad_flow() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let attn = MultiHeadSelfAttention::new(&mut store, &mut rng, "a", 8, 2);
        let x = g.constant(uniform(&mut rng, &[3, 5, 8], 0.5));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            attn.forward(&mut f, x)
        };
        assert_eq!(g.value(y).shape(), &[3, 5, 8]);
        let loss = g.sum_all(y);
        g.backward(loss);
        bind.harvest(&g, &mut store);
        let total: f32 = store.ids().map(|id| store.grad(id).sq_norm()).sum();
        assert!(total > 0.0, "attention params should receive gradient");
    }

    #[test]
    fn additive_mask_gives_exactly_zero_attention_weight() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let (l, e) = (5, 8);
        let attn = MultiHeadSelfAttention::new(&mut store, &mut rng, "a", e, 2);
        let x = uniform(&mut rng, &[1, l, e], 0.5);
        // Every query may look at key 0 only. The masked-out scores are
        // `-1e9` below the row max, which `kernels::exp` flushes to +0.0, and
        // the surviving one is `exp(0) == 1.0`: each context row is key 0's
        // value row to the bit, i.e. what position 0 attending to itself
        // alone computes.
        let mut mask = Tensor::zeros(&[l, l]);
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            if i % l != 0 {
                *m = -1e9;
            }
        }
        let alone = g.constant(Tensor::from_vec(x.data()[..e].to_vec(), &[1, 1, e]));
        let x = g.constant(x);
        let (masked, alone) = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            (
                attn.forward_masked(&mut f, x, Some(&mask)),
                attn.forward(&mut f, alone),
            )
        };
        for row in g.value(masked).data().chunks_exact(e) {
            assert_bits_eq(row, g.value(alone).data(), "masked attention row");
        }
    }

    #[test]
    fn lstm_shapes_and_grad_flow() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let lstm = Lstm::new(&mut store, &mut rng, "r", 6, 4);
        let x = g.constant(uniform(&mut rng, &[2, 3, 6], 0.5));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            lstm.forward(&mut f, x)
        };
        assert_eq!(g.value(y).shape(), &[2, 3, 4]);
        let loss = g.sum_all(y);
        g.backward(loss);
        bind.harvest(&g, &mut store);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn residual_block_is_identity_preserving_at_zero() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let block = ResidualBlock::new(&mut store, &mut rng, "res", 4);
        // Zero the second linear layer so the block is exactly relu(x).
        for id in store.ids().collect::<Vec<_>>() {
            if store.name(id).contains("l2.w") {
                *store.value_mut(id) = Tensor::zeros(&[4, 4]);
            }
        }
        let x = g.constant(Tensor::from_vec(vec![1.0, -1.0, 2.0, -2.0], &[1, 4]));
        let mut f = Fwd::new(&mut g, &store, &mut bind);
        let y = block.forward(&mut f, x);
        assert_eq!(g.value(y).data(), &[1.0, 0.0, 2.0, 0.0]);
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}");
        }
    }

    #[test]
    fn linear_infer_rows_matches_tape_bitwise() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let lin = Linear::new(&mut store, &mut rng, "l", 6, 9);
        let data: Vec<f32> = (0..5 * 6).map(|_| rng.gen::<f32>() - 0.5).collect();
        let x = g.constant(Tensor::from_vec(data.clone(), &[5, 6]));
        let (plain, relu) = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            let y = lin.forward(&mut f, x);
            let r = f.g.relu(y);
            (y, r)
        };
        let mut out = vec![0.0f32; 5 * 9];
        lin.infer_rows(&store, &data, 5, &mut out, Epilogue::Bias);
        assert_bits_eq(&out, g.value(plain).data(), "linear bias");
        lin.infer_rows(&store, &data, 5, &mut out, Epilogue::BiasRelu);
        assert_bits_eq(&out, g.value(relu).data(), "linear bias+relu");
    }

    #[test]
    fn residual_infer_rows_matches_tape_bitwise() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let block = ResidualBlock::new(&mut store, &mut rng, "res", 8);
        let data: Vec<f32> = (0..4 * 8).map(|_| rng.gen::<f32>() - 0.5).collect();
        let x = g.constant(Tensor::from_vec(data.clone(), &[4, 8]));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            block.forward(&mut f, x)
        };
        let mut buf = data;
        let mut arena = Arena::new();
        block.infer_rows(&store, &mut arena, &mut buf, 4);
        assert_bits_eq(&buf, g.value(y).data(), "residual block");
    }

    #[test]
    fn layer_norm_infer_rows_matches_tape_bitwise() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let ln = LayerNorm::new(&mut store, "ln", 7);
        let data: Vec<f32> = (0..3 * 7).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let x = g.constant(Tensor::from_vec(data.clone(), &[3, 7]));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            ln.forward(&mut f, x)
        };
        let mut buf = data;
        ln.infer_rows(&store, &mut buf);
        assert_bits_eq(&buf, g.value(y).data(), "layer norm");
    }

    #[test]
    fn ragged_attention_matches_dense_forward_bitwise() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let e = 8;
        let heads = 2;
        let l = 20;
        let attn = MultiHeadSelfAttention::new(&mut store, &mut rng, "a", e, heads);
        // `ru + 1` query lanes below, on and above a lane multiple,
        // including empty (all-pad) and full candidates.
        let rows_used = [0usize, 1, 7, 8, 15, 16, l];
        let n = rows_used.len();
        // Distinct rows: a nonzero shared pad row first (as produced by
        // upsampling an all-zero feature row through biased linears), then
        // a few rows the candidates repeat within and across themselves.
        let d = 12;
        let x: Vec<f32> = (0..d * e).map(|_| rng.gen::<f32>() - 0.5).collect();
        let row_of: Vec<u32> = (0..rows_used.iter().sum::<usize>())
            .map(|p| 1 + (p * 7 % (d - 1)) as u32)
            .collect();
        let mut dense = Vec::with_capacity(n * l * e);
        let mut base = 0usize;
        for &ru in &rows_used {
            for j in 0..l {
                let id = if j < ru { row_of[base + j] } else { PAD_ROW } as usize;
                dense.extend_from_slice(&x[id * e..(id + 1) * e]);
            }
            base += ru;
        }
        let dense = g.constant(Tensor::from_vec(dense, &[n, l, e]));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            attn.forward(&mut f, dense)
        };
        let yd = g.value(y).data().to_vec();

        let ragged = Ragged::new(&rows_used, l);
        let r = ragged.total_rows();
        let mut out = vec![0.0f32; (r + n) * e];
        // Every scratch buffer starts out as NaN: whatever the padding
        // lanes hold must never reach an output row.
        let mut arena = Arena::new();
        for _ in 0..16 {
            arena.give(vec![f32::NAN; (r + n + l) * e * 4]);
        }
        attn.infer_ragged(&store, &mut arena, &x, &row_of, &ragged, &mut out);

        let mut base = 0usize;
        for (i, &ru) in rows_used.iter().enumerate() {
            for j in 0..l {
                let dense_row = &yd[(i * l + j) * e..(i * l + j + 1) * e];
                let fused_row = if j < ru {
                    &out[(base + j) * e..(base + j + 1) * e]
                } else {
                    &out[(r + i) * e..(r + i + 1) * e]
                };
                assert_bits_eq(dense_row, fused_row, "attention row");
            }
            base += ru;
        }
    }

    /// The model's own attention shape — width 48, 8 heads side by side in
    /// one score tile, `l = 25` — against the dense tape forward, bit for
    /// bit. `ru + 1` query lanes fill 8-, 16-, 24- and 32-lane tiles, at
    /// and between lane multiples, including empty and full candidates.
    #[test]
    fn ragged_attention_matches_dense_forward_bitwise_at_model_shape() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let (e, heads, l) = (48, 8, 25);
        let attn = MultiHeadSelfAttention::new(&mut store, &mut rng, "a", e, heads);
        let rows_used = [0usize, 1, 7, 8, 12, 15, 16, 23, 24, l];
        let n = rows_used.len();
        let r: usize = rows_used.iter().sum();
        // A nonzero shared pad row (row 0), then rows the candidates repeat.
        let d = 40;
        let x: Vec<f32> = (0..d * e).map(|_| rng.gen::<f32>() - 0.5).collect();
        let row_of: Vec<u32> = (0..r).map(|p| 1 + (p * 7 % (d - 1)) as u32).collect();
        let mut rows = row_of.iter();
        let mut dense = Vec::with_capacity(n * l * e);
        for &ru in &rows_used {
            for j in 0..l {
                let id = if j < ru {
                    *rows.next().unwrap()
                } else {
                    PAD_ROW
                } as usize;
                dense.extend_from_slice(&x[id * e..(id + 1) * e]);
            }
        }
        let dense = g.constant(Tensor::from_vec(dense, &[n, l, e]));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            attn.forward(&mut f, dense)
        };
        let yd = g.value(y).data();

        let ragged = Ragged::new(&rows_used, l);
        let mut out = vec![0.0f32; (r + n) * e];
        // Every scratch buffer starts out as NaN, so a lane or a head share
        // the passes fail to write reaches an output row.
        let mut arena = Arena::new();
        for _ in 0..16 {
            arena.give(vec![f32::NAN; (r + n + l) * e * 4]);
        }
        attn.infer_ragged(&store, &mut arena, &x, &row_of, &ragged, &mut out);

        let mut base = 0usize;
        for (i, &ru) in rows_used.iter().enumerate() {
            for (j, dense_row) in yd[i * l * e..(i + 1) * l * e].chunks(e).enumerate() {
                let fused = if j < ru { base + j } else { r + i };
                let what = format!("candidate {i} (ru = {ru}), row {j}");
                assert_bits_eq(dense_row, &out[fused * e..(fused + 1) * e], &what);
            }
            base += ru;
        }
    }

    #[test]
    fn mlp_forward_width() {
        let (mut g, mut store, mut bind, mut rng) = ctx();
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[10, 16, 16, 1]);
        let x = g.constant(Tensor::zeros(&[4, 10]));
        let mut f = Fwd::new(&mut g, &store, &mut bind);
        let y = mlp.forward(&mut f, x);
        assert_eq!(g.value(y).shape(), &[4, 1]);
    }
}
