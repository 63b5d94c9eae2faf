//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a per-forward-pass tape of operation nodes. Model parameters
//! live outside the tape in a [`crate::params::ParamStore`]; each training
//! step binds them as leaves, runs the forward ops, calls
//! [`Graph::backward`], and harvests leaf gradients.
//!
//! ```
//! use tlp_nn::{Graph, Tensor};
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]), true);
//! let w = g.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]), true);
//! let y = g.matmul(x, w);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).unwrap().data(), &[1.0, 2.0]);
//! ```

use crate::kernels::{self, softmax_row};
use crate::tensor::{numel, Tensor};

/// Extent of the last axis, with the operation name in the panic message.
///
/// # Panics
///
/// Panics on rank-0 tensors.
fn last_dim(shape: &[usize], what: &str) -> usize {
    match shape.last() {
        Some(&d) => d,
        None => panic!("{what} on rank-0 tensor"),
    }
}

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The operation that produced a node.
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    /// 2-D matmul `[m,k]×[k,n]`.
    Matmul(Var, Var),
    /// Batched rank-3 matmul `[b,m,k]×[b,k,n]`.
    Bmm(Var, Var),
    AddSame(Var, Var),
    Sub(Var, Var),
    MulSame(Var, Var),
    /// Adds a `[last_dim]` bias vector over the last axis.
    AddBias(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    /// Softmax over the last axis.
    Softmax(Var),
    /// Fused `softmax(x * s)` over the last axis (attention score path).
    ScaledSoftmax(Var, f32),
    /// Log-softmax over the last axis.
    LogSoftmax(Var),
    Reshape(Var),
    Permute(Var, Vec<usize>),
    /// Sums out one axis.
    SumAxis(Var, usize),
    SumAll(Var),
    MeanAll(Var),
    /// Selects index `idx` along `axis`, dropping the axis.
    Select(Var, usize, usize),
    /// Stacks equal-shaped tensors along a new axis at position `axis`.
    Stack(Vec<Var>, usize),
    /// Fused layer normalization over the last axis with affine params.
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    /// Row gather from an embedding matrix.
    Embedding(Var, Vec<usize>),
    /// Mean negative log-likelihood of `targets` under row-wise log-probs.
    NllLoss(Var, Vec<usize>),
    /// A scalar loss with an externally supplied gradient w.r.t. its input
    /// (used for listwise ranking losses whose gradient is computed directly).
    CustomGrad(Var, Tensor),
}

#[derive(Debug)]
struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
    needs_grad: bool,
}

/// Reverse-mode autodiff tape.
///
/// All ops validate their input shapes and panic on mismatch: shape errors in
/// a cost-model stack are programming errors, not recoverable conditions.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape for reuse, keeping the node storage allocated.
    ///
    /// Every `Var` handed out before the reset is invalidated; in particular
    /// any [`crate::params::Binding`] built against this tape must be reset
    /// alongside it (see [`crate::workspace::Workspace`]).
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Adds an input leaf. `requires_grad` marks it for gradient accumulation.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(Op::Leaf, value, requires_grad)
    }

    /// Adds a constant leaf (no gradient).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// 2-D matrix multiply.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Matmul(a, b), v, ng)
    }

    /// Batched rank-3 matrix multiply.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).bmm(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Bmm(a, b), v, ng)
    }

    /// Elementwise addition of same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::AddSame(a, b), v, ng)
    }

    /// Elementwise subtraction `a - b` of same-shaped tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Sub(a, b), v, ng)
    }

    /// Elementwise product of same-shaped tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MulSame(a, b), v, ng)
    }

    /// Adds a bias vector (shape `[d]`) across the last axis of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not rank 1 matching `a`'s last dim.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(bias);
        assert_eq!(bv.shape().len(), 1, "bias must be rank 1");
        let d = last_dim(av.shape(), "add_bias");
        assert_eq!(bv.shape()[0], d, "bias length must match last dim");
        let mut out = av.clone();
        for chunk in out.data_mut().chunks_mut(d) {
            for (c, &b) in chunk.iter_mut().zip(bv.data()) {
                *c += b;
            }
        }
        let ng = self.needs(a) || self.needs(bias);
        self.push(Op::AddBias(a, bias), out, ng)
    }

    /// Multiplies by a compile-time-known scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x * s);
        let ng = self.needs(a);
        self.push(Op::Scale(a, s), v, ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(Op::Relu(a), v, ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.needs(a);
        self.push(Op::Sigmoid(a), v, ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        let ng = self.needs(a);
        self.push(Op::Tanh(a), v, ng)
    }

    /// Numerically stable softmax over the last axis.
    pub fn softmax(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let d = last_dim(av.shape(), "softmax");
        let mut out = av.clone();
        for row in out.data_mut().chunks_mut(d) {
            softmax_row(row);
        }
        let ng = self.needs(a);
        self.push(Op::Softmax(a), out, ng)
    }

    /// Fused scale-then-softmax over the last axis: `softmax(a * s)`.
    ///
    /// One tape node instead of the `scale` + `softmax` pair the attention
    /// layer used to emit; the per-element arithmetic (multiply by `s`,
    /// then the same row softmax) is unchanged, so values are bitwise
    /// identical to the unfused sequence.
    pub fn scaled_softmax(&mut self, a: Var, s: f32) -> Var {
        let av = self.value(a);
        let d = last_dim(av.shape(), "scaled_softmax");
        let mut out = av.clone();
        kernels::scaled_softmax_rows(out.data_mut(), d, s);
        let ng = self.needs(a);
        self.push(Op::ScaledSoftmax(a, s), out, ng)
    }

    /// Numerically stable log-softmax over the last axis.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let d = last_dim(av.shape(), "log_softmax");
        let mut out = av.clone();
        for row in out.data_mut().chunks_mut(d) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        let ng = self.needs(a);
        self.push(Op::LogSoftmax(a), out, ng)
    }

    /// Relabels the shape (free).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.value(a).reshape(shape);
        let ng = self.needs(a);
        self.push(Op::Reshape(a), v, ng)
    }

    /// Permutes axes (materializing).
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let v = self.value(a).permute(perm);
        let ng = self.needs(a);
        self.push(Op::Permute(a, perm.to_vec()), v, ng)
    }

    /// Sums out `axis`, reducing the rank by one.
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let av = self.value(a);
        let shape = av.shape().to_vec();
        assert!(axis < shape.len(), "sum_axis axis out of range");
        let out_shape: Vec<usize> = shape
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != axis)
            .map(|(_, &d)| d)
            .collect();
        let out_shape = if out_shape.is_empty() {
            vec![1]
        } else {
            out_shape
        };
        let mut out = Tensor::zeros(&out_shape);
        let axis_len = shape[axis];
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        {
            let od = out.data_mut();
            let ad = av.data();
            for o in 0..outer {
                for l in 0..axis_len {
                    let src = o * axis_len * inner + l * inner;
                    let dst = o * inner;
                    for i in 0..inner {
                        od[dst + i] += ad[src + i];
                    }
                }
            }
        }
        let ng = self.needs(a);
        self.push(Op::SumAxis(a, axis), out, ng)
    }

    /// Sums every element into a scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        let ng = self.needs(a);
        self.push(Op::SumAll(a), v, ng)
    }

    /// Averages every element into a scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean());
        let ng = self.needs(a);
        self.push(Op::MeanAll(a), v, ng)
    }

    /// Selects slice `idx` along `axis`, dropping that axis.
    pub fn select(&mut self, a: Var, axis: usize, idx: usize) -> Var {
        let av = self.value(a);
        let shape = av.shape().to_vec();
        assert!(
            axis < shape.len() && idx < shape[axis],
            "select out of range"
        );
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let axis_len = shape[axis];
        let mut out_shape: Vec<usize> = Vec::with_capacity(shape.len() - 1);
        out_shape.extend_from_slice(&shape[..axis]);
        out_shape.extend_from_slice(&shape[axis + 1..]);
        let out_shape = if out_shape.is_empty() {
            vec![1]
        } else {
            out_shape
        };
        let mut out = Tensor::zeros(&out_shape);
        {
            let od = out.data_mut();
            let ad = av.data();
            for o in 0..outer {
                let src = o * axis_len * inner + idx * inner;
                od[o * inner..(o + 1) * inner].copy_from_slice(&ad[src..src + inner]);
            }
        }
        let ng = self.needs(a);
        self.push(Op::Select(a, axis, idx), out, ng)
    }

    /// Stacks same-shaped tensors along a new axis inserted at `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or shapes differ.
    pub fn stack(&mut self, vars: &[Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "stack of zero tensors");
        let shape = self.value(vars[0]).shape().to_vec();
        for &v in vars {
            assert_eq!(self.value(v).shape(), &shape[..], "stack shape mismatch");
        }
        assert!(axis <= shape.len(), "stack axis out of range");
        let mut out_shape = shape.clone();
        out_shape.insert(axis, vars.len());
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis..].iter().product();
        let mut out = Tensor::zeros(&out_shape);
        {
            let od = out.data_mut();
            for (si, &v) in vars.iter().enumerate() {
                let sd = self.value(v).data().to_vec();
                for o in 0..outer {
                    let dst = (o * vars.len() + si) * inner;
                    od[dst..dst + inner].copy_from_slice(&sd[o * inner..(o + 1) * inner]);
                }
            }
        }
        let ng = vars.iter().any(|&v| self.needs(v));
        self.push(Op::Stack(vars.to_vec(), axis), out, ng)
    }

    /// Layer normalization over the last axis with learnable `gamma`/`beta`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let d = last_dim(xv.shape(), "layer_norm");
        assert_eq!(self.value(gamma).shape(), &[d], "gamma must be [last_dim]");
        assert_eq!(self.value(beta).shape(), &[d], "beta must be [last_dim]");
        let gv = self.value(gamma).data().to_vec();
        let bv = self.value(beta).data().to_vec();
        let mut out = xv.clone();
        for row in out.data_mut().chunks_mut(d) {
            kernels::layer_norm_row(row, &gv, &bv, eps);
        }
        let ng = self.needs(x) || self.needs(gamma) || self.needs(beta);
        self.push(
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
            out,
            ng,
        )
    }

    /// Gathers rows `ids` from an embedding matrix `[vocab, d]`, producing `[ids.len(), d]`.
    pub fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        let wv = self.value(weight);
        assert_eq!(wv.shape().len(), 2, "embedding weight must be rank 2");
        let (vocab, d) = (wv.shape()[0], wv.shape()[1]);
        let mut out = Tensor::zeros(&[ids.len(), d]);
        {
            let od = out.data_mut();
            let wd = wv.data();
            for (r, &id) in ids.iter().enumerate() {
                assert!(id < vocab, "embedding id {id} out of vocab {vocab}");
                od[r * d..(r + 1) * d].copy_from_slice(&wd[id * d..(id + 1) * d]);
            }
        }
        let ng = self.needs(weight);
        self.push(Op::Embedding(weight, ids.to_vec()), out, ng)
    }

    /// Mean negative log-likelihood: `logp` is `[n, classes]` log-probs.
    pub fn nll_loss(&mut self, logp: Var, targets: &[usize]) -> Var {
        let lv = self.value(logp);
        assert_eq!(lv.shape().len(), 2, "nll_loss expects [n, classes]");
        let (n, c) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(n, targets.len(), "nll_loss target count mismatch");
        let mut acc = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < c, "target class {t} out of range {c}");
            acc -= lv.data()[r * c + t];
        }
        let v = Tensor::scalar(acc / n.max(1) as f32);
        let ng = self.needs(logp);
        self.push(Op::NllLoss(logp, targets.to_vec()), v, ng)
    }

    /// Records a scalar loss whose gradient w.r.t. `input` was computed
    /// externally (e.g. LambdaRank lambdas).
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s shape differs from `input`'s.
    pub fn custom_grad_loss(&mut self, input: Var, loss_value: f32, grad: Tensor) -> Var {
        assert_eq!(
            self.value(input).shape(),
            grad.shape(),
            "custom grad shape mismatch"
        );
        let ng = self.needs(input);
        self.push(Op::CustomGrad(input, grad), Tensor::scalar(loss_value), ng)
    }

    /// Runs reverse-mode accumulation from scalar node `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward target must be scalar"
        );
        let loss_shape = self.nodes[loss.0].value.shape().to_vec();
        self.nodes[loss.0].grad = Some(Tensor::full(&loss_shape, 1.0));
        for id in (0..=loss.0).rev() {
            if self.nodes[id].grad.is_none() || !self.nodes[id].needs_grad {
                continue;
            }
            let contributions = self.local_grads(id);
            for (pid, g) in contributions {
                self.accumulate(pid, g);
            }
        }
    }

    fn accumulate(&mut self, v: Var, g: Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Computes this node's gradient contributions to its parents.
    fn local_grads(&self, id: usize) -> Vec<(Var, Tensor)> {
        let node = &self.nodes[id];
        let Some(g) = node.grad.as_ref() else {
            panic!("local_grads without grad");
        };
        let mut out: Vec<(Var, Tensor)> = Vec::new();
        match &node.op {
            Op::Leaf => {}
            Op::Matmul(a, b) => {
                // dA = dC × Bᵀ ; dB = Aᵀ × dC
                if self.needs(*a) {
                    out.push((*a, g.matmul_nt(self.value(*b))));
                }
                if self.needs(*b) {
                    out.push((*b, self.value(*a).matmul_tn(g)));
                }
            }
            Op::Bmm(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                let (bt, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
                let n = bv.shape()[2];
                if self.needs(*a) {
                    let mut da = Tensor::zeros(av.shape());
                    for bi in 0..bt {
                        let gs = Tensor::from_vec(
                            g.data()[bi * m * n..(bi + 1) * m * n].to_vec(),
                            &[m, n],
                        );
                        let bs = Tensor::from_vec(
                            bv.data()[bi * k * n..(bi + 1) * k * n].to_vec(),
                            &[k, n],
                        );
                        let d = gs.matmul_nt(&bs);
                        da.data_mut()[bi * m * k..(bi + 1) * m * k].copy_from_slice(d.data());
                    }
                    out.push((*a, da));
                }
                if self.needs(*b) {
                    let mut db = Tensor::zeros(bv.shape());
                    for bi in 0..bt {
                        let gs = Tensor::from_vec(
                            g.data()[bi * m * n..(bi + 1) * m * n].to_vec(),
                            &[m, n],
                        );
                        let as_ = Tensor::from_vec(
                            av.data()[bi * m * k..(bi + 1) * m * k].to_vec(),
                            &[m, k],
                        );
                        let d = as_.matmul_tn(&gs);
                        db.data_mut()[bi * k * n..(bi + 1) * k * n].copy_from_slice(d.data());
                    }
                    out.push((*b, db));
                }
            }
            Op::AddSame(a, b) => {
                if self.needs(*a) {
                    out.push((*a, g.clone()));
                }
                if self.needs(*b) {
                    out.push((*b, g.clone()));
                }
            }
            Op::Sub(a, b) => {
                if self.needs(*a) {
                    out.push((*a, g.clone()));
                }
                if self.needs(*b) {
                    out.push((*b, g.map(|x| -x)));
                }
            }
            Op::MulSame(a, b) => {
                if self.needs(*a) {
                    out.push((*a, g.zip(self.value(*b), |gx, bx| gx * bx)));
                }
                if self.needs(*b) {
                    out.push((*b, g.zip(self.value(*a), |gx, ax| gx * ax)));
                }
            }
            Op::AddBias(a, bias) => {
                if self.needs(*a) {
                    out.push((*a, g.clone()));
                }
                if self.needs(*bias) {
                    let d = self.value(*bias).shape()[0];
                    let mut gb = Tensor::zeros(&[d]);
                    for chunk in g.data().chunks(d) {
                        for (s, &x) in gb.data_mut().iter_mut().zip(chunk) {
                            *s += x;
                        }
                    }
                    out.push((*bias, gb));
                }
            }
            Op::Scale(a, s) => {
                if self.needs(*a) {
                    let s = *s;
                    out.push((*a, g.map(|x| x * s)));
                }
            }
            Op::Relu(a) => {
                if self.needs(*a) {
                    out.push((
                        *a,
                        g.zip(&node.value, |gx, y| if y > 0.0 { gx } else { 0.0 }),
                    ));
                }
            }
            Op::Sigmoid(a) => {
                if self.needs(*a) {
                    out.push((*a, g.zip(&node.value, |gx, y| gx * y * (1.0 - y))));
                }
            }
            Op::Tanh(a) => {
                if self.needs(*a) {
                    out.push((*a, g.zip(&node.value, |gx, y| gx * (1.0 - y * y))));
                }
            }
            Op::Softmax(a) => {
                if self.needs(*a) {
                    let d = last_dim(node.value.shape(), "softmax backward");
                    let mut dx = g.clone();
                    for (gr, yr) in dx.data_mut().chunks_mut(d).zip(node.value.data().chunks(d)) {
                        let dot: f32 = gr.iter().zip(yr).map(|(&gx, &y)| gx * y).sum();
                        for (gx, &y) in gr.iter_mut().zip(yr) {
                            *gx = y * (*gx - dot);
                        }
                    }
                    out.push((*a, dx));
                }
            }
            Op::ScaledSoftmax(a, s) => {
                if self.needs(*a) {
                    // y = softmax(s·x) ⇒ dx = s · softmax-backward(y, g).
                    let d = last_dim(node.value.shape(), "softmax backward");
                    let s = *s;
                    let mut dx = g.clone();
                    for (gr, yr) in dx.data_mut().chunks_mut(d).zip(node.value.data().chunks(d)) {
                        let dot: f32 = gr.iter().zip(yr).map(|(&gx, &y)| gx * y).sum();
                        for (gx, &y) in gr.iter_mut().zip(yr) {
                            *gx = s * (y * (*gx - dot));
                        }
                    }
                    out.push((*a, dx));
                }
            }
            Op::LogSoftmax(a) => {
                if self.needs(*a) {
                    let d = last_dim(node.value.shape(), "softmax backward");
                    let mut dx = g.clone();
                    for (gr, yr) in dx.data_mut().chunks_mut(d).zip(node.value.data().chunks(d)) {
                        let gsum: f32 = gr.iter().sum();
                        for (gx, &y) in gr.iter_mut().zip(yr) {
                            *gx -= y.exp() * gsum;
                        }
                    }
                    out.push((*a, dx));
                }
            }
            Op::Reshape(a) => {
                if self.needs(*a) {
                    out.push((*a, g.reshape(self.value(*a).shape())));
                }
            }
            Op::Permute(a, perm) => {
                if self.needs(*a) {
                    let mut inv = vec![0usize; perm.len()];
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = i;
                    }
                    out.push((*a, g.permute(&inv)));
                }
            }
            Op::SumAxis(a, axis) => {
                if self.needs(*a) {
                    let shape = self.value(*a).shape().to_vec();
                    let axis_len = shape[*axis];
                    let outer: usize = shape[..*axis].iter().product();
                    let inner: usize = shape[*axis + 1..].iter().product();
                    let mut da = Tensor::zeros(&shape);
                    let dd = da.data_mut();
                    let gd = g.data();
                    for o in 0..outer {
                        for l in 0..axis_len {
                            let dst = o * axis_len * inner + l * inner;
                            dd[dst..dst + inner].copy_from_slice(&gd[o * inner..(o + 1) * inner]);
                        }
                    }
                    out.push((*a, da));
                }
            }
            Op::SumAll(a) => {
                if self.needs(*a) {
                    let s = g.item();
                    out.push((*a, Tensor::full(self.value(*a).shape(), s)));
                }
            }
            Op::MeanAll(a) => {
                if self.needs(*a) {
                    let n = self.value(*a).len().max(1) as f32;
                    out.push((*a, Tensor::full(self.value(*a).shape(), g.item() / n)));
                }
            }
            Op::Select(a, axis, idx) => {
                if self.needs(*a) {
                    let shape = self.value(*a).shape().to_vec();
                    let axis_len = shape[*axis];
                    let outer: usize = shape[..*axis].iter().product();
                    let inner: usize = shape[*axis + 1..].iter().product();
                    let mut da = Tensor::zeros(&shape);
                    let dd = da.data_mut();
                    let gd = g.data();
                    for o in 0..outer {
                        let dst = o * axis_len * inner + idx * inner;
                        dd[dst..dst + inner].copy_from_slice(&gd[o * inner..(o + 1) * inner]);
                    }
                    out.push((*a, da));
                }
            }
            Op::Stack(vars, axis) => {
                let shape = self.value(vars[0]).shape().to_vec();
                let outer: usize = shape[..*axis].iter().product();
                let inner: usize = shape[*axis..].iter().product();
                for (si, &v) in vars.iter().enumerate() {
                    if !self.needs(v) {
                        continue;
                    }
                    let mut dv = Tensor::zeros(&shape);
                    let dd = dv.data_mut();
                    let gd = g.data();
                    for o in 0..outer {
                        let src = (o * vars.len() + si) * inner;
                        dd[o * inner..(o + 1) * inner].copy_from_slice(&gd[src..src + inner]);
                    }
                    out.push((v, dv));
                }
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let xv = self.value(*x);
                let d = last_dim(xv.shape(), "layer_norm backward");
                let gv = self.value(*gamma).data();
                let needs_x = self.needs(*x);
                let needs_g = self.needs(*gamma);
                let needs_b = self.needs(*beta);
                let mut dx = Tensor::zeros(xv.shape());
                let mut dgamma = Tensor::zeros(&[d]);
                let mut dbeta = Tensor::zeros(&[d]);
                for (r, (xr, gr)) in xv.data().chunks(d).zip(g.data().chunks(d)).enumerate() {
                    let mean = xr.iter().sum::<f32>() / d as f32;
                    let var = xr.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
                    let inv = 1.0 / (var + eps).sqrt();
                    // xhat_i = (x_i - mean) * inv
                    let xhat: Vec<f32> = xr.iter().map(|&x| (x - mean) * inv).collect();
                    if needs_g || needs_b {
                        for i in 0..d {
                            dgamma.data_mut()[i] += gr[i] * xhat[i];
                            dbeta.data_mut()[i] += gr[i];
                        }
                    }
                    if needs_x {
                        // dxhat_i = g_i * gamma_i
                        let dxhat: Vec<f32> = (0..d).map(|i| gr[i] * gv[i]).collect();
                        let sum_dxhat: f32 = dxhat.iter().sum();
                        let sum_dxhat_xhat: f32 =
                            dxhat.iter().zip(&xhat).map(|(&a, &b)| a * b).sum();
                        let row = &mut dx.data_mut()[r * d..(r + 1) * d];
                        for i in 0..d {
                            row[i] = inv / d as f32
                                * (d as f32 * dxhat[i] - sum_dxhat - xhat[i] * sum_dxhat_xhat);
                        }
                    }
                }
                if needs_x {
                    out.push((*x, dx));
                }
                if needs_g {
                    out.push((*gamma, dgamma));
                }
                if needs_b {
                    out.push((*beta, dbeta));
                }
            }
            Op::Embedding(weight, ids) => {
                if self.needs(*weight) {
                    let wv = self.value(*weight);
                    let d = wv.shape()[1];
                    let mut dw = Tensor::zeros(wv.shape());
                    let dd = dw.data_mut();
                    for (r, &id) in ids.iter().enumerate() {
                        let gr = &g.data()[r * d..(r + 1) * d];
                        for (s, &x) in dd[id * d..(id + 1) * d].iter_mut().zip(gr) {
                            *s += x;
                        }
                    }
                    out.push((*weight, dw));
                }
            }
            Op::NllLoss(logp, targets) => {
                if self.needs(*logp) {
                    let lv = self.value(*logp);
                    let (n, c) = (lv.shape()[0], lv.shape()[1]);
                    let scale = g.item() / n.max(1) as f32;
                    let mut dl = Tensor::zeros(lv.shape());
                    for (r, &t) in targets.iter().enumerate() {
                        dl.data_mut()[r * c + t] = -scale;
                    }
                    out.push((*logp, dl));
                }
            }
            Op::CustomGrad(a, grad) => {
                if self.needs(*a) {
                    let s = g.item();
                    out.push((*a, grad.map(|x| x * s)));
                }
            }
        }
        debug_assert!(out
            .iter()
            .all(|(p, t)| { numel(t.shape()) == self.value(*p).len() }));
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    /// Central-difference check of `d loss / d input[i]` for every element.
    fn grad_check(build: impl Fn(&mut Graph, Var) -> Var, input: Tensor, tol: f32) {
        let mut g = Graph::new();
        let x = g.leaf(input.clone(), true);
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("no grad").clone();
        let eps = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.leaf(t, false);
                let loss = build(&mut g, x);
                g.value(loss).item()
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a}, numeric {numeric}"
            );
        }
    }

    fn arange(shape: &[usize], scale: f32) -> Tensor {
        let n = numel(shape);
        Tensor::from_vec(
            (0..n)
                .map(|i| (i as f32 - n as f32 / 2.0) * scale)
                .collect(),
            shape,
        )
    }

    #[test]
    fn matmul_grad() {
        let w = arange(&[3, 2], 0.3);
        grad_check(
            move |g, x| {
                let wv = g.constant(w.clone());
                let y = g.matmul(x, wv);
                g.sum_all(y)
            },
            arange(&[2, 3], 0.1),
            1e-2,
        );
    }

    #[test]
    fn matmul_grad_rhs() {
        let a = arange(&[2, 3], 0.2);
        grad_check(
            move |g, x| {
                let av = g.constant(a.clone());
                let y = g.matmul(av, x);
                let y2 = g.tanh(y);
                g.sum_all(y2)
            },
            arange(&[3, 2], 0.1),
            1e-2,
        );
    }

    #[test]
    fn bmm_grad() {
        let b = arange(&[2, 3, 2], 0.15);
        grad_check(
            move |g, x| {
                let bv = g.constant(b.clone());
                let y = g.bmm(x, bv);
                g.sum_all(y)
            },
            arange(&[2, 2, 3], 0.1),
            1e-2,
        );
    }

    #[test]
    fn softmax_grad() {
        grad_check(
            |g, x| {
                let s = g.softmax(x);
                let s2 = g.mul(s, s);
                g.sum_all(s2)
            },
            arange(&[2, 4], 0.3),
            1e-2,
        );
    }

    #[test]
    fn scaled_softmax_grad() {
        grad_check(
            |g, x| {
                let s = g.scaled_softmax(x, 0.7);
                let s2 = g.mul(s, s);
                g.sum_all(s2)
            },
            arange(&[2, 4], 0.3),
            1e-2,
        );
    }

    #[test]
    fn scaled_softmax_matches_unfused_pair() {
        let x = arange(&[3, 5], 0.21);
        let s = 1.0 / 2.0f32.sqrt();
        let mut g = Graph::new();
        let a = g.constant(x.clone());
        let fused = g.scaled_softmax(a, s);
        let scaled = g.scale(a, s);
        let unfused = g.softmax(scaled);
        for (p, q) in g.value(fused).data().iter().zip(g.value(unfused).data()) {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "fused softmax must be bit-identical"
            );
        }
    }

    #[test]
    fn log_softmax_grad() {
        grad_check(
            |g, x| {
                let s = g.log_softmax(x);
                let t = g.tanh(s);
                g.sum_all(t)
            },
            arange(&[2, 4], 0.2),
            1e-2,
        );
    }

    #[test]
    fn layer_norm_grad() {
        let gamma = Tensor::from_vec(vec![1.0, 1.2, 0.8, 1.1], &[4]);
        let beta = Tensor::from_vec(vec![0.1, -0.1, 0.0, 0.2], &[4]);
        grad_check(
            move |g, x| {
                let ga = g.constant(gamma.clone());
                let be = g.constant(beta.clone());
                let y = g.layer_norm(x, ga, be, 1e-5);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            arange(&[3, 4], 0.37),
            2e-2,
        );
    }

    #[test]
    fn activations_grad() {
        for act in ["relu", "sigmoid", "tanh"] {
            grad_check(
                move |g, x| {
                    let y = match act {
                        "relu" => g.relu(x),
                        "sigmoid" => g.sigmoid(x),
                        _ => g.tanh(x),
                    };
                    let y2 = g.mul(y, y);
                    g.sum_all(y2)
                },
                arange(&[6], 0.31),
                1e-2,
            );
        }
    }

    #[test]
    fn sum_axis_and_select_grad() {
        grad_check(
            |g, x| {
                let s = g.sum_axis(x, 1);
                let t = g.select(s, 0, 1);
                let t2 = g.mul(t, t);
                g.sum_all(t2)
            },
            arange(&[2, 3, 2], 0.2),
            1e-2,
        );
    }

    #[test]
    fn stack_grad() {
        grad_check(
            |g, x| {
                let a = g.select(x, 0, 0);
                let b = g.select(x, 0, 1);
                let s = g.stack(&[a, b, a], 0);
                let s2 = g.mul(s, s);
                g.sum_all(s2)
            },
            arange(&[2, 3], 0.4),
            1e-2,
        );
    }

    #[test]
    fn permute_grad() {
        grad_check(
            |g, x| {
                let p = g.permute(x, &[1, 0, 2]);
                let p2 = g.mul(p, p);
                g.sum_all(p2)
            },
            arange(&[2, 3, 2], 0.1),
            1e-2,
        );
    }

    #[test]
    fn add_bias_grad() {
        let bias = Tensor::from_vec(vec![0.5, -0.5, 0.25], &[3]);
        grad_check(
            move |g, x| {
                let b = g.constant(bias.clone());
                let y = g.add_bias(x, b);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            arange(&[2, 3], 0.2),
            1e-2,
        );
    }

    #[test]
    fn embedding_and_nll() {
        let mut g = Graph::new();
        let w = g.leaf(arange(&[5, 3], 0.1), true);
        let e = g.embedding(w, &[1, 4, 1]);
        let lp = g.log_softmax(e);
        let loss = g.nll_loss(lp, &[0, 2, 1]);
        g.backward(loss);
        let gw = g.grad(w).unwrap();
        // Rows 0, 2, 3 were never gathered: zero grad.
        for r in [0usize, 2, 3] {
            for c in 0..3 {
                assert_eq!(gw.at(&[r, c]), 0.0);
            }
        }
        // Gathered rows must have nonzero grad somewhere.
        assert!(gw.data()[3..6].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn custom_grad_loss_scales_injected_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let inj = Tensor::from_vec(vec![0.5, -1.0], &[2]);
        let l = g.custom_grad_loss(x, 3.0, inj);
        let l2 = g.scale(l, 2.0);
        g.backward(l2);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0, -2.0]);
    }

    #[test]
    fn grads_sum_over_shared_input() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]), true);
        let y = g.add(x, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().item(), 2.0);
    }
}
