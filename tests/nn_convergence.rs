//! Convergence tests for the pure-Rust NN substrate: the layers used by TLP
//! must actually be able to learn their canonical toy problems.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlp_nn::{
    mse_loss, Adam, Binding, Fwd, Graph, Linear, Lstm, Mlp, MultiHeadSelfAttention, ParamStore,
    Tensor,
};

/// An MLP learns XOR (not linearly separable).
#[test]
fn mlp_learns_xor() {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let mlp = Mlp::new(&mut store, &mut rng, "xor", &[2, 8, 1]);
    let mut opt = Adam::new(0.05);
    let inputs = [[0.0f32, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
    let targets = [0.0f32, 1.0, 1.0, 0.0];
    let mut last = f32::INFINITY;
    for _ in 0..400 {
        let mut g = Graph::new();
        let mut bind = Binding::new();
        let x = g.constant(Tensor::from_vec(
            inputs.iter().flatten().copied().collect(),
            &[4, 2],
        ));
        let h = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            mlp.forward(&mut f, x)
        };
        let y = g.reshape(h, &[4]);
        let sig = g.sigmoid(y);
        let loss = mse_loss(&mut g, sig, &targets);
        last = g.value(loss).item();
        g.backward(loss);
        bind.harvest(&g, &mut store);
        opt.step(&mut store);
    }
    assert!(last < 0.02, "XOR loss stuck at {last}");
}

/// Attention learns to read "the value at the marked position":
/// input sequences contain a one-hot marker channel; the target is the value
/// channel at the marked position — solvable only by attending across
/// positions.
#[test]
fn attention_learns_content_based_lookup() {
    let l = 6usize;
    let d = 8usize;
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(2);
    let embed = Linear::new(&mut store, &mut rng, "emb", 2, d);
    let attn = MultiHeadSelfAttention::new(&mut store, &mut rng, "attn", d, 2);
    let out = Linear::new(&mut store, &mut rng, "out", d, 1);
    let mut opt = Adam::new(3e-3);

    let batch = |rng: &mut SmallRng| -> (Vec<f32>, Vec<f32>) {
        let n = 16;
        let mut xs = Vec::with_capacity(n * l * 2);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let marked = rng.gen_range(0..l);
            let mut target = 0.0f32;
            for pos in 0..l {
                let value: f32 = rng.gen_range(-1.0..1.0);
                let marker = if pos == marked { 1.0 } else { 0.0 };
                if pos == marked {
                    target = value;
                }
                xs.extend([value, marker]);
            }
            ys.push(target);
        }
        (xs, ys)
    };

    let mut final_loss = f32::INFINITY;
    for _ in 0..300 {
        let (xs, ys) = batch(&mut rng);
        let n = ys.len();
        let mut g = Graph::new();
        let mut bind = Binding::new();
        let x = g.constant(Tensor::from_vec(xs, &[n, l, 2]));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            let h = embed.forward(&mut f, x);
            let h = attn.forward(&mut f, h);
            out.forward(&mut f, h) // [n, l, 1]
        };
        let y = g.reshape(y, &[n, l]);
        let s = g.sum_axis(y, 1);
        let pred = g.scale(s, 1.0 / l as f32);
        let loss = mse_loss(&mut g, pred, &ys);
        final_loss = g.value(loss).item();
        g.backward(loss);
        bind.harvest(&g, &mut store);
        store.clip_grad_norm(5.0);
        opt.step(&mut store);
    }
    // Predicting the mean would leave variance ≈ E[x²] ≈ 1/3.
    assert!(final_loss < 0.1, "attention lookup loss {final_loss}");
}

/// The LSTM learns a order-sensitive task: predict the *last* nonzero input
/// of the sequence (requires remembering recency, not just content).
#[test]
fn lstm_learns_recency() {
    let l = 5usize;
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(3);
    let lstm = Lstm::new(&mut store, &mut rng, "lstm", 1, 12);
    let head = Linear::new(&mut store, &mut rng, "head", 12, 1);
    let mut opt = Adam::new(5e-3);

    let mut final_loss = f32::INFINITY;
    for _ in 0..400 {
        let n = 16;
        let mut xs = Vec::with_capacity(n * l);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let mut target = 0.0f32;
            for _pos in 0..l {
                let v: f32 = if rng.gen_bool(0.5) {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                };
                if v != 0.0 {
                    target = v;
                }
                xs.push(v);
            }
            ys.push(target);
        }
        let mut g = Graph::new();
        let mut bind = Binding::new();
        let x = g.constant(Tensor::from_vec(xs, &[n, l, 1]));
        let y = {
            let mut f = Fwd::new(&mut g, &store, &mut bind);
            let h = lstm.forward(&mut f, x); // [n, l, 12]
            let hl = f.g.select(h, 1, l - 1); // last step
            head.forward(&mut f, hl)
        };
        let pred = g.reshape(y, &[n]);
        let loss = mse_loss(&mut g, pred, &ys);
        final_loss = g.value(loss).item();
        g.backward(loss);
        bind.harvest(&g, &mut store);
        store.clip_grad_norm(5.0);
        opt.step(&mut store);
    }
    // Mean-prediction leaves ≈0.28 MSE; the recurrence must do far better.
    assert!(final_loss < 0.15, "lstm recency loss {final_loss}");
}
