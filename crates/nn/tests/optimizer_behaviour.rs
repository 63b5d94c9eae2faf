//! Behavioural tests of the Adam optimizer on classic objectives.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp_nn::{Adam, Binding, Graph, ParamStore, Tensor};

/// One gradient step of the Rosenbrock-ish ill-conditioned quadratic
/// `f(x, y) = x² + 25·y²`.
fn quad_step(
    store: &mut ParamStore,
    ids: (tlp_nn::ParamId, tlp_nn::ParamId),
    opt: &mut Adam,
) -> f32 {
    let (xid, yid) = ids;
    let mut g = Graph::new();
    let mut bind = Binding::new();
    let x = bind.var(&mut g, store, xid);
    let y = bind.var(&mut g, store, yid);
    let x2 = g.mul(x, x);
    let y2 = g.mul(y, y);
    let y2s = g.scale(y2, 25.0);
    let sum = g.add(x2, y2s);
    let loss = g.sum_all(sum);
    let val = g.value(loss).item();
    g.backward(loss);
    bind.harvest(&g, store);
    opt.step(store);
    val
}

#[test]
fn adam_handles_ill_conditioning() {
    let mut store = ParamStore::new();
    let x = store.add("x", Tensor::scalar(3.0));
    let y = store.add("y", Tensor::scalar(3.0));
    let mut opt = Adam::new(0.1);
    let mut last = f32::INFINITY;
    for _ in 0..150 {
        last = quad_step(&mut store, (x, y), &mut opt);
    }
    // The stiff direction does not hold back the flat one.
    assert!(last < 1e-2, "adam should essentially solve it: {last}");
}

#[test]
fn learning_rate_override_takes_effect() {
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::scalar(1.0));
    let mut opt = Adam::new(0.1);
    opt.set_learning_rate(0.0);
    assert_eq!(opt.learning_rate(), 0.0);
    // Gradient present but lr 0 → no movement.
    store.accumulate_grad(w, &Tensor::scalar(5.0));
    opt.step(&mut store);
    assert_eq!(store.value(w).item(), 1.0);
    // Restore lr → movement.
    opt.set_learning_rate(0.1);
    store.accumulate_grad(w, &Tensor::scalar(5.0));
    opt.step(&mut store);
    assert!(store.value(w).item() < 1.0);
}

#[test]
fn step_zeroes_gradients() {
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::scalar(0.0));
    store.accumulate_grad(w, &Tensor::scalar(1.0));
    let mut opt = Adam::new(0.01);
    opt.step(&mut store);
    assert_eq!(store.grad(w).item(), 0.0, "step consumes gradients");
}
