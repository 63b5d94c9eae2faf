//! The Adam optimizer and the learning-rate schedule over a [`ParamStore`].

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Per-epoch learning-rate schedule applied on top of a base rate.
///
/// The TLP training loops all use exponential decay (`lr · 0.9^epoch`);
/// pretraining and fine-tuning keep the rate constant. The schedule lives
/// here so every loop shares one implementation instead of re-deriving
/// `0.9f32.powi(epoch)` in place.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// The base learning rate for every epoch.
    Constant,
    /// `base · decay^epoch`.
    Exponential {
        /// Multiplicative decay per epoch (0.9 in the TLP loops).
        decay: f32,
    },
}

impl LrSchedule {
    /// The decay used by the TLP/MTL/TenSet training loops.
    pub const fn paper_decay() -> Self {
        LrSchedule::Exponential { decay: 0.9 }
    }

    /// Learning rate for `epoch` (0-based) given the base rate.
    pub fn lr_at(&self, base_lr: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base_lr,
            LrSchedule::Exponential { decay } => base_lr * decay.powi(epoch as i32),
        }
    }
}

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Denominator guard.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction, at the standard β₁ 0.9,
/// β₂ 0.999, ε 1e-8 and no weight decay — so a parameter whose gradient is
/// zeroed every step keeps zero moments and never moves.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step using the store's accumulated gradients,
    /// then zeroes them.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<ParamId> = store.ids().collect();
        if self.m.len() != ids.len() {
            self.m = ids
                .iter()
                .map(|&id| Tensor::zeros(store.value(id).shape()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (i, &id) in ids.iter().enumerate() {
            let mut delta = Tensor::zeros(store.value(id).shape());
            {
                let grad = store.grad(id).data();
                let m = self.m[i].data_mut();
                let v = self.v[i].data_mut();
                let d = delta.data_mut();
                for j in 0..grad.len() {
                    let g = grad[j];
                    m[j] = BETA1 * m[j] + (1.0 - BETA1) * g;
                    v[j] = BETA2 * v[j] + (1.0 - BETA2) * g * g;
                    let mhat = m[j] / bc1;
                    let vhat = v[j] / bc2;
                    d[j] = -self.lr * mhat / (vhat.sqrt() + EPS);
                }
            }
            store.apply_delta(id, &delta);
        }
        store.zero_grad();
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::graph::Graph;
    use crate::params::Binding;

    /// Minimizes (w - 3)^2 and checks convergence.
    fn converges(mut opt: Adam) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        for _ in 0..400 {
            let mut g = Graph::new();
            let mut bind = Binding::new();
            let wv = bind.var(&mut g, &store, w);
            let c = g.constant(Tensor::scalar(3.0));
            let d = g.sub(wv, c);
            let sq = g.mul(d, d);
            let loss = g.sum_all(sq);
            g.backward(loss);
            bind.harvest(&g, &mut store);
            opt.step(&mut store);
        }
        store.value(w).item()
    }

    #[test]
    fn adam_converges_to_minimum() {
        let w = converges(Adam::new(0.05));
        assert!((w - 3.0).abs() < 1e-2, "got {w}");
    }

    #[test]
    fn lr_schedule_matches_legacy_decay() {
        let s = LrSchedule::paper_decay();
        for epoch in 0..8 {
            let legacy = 1e-3 * 0.9f32.powi(epoch as i32);
            assert_eq!(s.lr_at(1e-3, epoch), legacy);
        }
        assert_eq!(LrSchedule::Constant.lr_at(0.5, 7), 0.5);
    }
}
