//! Long-lived model parameters and their gradients.
//!
//! Parameters outlive any single autograd tape: a [`ParamStore`] owns their
//! values and accumulated gradients, layers hold [`ParamId`]s, and each
//! training step binds parameters into a fresh [`Graph`] via
//! [`Binding`].

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stable identifier of a parameter inside a [`ParamStore`].
///
/// Ids order by registration index, so `BTreeMap`/`BTreeSet` collections
/// keyed on them iterate deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ParamId(usize);

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// Owns every learnable tensor of a model.
///
/// # Examples
///
/// ```
/// use tlp_nn::{ParamStore, Tensor};
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::zeros(&[2, 2]));
/// assert_eq!(store.value(w).shape(), &[2, 2]);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.shape());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// A parameter's current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter's value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// A parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Mutable access to a parameter's accumulated gradient.
    ///
    /// This is the hook gradient-masking policies use between gradient
    /// accumulation and the optimizer step — e.g. continual adaptation
    /// freezes the shared trunk by zeroing every non-head gradient
    /// (a zero gradient leaves Adam's moments at zero, so the parameter is
    /// bitwise unchanged), or runs a low-learning-rate trunk by scaling
    /// trunk gradients down.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].grad
    }

    /// A parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len()).map(ParamId)
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad = Tensor::zeros(p.value.shape());
        }
    }

    /// Adds `g` into the accumulated gradient of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from the parameter shape.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Global L2 norm of all gradients (used for clipping diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.sq_norm())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so their global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                p.grad.scale_assign(s);
            }
        }
    }

    /// In-place update `value += delta` for an optimizer step.
    pub fn apply_delta(&mut self, id: ParamId, delta: &Tensor) {
        self.params[id.0].value.add_assign(delta);
    }
}

/// Per-tape cache binding store parameters to graph leaves.
///
/// Bind once per forward pass, then use [`Binding::var`] inside layer code;
/// after `backward`, [`Binding::harvest`] copies leaf gradients back into the
/// store.
#[derive(Debug, Default)]
pub struct Binding {
    /// Keyed by id so iteration (harvest) runs in registration order —
    /// deterministic regardless of bind order.
    bound: BTreeMap<ParamId, Var>,
}

impl Binding {
    /// Creates an empty binding for a fresh tape.
    pub fn new() -> Self {
        Binding {
            bound: BTreeMap::new(),
        }
    }

    /// Clears cached leaves so the binding can serve a fresh (or reset) tape.
    pub fn reset(&mut self) {
        self.bound.clear();
    }

    /// Returns the tape variable for `id`, creating the leaf on first use.
    pub fn var(&mut self, g: &mut Graph, store: &ParamStore, id: ParamId) -> Var {
        *self
            .bound
            .entry(id)
            .or_insert_with(|| g.leaf(store.value(id).clone(), true))
    }

    /// Copies gradients from the tape back into the store.
    pub fn harvest(&self, g: &Graph, store: &mut ParamStore) {
        for (&id, &var) in &self.bound {
            if let Some(grad) = g.grad(var) {
                store.accumulate_grad(id, grad);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn roundtrip_through_binding() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let mut g = Graph::new();
        let mut bind = Binding::new();
        let wv = bind.var(&mut g, &store, w);
        let wv2 = bind.var(&mut g, &store, w);
        assert_eq!(wv, wv2, "binding must cache the leaf");
        let s = g.sum_all(wv);
        let s2 = g.scale(s, 3.0);
        g.backward(s2);
        bind.harvest(&g, &mut store);
        assert_eq!(store.grad(w).data(), &[3.0, 3.0]);
        store.zero_grad();
        assert_eq!(store.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_caps_global_norm() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[2]));
        store.accumulate_grad(w, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the max is a no-op.
        store.clip_grad_norm(10.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }
}
