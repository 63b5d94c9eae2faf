//! What a model's [`ParamStore`] is *supposed* to contain.
//!
//! A [`ModelSpec`] is the analyzer's ground truth: one [`ParamSpec`] per
//! expected parameter (name + shape) plus the head partition (one name
//! prefix per platform head). Embedders build it from a freshly constructed
//! model of the same architecture config — the constructor *is* the spec,
//! so the analyzer never drifts from the real registration order — via
//! [`ModelSpec::from_store`].
//!
//! A [`CoverageSpec`] is the analogous ground truth for the gradient-
//! coverage pass: which heads the objective trains and which parameter ids
//! a `postprocess_grads` mask freezes.

use serde::{Deserialize, Serialize};
use tlp_nn::{ParamId, ParamStore};

/// One expected parameter: registered name and exact shape.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// The name the architecture registers the parameter under.
    pub name: String,
    /// The exact dims the architecture allocates.
    pub shape: Vec<usize>,
}

/// The architecture's expectation for a whole model store.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Every expected parameter, in registration order.
    pub params: Vec<ParamSpec>,
    /// One name prefix per head, in head order (e.g. `"head0."`). Every
    /// parameter not matching a head prefix belongs to the shared trunk.
    pub head_prefixes: Vec<String>,
    /// Parameter names of the form `{stem}{digits}.` claim a head index;
    /// indices at or beyond `head_prefixes.len()` are flagged
    /// ([`Code::HeadIndexOutOfRange`](crate::Code::HeadIndexOutOfRange)).
    pub head_stem: String,
}

impl ModelSpec {
    /// Builds the spec from a reference store — typically one freshly
    /// constructed from the architecture config, whose registrations are by
    /// definition correct.
    pub fn from_store(store: &ParamStore, head_prefixes: Vec<String>, head_stem: &str) -> Self {
        let params = store
            .ids()
            .map(|id| ParamSpec {
                name: store.name(id).to_string(),
                shape: store.value(id).shape().to_vec(),
            })
            .collect();
        ModelSpec {
            params,
            head_prefixes,
            head_stem: head_stem.to_string(),
        }
    }

    /// Number of declared heads.
    pub fn heads(&self) -> usize {
        self.head_prefixes.len()
    }

    /// Total number of scalar weights the spec expects.
    pub fn num_weights(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.shape.iter().product::<usize>())
            .sum()
    }

    /// The head index a parameter name belongs to, if any.
    pub fn head_of(&self, name: &str) -> Option<usize> {
        self.head_prefixes
            .iter()
            .position(|p| name.starts_with(p.as_str()))
    }
}

/// Which heads an objective trains.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainedHeads {
    /// Every head receives gradient (the offline MTL objective).
    All,
    /// Only the listed head indices receive gradient (continual adaptation
    /// of one platform head).
    Heads(Vec<usize>),
}

impl TrainedHeads {
    /// Whether head `idx` is trained.
    pub fn covers(&self, idx: usize) -> bool {
        match self {
            TrainedHeads::All => true,
            TrainedHeads::Heads(list) => list.contains(&idx),
        }
    }
}

/// Ground truth for the gradient-coverage pass: what an objective reaches
/// and what its gradient mask freezes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageSpec {
    /// One name prefix per head, in head order.
    pub head_prefixes: Vec<String>,
    /// Heads the objective back-propagates into. Trunk parameters feed
    /// every head, so they are reachable whenever any head is trained.
    pub trained: TrainedHeads,
    /// Parameter ids a `postprocess_grads` mask zeroes (frozen-trunk /
    /// frozen-old-heads continual adaptation).
    pub frozen: Vec<ParamId>,
}

impl CoverageSpec {
    /// A spec for an objective that trains everything and freezes nothing.
    pub fn full(head_prefixes: Vec<String>) -> Self {
        CoverageSpec {
            head_prefixes,
            trained: TrainedHeads::All,
            frozen: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_nn::Tensor;

    #[test]
    fn spec_from_store_captures_names_and_shapes() {
        let mut store = ParamStore::new();
        store.add("backbone.up1.w", Tensor::zeros(&[3, 4]));
        store.add("head0.out1.w", Tensor::zeros(&[4, 2]));
        let spec = ModelSpec::from_store(&store, vec!["head0.".into()], "head");
        assert_eq!(spec.params.len(), 2);
        assert_eq!(spec.params[0].name, "backbone.up1.w");
        assert_eq!(spec.params[1].shape, vec![4, 2]);
        assert_eq!(spec.heads(), 1);
        assert_eq!(spec.num_weights(), 20);
        assert_eq!(spec.head_of("head0.out1.w"), Some(0));
        assert_eq!(spec.head_of("backbone.up1.w"), None);
    }

    #[test]
    fn trained_heads_covers() {
        assert!(TrainedHeads::All.covers(7));
        let some = TrainedHeads::Heads(vec![2]);
        assert!(some.covers(2));
        assert!(!some.covers(0));
    }
}
