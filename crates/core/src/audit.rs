//! Model specs for the `tlp-modelcheck` static analyzer.
//!
//! The analyzer audits a [`ParamStore`](tlp_nn::ParamStore) against a
//! [`ModelSpec`] — the ground-truth parameter layout of an architecture.
//! For TLP that ground truth is derivable from a [`TlpConfig`] and a head
//! count alone: constructing a fresh model registers exactly the parameters
//! (names and shapes) a valid snapshot must carry, regardless of what the
//! snapshot's possibly-corrupted store claims. [`spec`] builds that spec.
//!
//! Persist ([`SavedTlp::audit`](crate::SavedTlp::audit)), serving
//! (`tlp-serve` install gate), the continual loop's entry audit, and the
//! trainer's coverage check all consume it; see
//! `crates/modelcheck` for the M-code catalogue.

use crate::config::TlpConfig;
use crate::model::{TlpHead, TlpModel};
use tlp_modelcheck::ModelSpec;

/// The expected parameter layout of a TLP model for `config` with `heads`
/// heads: a shared `backbone.*` trunk plus one [`TlpHead::prefix`]ed head
/// per platform.
///
/// Built by registering a fresh [`TlpModel`] — the spec is exact by
/// construction, never hand-maintained.
///
/// # Panics
///
/// Panics if `heads` is zero.
pub fn spec(config: &TlpConfig, heads: usize) -> ModelSpec {
    spec_of(&TlpModel::with_heads(config.clone(), heads))
}

/// The layout of a *freshly constructed* `model` — for callers (snapshot
/// restore) that are about to build that model anyway.
pub(crate) fn spec_of(model: &TlpModel) -> ModelSpec {
    ModelSpec::from_store(&model.store, model.head_prefixes(), TlpHead::STEM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_modelcheck::audit_store;

    #[test]
    fn fresh_models_audit_clean() {
        let cfg = TlpConfig::test_scale();
        for heads in [1usize, 3] {
            let model = TlpModel::with_heads(cfg.clone(), heads);
            let report = audit_store(&spec(&cfg, heads), &model.store);
            assert!(report.passes(), "fresh {heads}-head model: {report}");
        }
    }

    #[test]
    fn spec_head_partition_matches_model() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::with_heads(cfg.clone(), 2);
        let spec = spec(&cfg, 2);
        // Every store param the model classifies as head-owned must be
        // head-owned under the spec, and vice versa.
        for task in 0..2 {
            for id in model.head_param_ids(task) {
                assert_eq!(spec.head_of(model.store.name(id)), Some(task));
            }
        }
        for id in model.trunk_param_ids() {
            assert_eq!(spec.head_of(model.store.name(id)), None);
        }
    }
}
