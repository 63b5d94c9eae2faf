//! Model specs for the `tlp-modelcheck` static analyzer.
//!
//! The analyzer audits a [`ParamStore`](tlp_nn::ParamStore) against a
//! [`ModelSpec`] — the ground-truth parameter layout of an architecture.
//! For TLP that ground truth is derivable from a [`TlpConfig`] alone:
//! constructing a fresh model registers exactly the parameters (names and
//! shapes) a valid snapshot must carry, regardless of what the snapshot's
//! possibly-corrupted store claims. These helpers build that spec.
//!
//! Persist ([`SavedTlp::audit`](crate::SavedTlp::audit)), serving
//! (`tlp-serve` install gate), the continual loop's entry audit, and the
//! trainer's coverage check all consume these specs; see
//! `crates/modelcheck` for the M-code catalogue.

use crate::config::TlpConfig;
use crate::model::TlpModel;
use crate::mtl::MtlTlp;
use tlp_modelcheck::ModelSpec;

/// The expected parameter layout of a single-task TLP model for `config`:
/// a `backbone.*` trunk plus one `head.*` head.
///
/// Built by registering a fresh [`TlpModel`] — the spec is exact by
/// construction, never hand-maintained.
pub fn tlp_spec(config: &TlpConfig) -> ModelSpec {
    let model = TlpModel::new(config.clone());
    ModelSpec::from_store(&model.store, vec!["head.".to_string()], None)
}

/// The expected parameter layout of an MTL-TLP model for `config` with
/// `heads` heads: a shared `backbone.*` trunk plus `head0.*` … heads.
///
/// # Panics
///
/// Panics if `heads` is zero (MTL needs at least one task).
pub fn mtl_spec(config: &TlpConfig, heads: usize) -> ModelSpec {
    let model = MtlTlp::new(config.clone(), heads);
    let prefixes = (0..heads).map(|i| format!("head{i}.")).collect();
    ModelSpec::from_store(&model.store, prefixes, Some("head".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_modelcheck::audit_store;

    #[test]
    fn fresh_models_audit_clean() {
        let cfg = TlpConfig::test_scale();
        let tlp = TlpModel::new(cfg.clone());
        let report = audit_store(&tlp_spec(&cfg), &tlp.store);
        assert!(report.passes(), "fresh TLP must audit clean: {report}");

        let mtl = MtlTlp::new(cfg.clone(), 3);
        let report = audit_store(&mtl_spec(&cfg, 3), &mtl.store);
        assert!(report.passes(), "fresh MTL must audit clean: {report}");
    }

    #[test]
    fn spec_head_partition_matches_model() {
        let cfg = TlpConfig::test_scale();
        let mtl = MtlTlp::new(cfg.clone(), 2);
        let spec = mtl_spec(&cfg, 2);
        // Every store param the model classifies as head-owned must be
        // head-owned under the spec, and vice versa.
        for task in 0..2 {
            for id in mtl.head_param_ids(task) {
                assert_eq!(spec.head_of(mtl.store.name(id)), Some(task));
            }
        }
        for id in mtl.trunk_param_ids() {
            assert_eq!(spec.head_of(mtl.store.name(id)), None);
        }
    }
}
