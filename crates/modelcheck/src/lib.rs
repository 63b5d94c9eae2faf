//! `tlp-modelcheck` — a multi-pass static analyzer for model parameter
//! stores.
//!
//! The schedule language has a verifier (`tlp-verify`, V-codes); this crate
//! is its counterpart for the *model* layer. It audits a
//! [`ParamStore`](tlp_nn::ParamStore) against the architecture's
//! [`ModelSpec`] and emits typed [`Diagnostic`]s with append-only stable
//! M-codes:
//!
//! 1. **shape/arity** (`M1xx`): every expected parameter exists with the
//!    exact dims the config allocates; no missing, orphan, duplicate, or
//!    empty parameters.
//! 2. **partition integrity** (`M2xx`): trunk vs head parameter sets are
//!    disjoint and jointly exhaustive, every declared head is populated,
//!    and all heads share head 0's layout — the invariants MTL head growth
//!    and the frozen-trunk continual guarantee rely on.
//! 3. **numeric audit** (`M3xx`): NaN/Inf/denormal scan, dead-tensor
//!    (all-zero weight matrix) detection, non-finite gradient residue.
//! 4. **gradient coverage** (`M4xx`): a static dataflow check
//!    ([`check_coverage`]) that every trainable parameter is reachable
//!    from the loss, validating `postprocess_grads` masks.
//!
//! Passes 1–3 run from [`audit_store`]; pass 4 runs separately because its
//! ground truth is the *objective* (a [`CoverageSpec`]), not the
//! architecture. All passes are read-only: gating a restore, install, or
//! training run on them is RNG-neutral and bit-identical on valid models.
//! The analyzer is a single sweep over the store (memory-bound; hundreds of
//! millions of params/s — see `tlp-cli audit-model`).

#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![warn(clippy::disallowed_types)]

mod coverage;
mod diagnostic;
mod numeric;
mod partition;
mod shape;
mod spec;

pub use diagnostic::{AuditReport, AuditSummary, Code, Diagnostic, Severity};
pub use spec::{CoverageSpec, ModelSpec, ParamSpec, TrainedHeads};

use tlp_nn::ParamStore;

/// Audits a store with the three structural passes (1–3).
pub fn audit_store(spec: &ModelSpec, store: &ParamStore) -> AuditReport {
    let mut out = Vec::new();
    shape::check(spec, store, &mut out);
    partition::check(spec, store, &mut out);
    numeric::check(store, &mut out);
    AuditReport::new(out)
}

/// Runs pass 4 — gradient coverage of an objective over a store.
pub fn check_coverage(store: &ParamStore, cov: &CoverageSpec) -> AuditReport {
    let mut out = Vec::new();
    coverage::check(store, cov, &mut out);
    AuditReport::new(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp_nn::{ParamId, ParamStore, Tensor};

    /// A two-head toy model: shared trunk + per-head linear.
    fn toy() -> (ModelSpec, ParamStore) {
        let mut store = ParamStore::new();
        store.add("backbone.up.w", Tensor::from_vec(vec![0.1; 12], &[3, 4]));
        store.add("backbone.up.b", Tensor::zeros(&[4]));
        for h in 0..2 {
            store.add(
                format!("head{h}.out.w"),
                Tensor::from_vec(vec![0.2; 4], &[4, 1]),
            );
            store.add(format!("head{h}.out.b"), Tensor::zeros(&[1]));
        }
        let spec = ModelSpec::from_store(&store, vec!["head0.".into(), "head1.".into()], "head");
        (spec, store)
    }

    fn prefixes(n: usize) -> Vec<String> {
        (0..n).map(|h| format!("head{h}.")).collect()
    }

    #[test]
    fn valid_store_audits_clean() {
        let (spec, store) = toy();
        let r = audit_store(&spec, &store);
        assert!(r.is_clean(), "unexpected findings:\n{r}");
    }

    #[test]
    fn missing_and_orphan_params_flagged() {
        let (spec, _) = toy();
        let mut store = ParamStore::new();
        store.add("backbone.up.w", Tensor::from_vec(vec![0.1; 12], &[3, 4]));
        store.add("backbone.up.b", Tensor::zeros(&[4]));
        store.add("head0.out.w", Tensor::from_vec(vec![0.2; 4], &[4, 1]));
        store.add("head0.out.b", Tensor::zeros(&[1]));
        store.add("head1.out.w", Tensor::from_vec(vec![0.2; 4], &[4, 1]));
        // head1.out.b missing, plus one orphan:
        store.add("bogus.w", Tensor::zeros(&[2, 2]));
        let r = audit_store(&spec, &store);
        assert!(r.has_code(Code::MissingParam));
        assert!(r.has_code(Code::OrphanParam));
        assert!(r.has_errors());
    }

    #[test]
    fn shape_mismatch_and_duplicates_flagged() {
        let (spec, _) = toy();
        let mut store = ParamStore::new();
        store.add("backbone.up.w", Tensor::from_vec(vec![0.1; 12], &[4, 3])); // transposed
        store.add("backbone.up.b", Tensor::zeros(&[4]));
        store.add("backbone.up.b", Tensor::zeros(&[4])); // duplicate
        for h in 0..2 {
            store.add(
                format!("head{h}.out.w"),
                Tensor::from_vec(vec![0.2; 4], &[4, 1]),
            );
            store.add(format!("head{h}.out.b"), Tensor::zeros(&[1]));
        }
        let r = audit_store(&spec, &store);
        assert!(r.has_code(Code::ShapeMismatch));
        assert!(r.has_code(Code::DuplicateParamName));
    }

    #[test]
    fn undeclared_head_and_empty_head_flagged() {
        let (spec, mut store) = toy();
        store.add("head5.out.w", Tensor::from_vec(vec![0.2; 4], &[4, 1]));
        let r = audit_store(&spec, &store);
        assert!(r.has_code(Code::HeadIndexOutOfRange));
        assert!(
            r.has_code(Code::OrphanParam),
            "undeclared head params are also orphans"
        );

        // A spec declaring a third head the store lacks → empty head.
        let (_, store) = toy();
        let spec3 = ModelSpec {
            head_prefixes: prefixes(3),
            ..toy().0
        };
        let r = audit_store(&spec3, &store);
        assert!(r.has_code(Code::EmptyHead));
    }

    #[test]
    fn head_layout_divergence_flagged() {
        let (spec, _) = toy();
        let mut store = ParamStore::new();
        store.add("backbone.up.w", Tensor::from_vec(vec![0.1; 12], &[3, 4]));
        store.add("backbone.up.b", Tensor::zeros(&[4]));
        store.add("head0.out.w", Tensor::from_vec(vec![0.2; 4], &[4, 1]));
        store.add("head0.out.b", Tensor::zeros(&[1]));
        // head1 carries a differently named weight → layout mismatch (and
        // M101/M102 from pass 1).
        store.add("head1.other.w", Tensor::from_vec(vec![0.2; 4], &[4, 1]));
        store.add("head1.out.b", Tensor::zeros(&[1]));
        let r = audit_store(&spec, &store);
        assert!(r.has_code(Code::HeadLayoutMismatch));
    }

    #[test]
    fn numeric_pass_flags_nan_denormal_dead() {
        let (spec, mut store) = toy();
        let ids: Vec<ParamId> = store.ids().collect();
        store.value_mut(ids[0]).data_mut()[0] = f32::NAN;
        store.value_mut(ids[2]).data_mut()[1] = 1.0e-40; // subnormal
        for x in store.value_mut(ids[4]).data_mut() {
            *x = 0.0; // dead head1.out.w
        }
        store.grad_mut(ids[1]).data_mut()[0] = f32::INFINITY;
        let r = audit_store(&spec, &store);
        assert!(r.has_code(Code::NonFiniteValue));
        assert!(r.has_code(Code::DenormalValue));
        assert!(r.has_code(Code::DeadTensor));
        assert!(r.has_code(Code::NonFiniteGradient));
        // NaN is an error; denormal/dead/grad are not.
        assert!(r.has_errors());
        let s = r.summary();
        assert_eq!(s.errors, 1);
        assert!(s.warnings >= 2);
        assert_eq!(s.lints, 1);
    }

    #[test]
    fn coverage_clean_for_full_objective() {
        let (_, store) = toy();
        let cov = CoverageSpec::full(prefixes(2));
        assert!(check_coverage(&store, &cov).is_clean());
    }

    #[test]
    fn coverage_flags_untrained_unfrozen_head() {
        let (_, store) = toy();
        // Objective trains only head 1 but freezes nothing → head 0 params
        // would silently never train.
        let cov = CoverageSpec {
            head_prefixes: prefixes(2),
            trained: TrainedHeads::Heads(vec![1]),
            frozen: Vec::new(),
        };
        let r = check_coverage(&store, &cov);
        assert!(r.has_code(Code::UnreachableParam));
        assert!(r.has_errors());
    }

    #[test]
    fn coverage_accepts_exhaustive_frozen_mask() {
        let (_, store) = toy();
        // Frozen-trunk continual adaptation of head 1: trunk + head 0 frozen.
        let frozen: Vec<ParamId> = store
            .ids()
            .filter(|&id| !store.name(id).starts_with("head1."))
            .collect();
        let cov = CoverageSpec {
            head_prefixes: prefixes(2),
            trained: TrainedHeads::Heads(vec![1]),
            frozen,
        };
        assert!(check_coverage(&store, &cov).is_clean());
    }

    #[test]
    fn coverage_flags_total_freeze_and_frozen_trained_head() {
        let (_, store) = toy();
        let all: Vec<ParamId> = store.ids().collect();
        let cov = CoverageSpec {
            head_prefixes: prefixes(2),
            trained: TrainedHeads::All,
            frozen: all,
        };
        let r = check_coverage(&store, &cov);
        assert!(r.has_code(Code::NothingTrainable));
        assert!(r.has_code(Code::FrozenTrainedParam));
    }

    #[test]
    fn coverage_rejects_foreign_frozen_id() {
        let (_, store) = toy();
        let mut big = ParamStore::new();
        for i in 0..10 {
            big.add(format!("p{i}"), Tensor::zeros(&[1]));
        }
        let foreign = big.ids().last().unwrap(); // index 9, beyond toy's 6
        let cov = CoverageSpec {
            head_prefixes: prefixes(2),
            trained: TrainedHeads::All,
            frozen: vec![foreign],
        };
        assert!(check_coverage(&store, &cov).has_code(Code::UnknownFrozenId));
    }
}
