//! `tlp-modelcheck` — the one check a parameter store passes before a model
//! scores with it.
//!
//! A TLP model reads its weights by registration index, and the layout a
//! valid store holds follows entirely from its config and head count. So
//! [`check`] compares a store to a freshly built model's store position by
//! position (same length; at each index the same name and dims), then scans
//! the values for NaN and ±Inf, and names the parameter in a [`StoreFault`].
//!
//! It is a crate of its own only because the system benchmark's frozen
//! lockfile (`tlp-sysbench/Cargo.lock`) pins `tlp → tlp-modelcheck`,
//! `tlp-serve → tlp-modelcheck` and `tlp-modelcheck → {serde, tlp-nn}`.

#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![warn(clippy::disallowed_types)]

use serde::{Deserialize, Serialize};
use std::fmt;
use tlp_nn::ParamStore;

/// One registered parameter's name and dims, as a layout fault reports it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// The registered name.
    pub name: String,
    /// The tensor's dims.
    pub dims: Vec<usize>,
}

/// Why a store cannot back the model its layout describes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreFault {
    /// Position `index` differs from the layout: another name or other
    /// dims, or one side has no parameter there (`None`: the store is
    /// missing one, or holds one more than the layout registers).
    Layout {
        /// Registration index of the first difference.
        index: usize,
        /// What the layout registers at `index`.
        expected: Option<Slot>,
        /// What the store holds at `index`.
        found: Option<Slot>,
    },
    /// `count` values of parameter `name` are NaN or infinite.
    NonFinite {
        /// The parameter's registered name.
        name: String,
        /// How many of its values are not finite.
        count: usize,
    },
}

impl fmt::Display for StoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slot = |s: &Option<Slot>| match s {
            Some(s) => format!("{} {:?}", s.name, s.dims),
            None => "nothing".to_string(),
        };
        match self {
            StoreFault::Layout {
                index,
                expected,
                found,
            } => write!(
                f,
                "position {index} holds {}, the layout registers {}",
                slot(found),
                slot(expected)
            ),
            StoreFault::NonFinite { name, count } => {
                write!(f, "{count} non-finite values in {name}")
            }
        }
    }
}

/// Each parameter's `(name, dims)` in registration order, then `None`.
fn slots(store: &ParamStore) -> impl Iterator<Item = Option<(&str, &[usize])>> {
    store
        .ids()
        .map(|id| Some((store.name(id), store.value(id).shape())))
        .chain(std::iter::repeat(None))
}

/// Checks `store` against `layout`, the store of a freshly built model of
/// the same config and head count: position by position the same name and
/// dims, then every value finite. Gradients are not read; they are never
/// persisted and never scored with.
///
/// # Errors
///
/// Returns the first [`StoreFault::Layout`] difference, else the first
/// parameter holding a non-finite value ([`StoreFault::NonFinite`]).
pub fn check(layout: &ParamStore, store: &ParamStore) -> Result<(), StoreFault> {
    let positions = layout.len().max(store.len());
    for (index, (want, have)) in slots(layout).zip(slots(store)).take(positions).enumerate() {
        if want != have {
            let slot = |s: Option<(&str, &[usize])>| {
                s.map(|(name, dims)| Slot {
                    name: name.to_string(),
                    dims: dims.to_vec(),
                })
            };
            return Err(StoreFault::Layout {
                index,
                expected: slot(want),
                found: slot(have),
            });
        }
    }
    for id in store.ids() {
        let data = store.value(id).data();
        let count = data.iter().filter(|x| !x.is_finite()).count();
        if count > 0 {
            return Err(StoreFault::NonFinite {
                name: store.name(id).to_string(),
                count,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp_nn::{ParamId, Tensor};

    /// A shared trunk and two heads, registered in `order`.
    fn toy(order: &[usize]) -> ParamStore {
        let params: [(&str, &[usize]); 6] = [
            ("backbone.up.w", &[3, 4]),
            ("backbone.up.b", &[4]),
            ("head0.out.w", &[4, 1]),
            ("head0.out.b", &[1]),
            ("head1.out.w", &[4, 1]),
            ("head1.out.b", &[1]),
        ];
        let mut store = ParamStore::new();
        for &(name, dims) in order.iter().map(|&i| &params[i]) {
            store.add(
                name,
                Tensor::from_vec(vec![0.25; dims.iter().product()], dims),
            );
        }
        store
    }

    /// The index and found name of `store`'s layout fault.
    fn fault_at(store: &ParamStore) -> (usize, Option<String>) {
        match check(&toy(&[0, 1, 2, 3, 4, 5]), store) {
            Err(StoreFault::Layout { index, found, .. }) => (index, found.map(|s| s.name)),
            other => panic!("expected a layout fault, got {other:?}"),
        }
    }

    #[test]
    fn every_layout_difference_is_a_fault_at_its_index() {
        let found = |name: &str| Some(name.to_string());
        assert_eq!(fault_at(&toy(&[0, 1, 2, 3, 4])), (5, None));
        assert_eq!(
            fault_at(&toy(&[0, 1, 2, 3, 4, 5, 5])),
            (6, found("head1.out.b"))
        );
        assert_eq!(
            fault_at(&toy(&[0, 1, 1, 3, 4, 5])),
            (2, found("backbone.up.b"))
        );
        // Same names and dims in another order: a name-keyed compare passes
        // this, but the model would bind head1's weights as head0's.
        assert_eq!(
            fault_at(&toy(&[0, 1, 4, 3, 2, 5])),
            (2, found("head1.out.w"))
        );
        let mut transposed = toy(&[0, 1, 2, 3, 4, 5]);
        let first = transposed.ids().next().expect("params");
        *transposed.value_mut(first) = Tensor::zeros(&[4, 3]);
        assert_eq!(fault_at(&transposed), (0, found("backbone.up.w")));
    }

    #[test]
    fn only_non_finite_values_fail_and_are_counted_on_the_named_param() {
        let layout = toy(&[0, 1, 2, 3, 4, 5]);
        let mut store = layout.clone();
        let ids: Vec<ParamId> = store.ids().collect();
        // Denormals, an all-zero matrix and gradient residue all pass.
        store.value_mut(ids[2]).data_mut()[1] = 1.0e-40;
        store.value_mut(ids[0]).data_mut().fill(0.0);
        store.grad_mut(ids[1]).data_mut()[0] = f32::NAN;
        assert_eq!(check(&layout, &store), Ok(()));
        store.value_mut(ids[4]).data_mut()[..3].copy_from_slice(&[f32::NAN, 1.0, f32::INFINITY]);
        let fault = check(&layout, &store).expect_err("two non-finite values");
        assert_eq!(fault.to_string(), "2 non-finite values in head1.out.w");
    }
}
