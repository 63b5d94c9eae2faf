//! Gradient boosting over regression trees (squared-error objective).

use crate::tree::{RegressionTree, TreeParams};
use serde::{Deserialize, Serialize};

/// Hyper-parameters for gradient-boosted regression.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// Per-tree induction parameters.
    pub tree: TreeParams,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 50,
            learning_rate: 0.15,
            tree: TreeParams::default(),
        }
    }
}

/// A gradient-boosted regression ensemble, the reproduction's stand-in for
/// XGBoost as Ansor's online cost model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Gbdt {
    base: f32,
    dim: usize,
    learning_rate: f32,
    trees: Vec<RegressionTree>,
}

impl Gbdt {
    /// Fits an ensemble to `(features, targets)` where `features` is
    /// row-major with `dim` columns.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or an empty dataset.
    pub fn fit(features: &[f32], dim: usize, targets: &[f32], params: &GbdtParams) -> Self {
        let n = targets.len();
        assert!(n > 0, "cannot fit gbdt to an empty dataset");
        assert_eq!(features.len(), n * dim, "feature matrix shape mismatch");
        let base = targets.iter().sum::<f32>() / n as f32;
        let mut residuals: Vec<f32> = targets.iter().map(|&y| y - base).collect();
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            let tree = RegressionTree::fit(features, dim, &residuals, &params.tree);
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= params.learning_rate * tree.predict(&features[i * dim..(i + 1) * dim]);
            }
            trees.push(tree);
        }
        Gbdt {
            base,
            dim,
            learning_rate: params.learning_rate,
            trees,
        }
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn predict(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f32>()
    }

    /// Predicts for a row-major batch.
    pub fn predict_batch(&self, features: &[f32]) -> Vec<f32> {
        features
            .chunks(self.dim)
            .map(|row| self.predict(row))
            .collect()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_quadratic(n: usize) -> (Vec<f32>, Vec<f32>) {
        let xs: Vec<f32> = (0..n).map(|i| i as f32 / n as f32 * 4.0 - 2.0).collect();
        let ys: Vec<f32> = xs.iter().map(|&x| x * x).collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = make_quadratic(200);
        let model = Gbdt::fit(&xs, 1, &ys, &GbdtParams::default());
        let mse: f32 = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| {
                let p = model.predict(&[x]);
                (p - y) * (p - y)
            })
            .sum::<f32>()
            / xs.len() as f32;
        assert!(mse < 0.05, "mse {mse}");
    }

    #[test]
    fn more_trees_fit_better() {
        let (xs, ys) = make_quadratic(200);
        let mse = |n_trees: usize| {
            let model = Gbdt::fit(
                &xs,
                1,
                &ys,
                &GbdtParams {
                    n_trees,
                    ..GbdtParams::default()
                },
            );
            xs.iter()
                .zip(&ys)
                .map(|(&x, &y)| (model.predict(&[x]) - y).powi(2))
                .sum::<f32>()
                / xs.len() as f32
        };
        assert!(mse(40) < mse(3));
    }

    #[test]
    fn batch_prediction_matches_single() {
        let (xs, ys) = make_quadratic(50);
        let model = Gbdt::fit(&xs, 1, &ys, &GbdtParams::default());
        let batch = model.predict_batch(&xs);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(batch[i], model.predict(&[x]));
        }
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let ys = vec![7.0f32; 20];
        let model = Gbdt::fit(&xs, 1, &ys, &GbdtParams::default());
        assert!((model.predict(&[100.0]) - 7.0).abs() < 1e-4);
    }
}
