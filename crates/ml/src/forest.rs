//! Random Forest: bagged CART trees with per-split feature subsampling —
//! the model LiteForm ships for both predictors (§6, Tables 5–6).

use crate::tree::DecisionTree;
use crate::Classifier;
use lf_sparse::Pcg32;
use serde::{Deserialize, Serialize};

/// Most classes a forest can vote over: prediction counts votes in a
/// fixed stack array of this length, so it never allocates.
pub const MAX_CLASSES: usize = 64;

/// Random forest classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// `n_trees` trees of depth ≤ `max_depth`, deterministic in `seed`.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForest {
            n_trees: n_trees.max(1),
            max_depth,
            seed,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of fitted trees.
    pub fn n_fitted_trees(&self) -> usize {
        self.trees.len()
    }

    /// Check a fitted forest before it is trusted to predict: it was
    /// fitted for exactly `n_classes` classes and has trees, and every
    /// tree is fitted, with child indices that point forward inside its
    /// arena, features below `n_features` and leaf classes below
    /// `n_classes`. A forest that passes predicts on any
    /// `n_features`-long input without panicking.
    pub fn validate(&self, n_features: usize, n_classes: usize) -> Result<(), String> {
        if self.n_classes != n_classes {
            return Err(format!(
                "forest has {} classes, expected {n_classes}",
                self.n_classes
            ));
        }
        if n_classes > MAX_CLASSES {
            return Err(format!("{n_classes} classes exceed {MAX_CLASSES}"));
        }
        if self.trees.is_empty() {
            return Err("forest has no fitted trees".into());
        }
        for (t, tree) in self.trees.iter().enumerate() {
            tree.validate(n_features, n_classes)
                .map_err(|e| format!("tree {t}: {e}"))?;
        }
        Ok(())
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "Random Forest"
    }

    /// Panics on an empty dataset or more than [`MAX_CLASSES`] classes.
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert!(
            n_classes <= MAX_CLASSES,
            "{n_classes} classes exceed the forest's {MAX_CLASSES}"
        );
        self.n_classes = n_classes;
        self.trees.clear();
        let n = x.len();
        let n_features = x[0].len();
        let k = (n_features as f64).sqrt().ceil() as usize;
        let mut rng = Pcg32::seed_from_u64(self.seed);
        for t in 0..self.n_trees {
            // Bootstrap sample.
            let mut bx = Vec::with_capacity(n);
            let mut by = Vec::with_capacity(n);
            for _ in 0..n {
                let i = rng.usize_in(0, n);
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            let mut tree = DecisionTree::with_feature_subsample(
                self.max_depth,
                k,
                self.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1,
            );
            tree.fit(&bx, &by, n_classes);
            self.trees.push(tree);
        }
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.trees.is_empty(), "fit before predict");
        let mut votes = [0u32; MAX_CLASSES];
        for tree in &self.trees {
            votes[tree.predict_one(x)] += 1;
        }
        votes[..self.n_classes.max(1)]
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map_or(0, |(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn noisy_blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let c = if label == 0 { -1.0 } else { 1.0 };
            x.push(vec![
                c + rng.normal() * 0.8,
                c + rng.normal() * 0.8,
                rng.normal() * 2.0,
            ]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn beats_single_tree_on_noise() {
        let (xtr, ytr) = noisy_blobs(300, 1);
        let (xte, yte) = noisy_blobs(200, 2);
        let mut forest = RandomForest::new(50, 6, 3);
        forest.fit(&xtr, &ytr, 2);
        let acc_f = accuracy(&yte, &forest.predict(&xte));
        let mut tree = DecisionTree::new(20);
        tree.fit(&xtr, &ytr, 2);
        let acc_t = accuracy(&yte, &tree.predict(&xte));
        assert!(acc_f > 0.8, "forest acc {acc_f}");
        assert!(
            acc_f >= acc_t - 0.02,
            "forest ({acc_f}) should not lose to a single deep tree ({acc_t})"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (x, y) = noisy_blobs(100, 5);
        let mut a = RandomForest::new(10, 5, 42);
        let mut b = RandomForest::new(10, 5, 42);
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        for xi in &x {
            assert_eq!(a.predict_one(xi), b.predict_one(xi));
        }
    }

    #[test]
    fn fitted_tree_count() {
        let (x, y) = noisy_blobs(60, 6);
        let mut f = RandomForest::new(17, 4, 1);
        f.fit(&x, &y, 2);
        assert_eq!(f.n_fitted_trees(), 17);
    }

    #[test]
    fn serde_round_trip() {
        let (x, y) = noisy_blobs(80, 7);
        let mut f = RandomForest::new(8, 4, 9);
        f.fit(&x, &y, 2);
        let json = serde_json::to_string(&f).unwrap();
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        for xi in &x {
            assert_eq!(f.predict_one(xi), back.predict_one(xi));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        let mut f = RandomForest::new(3, 3, 1);
        f.fit(&[], &[], 2);
    }
}
