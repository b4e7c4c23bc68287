//! The format-selection model (§5.1): a Random Forest over the seven
//! Table 2 features predicting whether CELL will beat the fixed formats.

use crate::training::FormatSelectionSample;
use lf_ml::{Classifier, RandomForest};
use lf_sparse::FormatFeatures;
use serde::{Deserialize, Serialize};

/// Pre-trainable CELL-vs-fixed classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FormatSelector {
    forest: RandomForest,
    trained: bool,
}

impl FormatSelector {
    /// Untrained selector with the paper's chosen model family
    /// (Random Forest, Table 5).
    pub fn new(seed: u64) -> Self {
        FormatSelector {
            forest: RandomForest::new(60, 12, seed),
            trained: false,
        }
    }

    /// Fit from labelled samples.
    pub fn train(&mut self, samples: &[FormatSelectionSample]) {
        assert!(!samples.is_empty(), "no training samples");
        let x: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| s.features.to_array().to_vec())
            .collect();
        let y: Vec<usize> = samples.iter().map(|s| usize::from(s.use_cell)).collect();
        self.forest.fit(&x, &y, 2);
        self.trained = true;
    }

    /// Predict whether to compose CELL for a matrix with these features.
    pub fn predict(&self, features: &FormatFeatures) -> bool {
        assert!(self.trained, "selector must be trained or loaded");
        self.forest.predict_one(&features.to_array()) == 1
    }

    /// Check a loaded selector: trained, with a two-class forest over
    /// the seven Table 2 features that passes
    /// [`RandomForest::validate`].
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.trained {
            return Err("selector is not trained".into());
        }
        self.forest.validate(FormatFeatures::names().len(), 2)
    }

    /// Whether the model has been fitted.
    pub fn is_trained(&self) -> bool {
        self.trained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(rows: f64, std: f64) -> FormatFeatures {
        FormatFeatures {
            rows,
            cols: rows,
            nnz: rows * 8.0,
            avg_nnz_per_row: 8.0,
            min_nnz_per_row: 0.0,
            max_nnz_per_row: 8.0 + std * 10.0,
            std_nnz_per_row: std,
        }
    }

    fn synthetic_samples() -> Vec<FormatSelectionSample> {
        // Rule to learn: high row-length variance => CELL wins.
        (0..200)
            .map(|i| {
                let std = (i % 20) as f64;
                FormatSelectionSample {
                    features: feat(1000.0 + i as f64, std),
                    use_cell: std > 10.0,
                    times_ms: (1.0, 1.0, 1.0),
                }
            })
            .collect()
    }

    #[test]
    fn learns_variance_rule() {
        let mut sel = FormatSelector::new(1);
        sel.train(&synthetic_samples());
        assert!(sel.predict(&feat(1500.0, 18.0)));
        assert!(!sel.predict(&feat(1500.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn untrained_predict_panics() {
        FormatSelector::new(1).predict(&feat(10.0, 1.0));
    }

    #[test]
    fn serde_round_trip() {
        let mut sel = FormatSelector::new(2);
        sel.train(&synthetic_samples());
        let json = serde_json::to_string(&sel).unwrap();
        let back: FormatSelector = serde_json::from_str(&json).unwrap();
        assert!(back.is_trained());
        assert_eq!(
            back.predict(&feat(1200.0, 15.0)),
            sel.predict(&feat(1200.0, 15.0))
        );
    }
}
