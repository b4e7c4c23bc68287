//! The partition-count model (§5.2): a Random Forest over the Table 3
//! density features, classifying into the candidate partition counts.

use crate::training::PartitionSample;
use lf_cost::partition::PARTITION_CANDIDATES;
use lf_ml::{Classifier, RandomForest};
use lf_sparse::PartitionFeatures;
use serde::{Deserialize, Serialize};

/// Pre-trainable optimal-partition classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionPredictor {
    forest: RandomForest,
    trained: bool,
}

impl PartitionPredictor {
    /// Untrained predictor (Random Forest, the paper's pick in Table 6).
    pub fn new(seed: u64) -> Self {
        PartitionPredictor {
            forest: RandomForest::new(60, 12, seed),
            trained: false,
        }
    }

    /// Class index of a partition count within [`PARTITION_CANDIDATES`]
    /// (nearest candidate for off-grid truth values).
    pub fn class_of(p: usize) -> usize {
        PARTITION_CANDIDATES
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| (c as i64 - p as i64).unsigned_abs())
            .map_or(0, |(i, _)| i)
    }

    /// Fit from labelled samples.
    pub fn train(&mut self, samples: &[PartitionSample]) {
        assert!(!samples.is_empty(), "no training samples");
        let x: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| s.features.to_array().to_vec())
            .collect();
        let y: Vec<usize> = samples.iter().map(|s| Self::class_of(s.best_p)).collect();
        self.forest.fit(&x, &y, PARTITION_CANDIDATES.len());
        self.trained = true;
    }

    /// Predict the number of partitions for a matrix/J pair.
    pub fn predict(&self, features: &PartitionFeatures) -> usize {
        assert!(self.trained, "predictor must be trained or loaded");
        PARTITION_CANDIDATES[self.forest.predict_one(&features.to_array())]
    }

    /// Check a loaded predictor: trained, with a forest over the eight
    /// Table 3 features whose classes are exactly the
    /// [`PARTITION_CANDIDATES`], passing [`RandomForest::validate`].
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.trained {
            return Err("predictor is not trained".into());
        }
        self.forest
            .validate(PartitionFeatures::names().len(), PARTITION_CANDIDATES.len())
    }

    /// Whether the model has been fitted.
    pub fn is_trained(&self) -> bool {
        self.trained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(density: f64, j: usize) -> PartitionFeatures {
        PartitionFeatures {
            rows: 10_000.0,
            cols: 10_000.0,
            nnz: density * 1e8,
            avg_density_per_row: density,
            min_density_per_row: 0.0,
            max_density_per_row: density * 4.0,
            std_density_per_row: density / 2.0,
            j_product: j as f64,
        }
    }

    fn synthetic_samples() -> Vec<PartitionSample> {
        // Rule: denser matrices want more partitions.
        let mut out = Vec::new();
        for i in 0..240 {
            let density = 1e-5 * 10f64.powf((i % 4) as f64);
            let best_p = [1, 2, 8, 32][i % 4];
            for &j in &[32usize, 128, 512] {
                out.push(PartitionSample {
                    features: feat(density, j),
                    best_p,
                });
            }
        }
        out
    }

    #[test]
    fn class_mapping_is_nearest() {
        assert_eq!(PartitionPredictor::class_of(1), 0);
        assert_eq!(PartitionPredictor::class_of(2), 1);
        assert_eq!(PartitionPredictor::class_of(3), 1); // nearest of {2,4}
        assert_eq!(PartitionPredictor::class_of(32), 5);
        assert_eq!(PartitionPredictor::class_of(100), 5);
    }

    #[test]
    fn learns_density_rule() {
        let mut p = PartitionPredictor::new(1);
        p.train(&synthetic_samples());
        assert_eq!(p.predict(&feat(1e-5, 128)), 1);
        assert_eq!(p.predict(&feat(1e-2, 128)), 32);
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn untrained_predict_panics() {
        PartitionPredictor::new(1).predict(&feat(1e-3, 64));
    }

    #[test]
    fn serde_round_trip() {
        let mut p = PartitionPredictor::new(2);
        p.train(&synthetic_samples());
        let json = serde_json::to_string(&p).unwrap();
        let back: PartitionPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back.predict(&feat(1e-3, 64)), p.predict(&feat(1e-3, 64)));
    }
}
