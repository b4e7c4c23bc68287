//! Persistence for trained LiteForm pipelines: a JSON bundle of both
//! models plus provenance metadata, so the one-off training cost (§8) is
//! paid once and shipped.

use crate::composer::LiteForm;
use crate::predictor::PartitionPredictor;
use crate::selector::FormatSelector;
use lf_sim::DeviceModel;
use lf_sparse::{Result, SparseError};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A serializable trained pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Bundle format version.
    pub version: u32,
    /// Free-form provenance (corpus spec, sample counts, date).
    pub provenance: String,
    /// Trained format selector.
    pub selector: FormatSelector,
    /// Trained partition predictor.
    pub predictor: PartitionPredictor,
    /// Device model the training targeted.
    pub device: DeviceModel,
}

impl ModelBundle {
    /// Current bundle version.
    pub const VERSION: u32 = 1;

    /// Wrap a trained pipeline.
    pub fn from_liteform(lf: &LiteForm, provenance: impl Into<String>) -> Self {
        ModelBundle {
            version: Self::VERSION,
            provenance: provenance.into(),
            selector: lf.selector.clone(),
            predictor: lf.predictor.clone(),
            device: lf.device.clone(),
        }
    }

    /// Rehydrate the pipeline.
    pub fn into_liteform(self) -> LiteForm {
        LiteForm::new(self.selector, self.predictor, self.device)
    }

    /// Save as JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| SparseError::InvalidFormat(format!("serialize bundle: {e}")))?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Load from JSON, refusing a bundle that fails
    /// [`ModelBundle::validate`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let bundle: ModelBundle = serde_json::from_str(&json)
            .map_err(|e| SparseError::InvalidFormat(format!("parse bundle: {e}")))?;
        bundle.validate()?;
        Ok(bundle)
    }

    /// Check a decoded bundle before it is trusted to compose: the
    /// supported version, and both models trained with forests whose
    /// child indices point forward within their arenas and whose feature
    /// and class indices fit the model. A bundle that passes predicts on
    /// any features without panicking.
    pub fn validate(&self) -> Result<()> {
        if self.version != Self::VERSION {
            return Err(SparseError::InvalidFormat(format!(
                "bundle version {} != supported {}",
                self.version,
                Self::VERSION
            )));
        }
        self.selector
            .validate()
            .map_err(|e| SparseError::InvalidFormat(format!("bundle selector: {e}")))?;
        self.predictor
            .validate()
            .map_err(|e| SparseError::InvalidFormat(format!("bundle predictor: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::FormatSelectionSample;
    use crate::training::PartitionSample;
    use lf_sparse::{FormatFeatures, PartitionFeatures};

    fn trained_pipeline() -> LiteForm {
        let sel_samples: Vec<FormatSelectionSample> = (0..40)
            .map(|i| FormatSelectionSample {
                features: FormatFeatures {
                    rows: 100.0 + i as f64,
                    cols: 100.0,
                    nnz: 500.0,
                    avg_nnz_per_row: 5.0,
                    min_nnz_per_row: 0.0,
                    max_nnz_per_row: 5.0 + (i % 10) as f64,
                    std_nnz_per_row: (i % 10) as f64,
                },
                use_cell: i % 10 > 4,
                times_ms: (1.0, 1.0, 1.0),
            })
            .collect();
        let part_samples: Vec<PartitionSample> = (0..60)
            .map(|i| PartitionSample {
                features: PartitionFeatures {
                    rows: 1000.0,
                    cols: 1000.0,
                    nnz: 100.0 * (1 + i % 4) as f64,
                    avg_density_per_row: 1e-4 * (1 + i % 4) as f64,
                    min_density_per_row: 0.0,
                    max_density_per_row: 1e-3,
                    std_density_per_row: 1e-4,
                    j_product: 64.0,
                },
                best_p: [1, 2, 4, 8][i % 4],
            })
            .collect();
        let mut selector = FormatSelector::new(1);
        selector.train(&sel_samples);
        let mut predictor = PartitionPredictor::new(2);
        predictor.train(&part_samples);
        LiteForm::new(selector, predictor, DeviceModel::v100())
    }

    #[test]
    fn save_load_round_trip() {
        let lf = trained_pipeline();
        let bundle = ModelBundle::from_liteform(&lf, "unit test");
        let path = std::env::temp_dir().join("lf_bundle_test.json");
        bundle.save(&path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        assert_eq!(loaded.provenance, "unit test");
        let lf2 = loaded.into_liteform();
        // Same predictions after rehydration.
        let f = FormatFeatures {
            rows: 120.0,
            cols: 100.0,
            nnz: 500.0,
            avg_nnz_per_row: 5.0,
            min_nnz_per_row: 0.0,
            max_nnz_per_row: 12.0,
            std_nnz_per_row: 7.0,
        };
        assert_eq!(lf.selector.predict(&f), lf2.selector.predict(&f));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_rejected() {
        let lf = trained_pipeline();
        let mut bundle = ModelBundle::from_liteform(&lf, "test");
        bundle.version = 99;
        let path = std::env::temp_dir().join("lf_bundle_badver.json");
        std::fs::write(&path, serde_json::to_string(&bundle).unwrap()).unwrap();
        assert!(ModelBundle::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_models_are_refused_at_load() {
        let json =
            serde_json::to_string(&ModelBundle::from_liteform(&trained_pipeline(), "t")).unwrap();
        let path = std::env::temp_dir().join("lf_bundle_corrupt.json");
        let at = json.find(r#""feature":"#).unwrap() + r#""feature":"#.len();
        let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
        let corrupt = [
            // The selector reads seven features: index 7 is out of range.
            format!("{}7{}", &json[..at], &json[at + digits..]),
            // The selector has two classes.
            json.replacen(r#""class":1"#, r#""class":2"#, 1),
            json.replacen(r#""trained":true"#, r#""trained":false"#, 1),
            json.replacen(r#""n_classes":6"#, r#""n_classes":7"#, 1),
        ];
        for bad in &corrupt {
            assert_ne!(bad, &json);
            assert!(serde_json::from_str::<ModelBundle>(bad).is_ok(), "decodes");
            std::fs::write(&path, bad).unwrap();
            assert!(ModelBundle::load(&path).is_err(), "loads: {}", &bad[..200]);
        }
        std::fs::write(&path, &json).unwrap();
        assert!(ModelBundle::load(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors() {
        assert!(ModelBundle::load("/nonexistent/bundle.json").is_err());
    }
}
