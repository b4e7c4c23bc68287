//! Shared model-training plumbing: the experiment binaries need a trained
//! LiteForm pipeline; this trains one from the training corpus (or loads
//! a cached bundle) so figures are reproducible without a separate step.

use crate::env::BenchEnv;
use lf_data::Corpus;
use lf_sim::DeviceModel;
use lf_sparse::CsrMatrix;
use liteform_core::{
    label_format_selection, label_partitions, FormatSelector, LiteForm, ModelBundle,
    PartitionPredictor, TrainingConfig,
};
use serde::Serialize;
use std::path::Path;

/// What training produced (for reports).
#[derive(Debug, Clone, Serialize)]
pub struct TrainStats {
    /// Matrices labelled.
    pub matrices: usize,
    /// Format-selection samples (one per matrix).
    pub selection_samples: usize,
    /// Fraction labelled TRUE (CELL wins by >1.1×).
    pub selection_positive_rate: f64,
    /// Partition samples (matrix × dense width).
    pub partition_samples: usize,
    /// Wall-clock training-data generation seconds.
    pub labeling_s: f64,
    /// Wall-clock model-fit seconds.
    pub fit_s: f64,
}

/// Train (or load from `cache`) the LiteForm pipeline used by the
/// figure binaries. Returns the pipeline and the training statistics
/// (`None` when loaded from cache).
pub fn train_pipeline(env: &BenchEnv, cache: Option<&Path>) -> (LiteForm, Option<TrainStats>) {
    if let Some(path) = cache {
        match ModelBundle::load(path) {
            Ok(bundle) => {
                eprintln!("[loaded pretrained bundle from {}]", path.display());
                return (bundle.into_liteform(), None);
            }
            Err(e) => eprintln!(
                "[cannot load pretrained bundle from {}: {e}; retraining]",
                path.display()
            ),
        }
    }
    let device = DeviceModel::v100();
    let mut corpus: Corpus<f32> = Corpus::generate(env.training_corpus_spec());
    // The paper trains on matrices from diverse application domains
    // (§5.1); graph-shaped inputs are the domain Figure 6 evaluates.
    corpus.extend_citation_like(corpus.len() / 3, env.seed ^ 0xc17a);
    let cfg = TrainingConfig::default();

    let t0 = std::time::Instant::now();
    let matrices: Vec<&CsrMatrix<f32>> = corpus.matrices.iter().map(|m| &m.csr).collect();
    let sel_samples: Vec<_> = matrices
        .iter()
        .map(|csr| label_format_selection(csr, &cfg, &device))
        .collect();
    let part_samples: Vec<_> = matrices
        .iter()
        .flat_map(|csr| label_partitions(csr, &cfg, &device))
        .collect();
    let labeling_s = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let mut selector = FormatSelector::new(env.seed);
    selector.train(&sel_samples);
    let mut predictor = PartitionPredictor::new(env.seed ^ 1);
    predictor.train(&part_samples);
    let fit_s = t0.elapsed().as_secs_f64();

    let positive = sel_samples.iter().filter(|s| s.use_cell).count();
    let stats = TrainStats {
        matrices: corpus.len(),
        selection_samples: sel_samples.len(),
        selection_positive_rate: positive as f64 / sel_samples.len().max(1) as f64,
        partition_samples: part_samples.len(),
        labeling_s,
        fit_s,
    };
    let lf = LiteForm::new(selector, predictor, device);
    if let Some(path) = cache {
        let bundle = ModelBundle::from_liteform(
            &lf,
            format!(
                "trained on {} corpus matrices (seed {:#x})",
                corpus.len(),
                env.seed
            ),
        );
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if bundle.save(path).is_ok() {
            eprintln!("[saved pretrained bundle to {}]", path.display());
        }
    }
    (lf, Some(stats))
}

/// Default cache location for the shared bundle.
pub fn default_bundle_path(env: &BenchEnv) -> std::path::PathBuf {
    env.results_dir.join("liteform-models.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_data::Scale;

    fn tiny_env() -> BenchEnv {
        BenchEnv {
            scale: Scale::Small,
            corpus_n: 8,
            seed: 0xfeed,
            results_dir: std::env::temp_dir().join("lf_pipeline_test_results"),
        }
    }

    #[test]
    fn trains_and_caches_bundle() {
        let mut env = tiny_env();
        // Shrink the training corpus far below the production default.
        env.corpus_n = 8;
        let dir = env.results_dir.clone();
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("bundle.json");

        // First call trains (corpus_n.max(144) would be huge; call the
        // internals with a small corpus instead via the public API but a
        // tiny spec): use training_corpus_spec override by constructing
        // the corpus path manually is private — so just verify the cache
        // round-trip branch with a pre-saved bundle.
        let device = DeviceModel::v100();
        let corpus: Corpus<f32> = Corpus::generate(lf_data::CorpusSpec {
            n_matrices: 8,
            min_rows: 200,
            max_rows: 900,
            max_nnz: 15_000,
            ..Default::default()
        });
        let cfg = liteform_core::TrainingConfig {
            dense_widths: vec![32],
            ..Default::default()
        };
        let sel: Vec<_> = corpus
            .matrices
            .iter()
            .map(|m| liteform_core::label_format_selection(&m.csr, &cfg, &device))
            .collect();
        let part: Vec<_> = corpus
            .matrices
            .iter()
            .flat_map(|m| liteform_core::label_partitions(&m.csr, &cfg, &device))
            .collect();
        let mut s = liteform_core::FormatSelector::new(1);
        s.train(&sel);
        let mut p = liteform_core::PartitionPredictor::new(2);
        p.train(&part);
        let lf = LiteForm::new(s, p, device);
        std::fs::create_dir_all(&dir).unwrap();
        ModelBundle::from_liteform(&lf, "pipeline test")
            .save(&path)
            .unwrap();

        // train_pipeline must take the cache branch and return no stats.
        let (_loaded, stats) = train_pipeline(&env, Some(&path));
        assert!(stats.is_none(), "cache hit must skip training");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_bundle_path_is_under_results() {
        let env = tiny_env();
        let p = default_bundle_path(&env);
        assert!(p.starts_with(&env.results_dir));
        assert_eq!(p.extension().and_then(|e| e.to_str()), Some("json"));
    }
}
