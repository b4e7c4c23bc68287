//! Shared machinery for the model-comparison experiments (Tables 5–6,
//! Figure 10): label a corpus, split, and sweep the ten-classifier zoo
//! with timing.

use lf_data::Corpus;
use lf_ml::{cosine_similarity, ClassificationReport, Dataset};
use lf_sim::DeviceModel;
use liteform_core::{label_format_selection, label_partitions, TrainingConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One Table 5/6 row.
#[derive(Debug, Clone, Serialize)]
pub struct ModelRow {
    /// Model family name.
    pub name: String,
    /// Fit wall time in seconds.
    pub training_s: f64,
    /// Batch inference wall time in seconds.
    pub inference_s: f64,
    /// Micro accuracy (= micro precision/recall/F1, as the paper prints).
    pub accuracy: f64,
    /// Macro F1 for reference.
    pub macro_f1: f64,
    /// Cosine similarity of predicted-vs-true partition vectors
    /// (Table 6 only; `None` for the format-selection task).
    pub cos_sim: Option<f64>,
}

/// Build the format-selection dataset (features → TRUE/FALSE label) from
/// a corpus.
pub fn format_selection_dataset(corpus: &Corpus<f32>, device: &DeviceModel) -> Dataset {
    let cfg = TrainingConfig::default();
    let mut x = Vec::new();
    let mut y = Vec::new();
    for m in &corpus.matrices {
        let s = label_format_selection(&m.csr, &cfg, device);
        x.push(s.features.to_array().to_vec());
        y.push(usize::from(s.use_cell));
    }
    let mut d = Dataset::new(x, y);
    d.n_classes = 2;
    d
}

/// Build the partition dataset; also returns, per sample, the matrix id
/// it came from (for the cosine-similarity grouping across dense widths).
pub fn partition_dataset(corpus: &Corpus<f32>, device: &DeviceModel) -> (Dataset, Vec<String>) {
    let cfg = TrainingConfig::default();
    let mut x = Vec::new();
    let mut y = Vec::new();
    let mut group = Vec::new();
    for m in &corpus.matrices {
        for s in label_partitions(&m.csr, &cfg, device) {
            x.push(s.features.to_array().to_vec());
            y.push(liteform_core::PartitionPredictor::class_of(s.best_p));
            group.push(m.id.clone());
        }
    }
    let mut d = Dataset::new(x, y);
    d.n_classes = lf_cost::partition::PARTITION_CANDIDATES.len();
    (d, group)
}

/// Fit + evaluate every model of the zoo on a train/test split.
///
/// `groups`, when given, maps each *test* sample to a matrix id; the
/// cosine similarity of Eq. 2 is then computed per matrix over its dense
/// widths (paper's Table 6 `cos_sim` column) and averaged.
pub fn sweep_models(
    train: &Dataset,
    test: &Dataset,
    test_groups: Option<&[String]>,
    seed: u64,
) -> Vec<ModelRow> {
    let mut rows = Vec::new();
    for mut model in lf_ml::model_zoo(seed) {
        let t0 = Instant::now();
        model.fit(&train.x, &train.y, train.n_classes);
        let training_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let pred = model.predict(&test.x);
        let inference_s = t0.elapsed().as_secs_f64();

        let report = ClassificationReport::compute(&test.y, &pred, test.n_classes);
        let cos_sim = test_groups.map(|groups| {
            let cands = lf_cost::partition::PARTITION_CANDIDATES;
            let mut by_matrix: BTreeMap<&String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
            for ((p, t), g) in pred.iter().zip(&test.y).zip(groups) {
                let e = by_matrix.entry(g).or_default();
                e.0.push(cands[*p] as f64);
                e.1.push(cands[*t] as f64);
            }
            let sims: Vec<f64> = by_matrix
                .values()
                .map(|(p, t)| cosine_similarity(p, t))
                .collect();
            sims.iter().sum::<f64>() / sims.len().max(1) as f64
        });
        rows.push(ModelRow {
            name: model.name().to_string(),
            training_s,
            inference_s,
            accuracy: report.accuracy,
            macro_f1: report.macro_f1,
            cos_sim,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_data::CorpusSpec;

    fn tiny_corpus() -> Corpus<f32> {
        Corpus::generate(CorpusSpec {
            n_matrices: 10,
            min_rows: 200,
            max_rows: 800,
            max_nnz: 20_000,
            ..Default::default()
        })
    }

    #[test]
    fn datasets_have_expected_shapes() {
        let device = DeviceModel::v100();
        let corpus = tiny_corpus();
        let sel = format_selection_dataset(&corpus, &device);
        assert_eq!(sel.len(), 10);
        assert_eq!(sel.n_features(), 7);
        let (part, groups) = partition_dataset(&corpus, &device);
        assert_eq!(part.len(), 50); // 10 matrices × 5 widths
        assert_eq!(part.n_features(), 8);
        assert_eq!(groups.len(), 50);
    }

    #[test]
    fn sweep_returns_all_ten_models() {
        let device = DeviceModel::v100();
        let corpus = tiny_corpus();
        let (part, _groups) = partition_dataset(&corpus, &device);
        let split = part.split(0.8, 1);
        // Recompute groups for the test split is impossible here (split
        // shuffles); pass a fake grouping to exercise the path.
        let fake_groups: Vec<String> = (0..split.test.len())
            .map(|i| format!("g{}", i % 3))
            .collect();
        let rows = sweep_models(&split.train, &split.test, Some(&fake_groups), 3);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.training_s >= 0.0 && r.inference_s >= 0.0);
            assert!((0.0..=1.0).contains(&r.accuracy));
            let c = r.cos_sim.unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&c));
        }
    }
}
