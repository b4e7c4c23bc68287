//! Matrix feature extraction for LiteForm's two predictors.
//!
//! * [`FormatFeatures`] — Table 2 of the paper: the seven cheap statistics
//!   used to predict whether the CELL format beats the fixed formats.
//! * [`PartitionFeatures`] — Table 3: density-based statistics plus the
//!   dense-operand size, used to predict the optimal number of column
//!   partitions.
//!
//! Both are O(nnz) single passes, which is the point: LiteForm's predictors
//! must be orders of magnitude cheaper than autotuning.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use serde::{Deserialize, Serialize};

/// Aggregate statistics over per-row non-zero counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowStats {
    /// Mean entries per row.
    pub avg: f64,
    /// Minimum entries per row.
    pub min: f64,
    /// Maximum entries per row.
    pub max: f64,
    /// Population standard deviation of entries per row.
    pub std: f64,
}

impl RowStats {
    /// Compute from per-row counts (none ⇒ all zeros) in two passes over
    /// a cloneable iterator, with no allocation: count, sum, min and max
    /// first, then the squared deviations, summed in row order.
    pub fn from_lengths<I>(lengths: I) -> Self
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let lengths = lengths.into_iter();
        let (count, sum, min, max) = lengths.clone().fold(
            (0usize, 0usize, usize::MAX, 0usize),
            |(count, sum, min, max), l| (count + 1, sum + l, min.min(l), max.max(l)),
        );
        if count == 0 {
            return RowStats {
                avg: 0.0,
                min: 0.0,
                max: 0.0,
                std: 0.0,
            };
        }
        let n = count as f64;
        let avg = sum as f64 / n;
        let var = lengths
            .map(|l| {
                let d = l as f64 - avg;
                d * d
            })
            .sum::<f64>()
            / n;
        RowStats {
            avg,
            min: min as f64,
            max: max as f64,
            std: var.sqrt(),
        }
    }

    /// The statistics of a CSR matrix's row lengths, read straight from
    /// `row_ptr`.
    fn of_rows<T: Scalar>(csr: &CsrMatrix<T>) -> Self {
        Self::from_lengths(csr.row_ptr().windows(2).map(|w| w[1] - w[0]))
    }

    /// Scale every statistic by a constant (turns counts into densities).
    pub fn scaled(&self, factor: f64) -> Self {
        RowStats {
            avg: self.avg * factor,
            min: self.min * factor,
            max: self.max * factor,
            std: self.std * factor,
        }
    }
}

/// Table 2 features: predict whether CELL offers a performance advantage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FormatFeatures {
    /// Number of rows.
    pub rows: f64,
    /// Number of columns.
    pub cols: f64,
    /// Number of non-zero elements.
    pub nnz: f64,
    /// Average number of non-zeros per row.
    pub avg_nnz_per_row: f64,
    /// Minimum number of non-zeros per row.
    pub min_nnz_per_row: f64,
    /// Maximum number of non-zeros per row.
    pub max_nnz_per_row: f64,
    /// Standard deviation of non-zeros per row.
    pub std_nnz_per_row: f64,
}

impl FormatFeatures {
    /// Extract from a CSR matrix in O(rows) passes over `row_ptr`, with
    /// no allocation.
    pub fn from_csr<T: Scalar>(csr: &CsrMatrix<T>) -> Self {
        let stats = RowStats::of_rows(csr);
        FormatFeatures {
            rows: csr.rows() as f64,
            cols: csr.cols() as f64,
            nnz: csr.nnz() as f64,
            avg_nnz_per_row: stats.avg,
            min_nnz_per_row: stats.min,
            max_nnz_per_row: stats.max,
            std_nnz_per_row: stats.std,
        }
    }

    /// Feature vector for ML models, fixed ordering.
    pub fn to_array(&self) -> [f64; 7] {
        [
            self.rows,
            self.cols,
            self.nnz,
            self.avg_nnz_per_row,
            self.min_nnz_per_row,
            self.max_nnz_per_row,
            self.std_nnz_per_row,
        ]
    }

    /// Names matching [`FormatFeatures::to_array`] ordering.
    pub fn names() -> &'static [&'static str] {
        &[
            "rows",
            "cols",
            "nnz",
            "avg_nnz_per_row",
            "min_nnz_per_row",
            "max_nnz_per_row",
            "std_nnz_per_row",
        ]
    }
}

/// Table 3 features: predict the optimal number of column partitions.
///
/// The paper found that *density* statistics (counts normalized by the
/// number of columns) predict better than raw counts, and that the dense
/// operand's size (`j_product`, "product of other dimensions in the
/// kernel") matters because it scales the memory traffic per non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionFeatures {
    /// Number of rows.
    pub rows: f64,
    /// Number of columns.
    pub cols: f64,
    /// Number of non-zero elements.
    pub nnz: f64,
    /// Average per-row density (`avg nnz per row / cols`).
    pub avg_density_per_row: f64,
    /// Minimum per-row density.
    pub min_density_per_row: f64,
    /// Maximum per-row density.
    pub max_density_per_row: f64,
    /// Standard deviation of per-row density.
    pub std_density_per_row: f64,
    /// Product of the other kernel dimensions (for SpMM: `J`, the number of
    /// columns of the dense operand).
    pub j_product: f64,
}

impl PartitionFeatures {
    /// Extract from a CSR matrix plus the dense-operand column count `j`,
    /// with no allocation.
    pub fn from_csr<T: Scalar>(csr: &CsrMatrix<T>, j: usize) -> Self {
        let stats = RowStats::of_rows(csr);
        let inv_cols = if csr.cols() == 0 {
            0.0
        } else {
            1.0 / csr.cols() as f64
        };
        let d = stats.scaled(inv_cols);
        PartitionFeatures {
            rows: csr.rows() as f64,
            cols: csr.cols() as f64,
            nnz: csr.nnz() as f64,
            avg_density_per_row: d.avg,
            min_density_per_row: d.min,
            max_density_per_row: d.max,
            std_density_per_row: d.std,
            j_product: j as f64,
        }
    }

    /// Feature vector for ML models, fixed ordering.
    pub fn to_array(&self) -> [f64; 8] {
        [
            self.rows,
            self.cols,
            self.nnz,
            self.avg_density_per_row,
            self.min_density_per_row,
            self.max_density_per_row,
            self.std_density_per_row,
            self.j_product,
        ]
    }

    /// Names matching [`PartitionFeatures::to_array`] ordering.
    pub fn names() -> &'static [&'static str] {
        &[
            "rows",
            "cols",
            "nnz",
            "avg_density_per_row",
            "min_density_per_row",
            "max_density_per_row",
            "std_density_per_row",
            "j_product",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        // Row lengths: 2, 0, 1, 3 over 4 rows, 10 cols.
        let coo = CooMatrix::from_triplets(
            4,
            10,
            vec![
                (0, 0, 1.0),
                (0, 9, 1.0),
                (2, 4, 1.0),
                (3, 1, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        )
        .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn row_stats_basic() {
        let s = RowStats::from_lengths([2, 0, 1, 3]);
        assert_eq!(s.avg, 1.5);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 3.0);
        // var = ((0.5)^2 + (1.5)^2 + (0.5)^2 + (1.5)^2)/4 = 1.25
        assert!((s.std - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn row_stats_empty() {
        let s = RowStats::from_lengths([]);
        assert_eq!(s.avg, 0.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn format_features_from_csr() {
        let f = FormatFeatures::from_csr(&sample());
        assert_eq!(f.rows, 4.0);
        assert_eq!(f.cols, 10.0);
        assert_eq!(f.nnz, 6.0);
        assert_eq!(f.avg_nnz_per_row, 1.5);
        assert_eq!(f.min_nnz_per_row, 0.0);
        assert_eq!(f.max_nnz_per_row, 3.0);
        assert_eq!(f.to_array().len(), FormatFeatures::names().len());
    }

    #[test]
    fn partition_features_use_density() {
        let f = PartitionFeatures::from_csr(&sample(), 128);
        assert!((f.avg_density_per_row - 0.15).abs() < 1e-12);
        assert!((f.max_density_per_row - 0.3).abs() < 1e-12);
        assert_eq!(f.j_product, 128.0);
        assert_eq!(f.to_array().len(), PartitionFeatures::names().len());
    }

    #[test]
    fn scaled_stats() {
        let s = RowStats::from_lengths([2, 4]).scaled(0.5);
        assert_eq!(s.avg, 1.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 2.0);
    }
}
