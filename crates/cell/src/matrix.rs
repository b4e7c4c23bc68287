//! The CELL matrix type: partitions → buckets → blocks, plus accessors,
//! statistics and the CSR reconstruction used to verify losslessness.

use crate::config::CellConfig;
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{CooMatrix, CsrMatrix, Index, Scalar};

/// One bucket: an Ellpack sub-matrix whose rows all have length ≤ `width`,
/// with per-element row indices (Figure 4 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket<T> {
    /// Bucket width `2^i` (slots per bucket row).
    pub width: usize,
    /// Original row index of each bucket row (`I^(1)` entries). A folded
    /// original row appears multiple times.
    pub row_ind: Vec<Index>,
    /// `num_rows × width` column indices, `ELL_PAD` marking padding.
    pub col_ind: Vec<Index>,
    /// `num_rows × width` values (zero in padded slots).
    pub values: Vec<T>,
    /// Rows per GPU block: `2^k / width` (the paper's `2^(k-i)`).
    pub rows_per_block: usize,
    /// Whether this bucket's updates to `C` must use atomics
    /// (multi-partition matrix, or the partition's maximum bucket, which
    /// may contain folded rows — Algorithm 2, line 9).
    pub needs_atomic: bool,
    /// Whether any row in this bucket is a folded fragment.
    pub has_folded: bool,
}

impl<T: Scalar> Bucket<T> {
    /// Number of bucket rows (`I^(1)` in the cost model).
    pub fn num_rows(&self) -> usize {
        self.row_ind.len()
    }

    /// Number of distinct output rows (`I^(2)` in the cost model).
    pub fn num_output_rows(&self) -> usize {
        let mut ids: Vec<Index> = self.row_ind.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// True non-zero count (excluding padding).
    pub fn nnz(&self) -> usize {
        self.col_ind.iter().filter(|&&c| c != ELL_PAD).count()
    }

    /// Stored slots including padding.
    pub fn stored_slots(&self) -> usize {
        self.col_ind.len()
    }

    /// Number of GPU blocks this bucket maps to.
    pub fn num_blocks(&self) -> usize {
        if self.rows_per_block == 0 {
            return 0;
        }
        self.num_rows().div_ceil(self.rows_per_block)
    }

    /// Unique column indices touched by this bucket
    /// (`|set(Ind[i,w])|` in the cost model).
    pub fn unique_cols(&self) -> usize {
        let mut cols: Vec<Index> = self
            .col_ind
            .iter()
            .copied()
            .filter(|&c| c != ELL_PAD)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }
}

/// One column partition: a span of the column space plus its buckets,
/// ordered by increasing width.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition<T> {
    /// Column range `[col_lo, col_hi)` in the original matrix.
    pub col_range: (usize, usize),
    /// Buckets sorted by increasing width; the last is the maximum bucket.
    pub buckets: Vec<Bucket<T>>,
}

impl<T: Scalar> Partition<T> {
    /// Non-zeros stored in this partition.
    pub fn nnz(&self) -> usize {
        self.buckets.iter().map(Bucket::nnz).sum()
    }

    /// Maximum bucket width in this partition (0 if empty).
    pub fn max_width(&self) -> usize {
        self.buckets.iter().map(|b| b.width).max().unwrap_or(0)
    }
}

/// A sparse matrix in the CELL format.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMatrix<T> {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) nnz: usize,
    pub(crate) partitions: Vec<Partition<T>>,
    pub(crate) config: CellConfig,
}

impl<T: Scalar> CellMatrix<T> {
    /// Assemble a CELL matrix from explicit partitions, bypassing
    /// [`build_cell`](crate::build::build_cell).
    ///
    /// For tests and advanced composition experiments that need precise
    /// control over bucket layout (e.g. deliberately mislabeled
    /// `needs_atomic` flags to exercise the shadow race detector).
    ///
    /// The caller is responsible for the format invariants the builder
    /// normally guarantees: in-bounds indices, `nnz` matching the stored
    /// non-padding slots, buckets sorted by increasing width within each
    /// partition, and truthful `needs_atomic` / `has_folded` flags —
    /// kernels trust these flags to pick plain-store fast paths.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        nnz: usize,
        partitions: Vec<Partition<T>>,
        config: CellConfig,
    ) -> Self {
        CellMatrix {
            rows,
            cols,
            nnz,
            partitions,
            config,
        }
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True non-zero count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The column partitions.
    pub fn partitions(&self) -> &[Partition<T>] {
        &self.partitions
    }

    /// The configuration this matrix was built with.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Total bucket count across partitions.
    pub fn num_buckets(&self) -> usize {
        self.partitions.iter().map(|p| p.buckets.len()).sum()
    }

    /// Total GPU blocks across all buckets.
    pub fn num_blocks(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.buckets.iter().map(Bucket::num_blocks))
            .sum()
    }

    /// Stored slots including padding.
    pub fn stored_slots(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.buckets.iter().map(Bucket::stored_slots))
            .sum()
    }

    /// Fraction of stored slots that are padding.
    pub fn padding_ratio(&self) -> f64 {
        let slots = self.stored_slots();
        if slots == 0 {
            return 0.0;
        }
        1.0 - self.nnz as f64 / slots as f64
    }

    /// Memory footprint: per bucket, `row_ind` + padded `col_ind`/`values`.
    pub fn memory_bytes(&self) -> usize {
        let idx = std::mem::size_of::<Index>();
        let val = std::mem::size_of::<T>();
        self.partitions
            .iter()
            .flat_map(|p| p.buckets.iter())
            .map(|b| b.row_ind.len() * idx + b.col_ind.len() * idx + b.values.len() * val)
            .sum()
    }

    /// Iterate every stored `(row, col, value)` (padding skipped). A folded
    /// row's fragments appear as separate items with the same row id.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.partitions.iter().flat_map(|p| {
            p.buckets.iter().flat_map(|b| {
                (0..b.num_rows()).flat_map(move |r| {
                    (0..b.width).filter_map(move |w| {
                        let c = b.col_ind[r * b.width + w];
                        (c != ELL_PAD)
                            .then(|| (b.row_ind[r] as usize, c as usize, b.values[r * b.width + w]))
                    })
                })
            })
        })
    }

    /// Reconstruct the CSR matrix. Lossless, stored zeros included:
    /// building a CELL from a valid CSR and converting back yields that
    /// CSR exactly (tested property).
    ///
    /// Linear in the stored slots: count each row's non-padding slots,
    /// prefix-sum the counts into `row_ptr`, then scatter `(col, value)`
    /// in partition → bucket → bucket-row order. Partitions ascend by
    /// column range and a folded row's fragments sit in column order in
    /// its partition's cap bucket, so every row of a builder-made (or
    /// decoded) CELL comes out in strictly ascending column order. A
    /// hand-assembled matrix that breaks that order or repeats a
    /// `(row, col)` fails [`CsrMatrix::from_raw`]'s validation and falls
    /// back to sorting its triplets, which sums duplicates and drops
    /// entries that are exactly zero.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        // Every bucket row as (row id, its column slots, its value slots).
        let bucket_rows = || {
            self.partitions
                .iter()
                .flat_map(|p| &p.buckets)
                .flat_map(|b| {
                    let w = b.width.max(1);
                    b.row_ind
                        .iter()
                        .zip(b.col_ind.chunks(w).zip(b.values.chunks(w)))
                })
        };
        // row_ptr[r + 1] counts row r's slots (walked exactly as the
        // scatter walks them), then the prefix sum makes row_ptr[r] the
        // start of row r.
        let mut row_ptr = vec![0usize; self.rows + 1];
        for (&r, (cols, vals)) in bucket_rows() {
            let Some(count) = row_ptr.get_mut(r as usize + 1) else {
                return self.to_csr_sorted();
            };
            *count += cols.iter().zip(vals).filter(|(&c, _)| c != ELL_PAD).count();
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = row_ptr[self.rows];
        let mut col_ind = vec![0 as Index; nnz];
        let mut values = vec![T::ZERO; nnz];
        // Scatter with row_ptr[r] as row r's cursor; afterwards it holds
        // the end of row r, i.e. the start of row r + 1.
        for (&r, (cols, vals)) in bucket_rows() {
            let at = &mut row_ptr[r as usize];
            for (&c, &v) in cols.iter().zip(vals) {
                if c != ELL_PAD {
                    col_ind[*at] = c;
                    values[*at] = v;
                    *at += 1;
                }
            }
        }
        row_ptr.copy_within(0..self.rows, 1);
        row_ptr[0] = 0;
        CsrMatrix::from_raw(self.rows, self.cols, row_ptr, col_ind, values)
            .unwrap_or_else(|_| self.to_csr_sorted())
    }

    /// Sort-and-merge reconstruction for CELLs whose rows do not arrive
    /// in column order (see [`CellMatrix::to_csr`]).
    fn to_csr_sorted(&self) -> CsrMatrix<T> {
        let triplets: Vec<(usize, usize, T)> = self.iter().collect();
        let coo = CooMatrix::from_triplets(self.rows, self.cols, triplets)
            .expect("CELL indices are in bounds");
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cell;
    use lf_sparse::CooMatrix;

    fn sample_cell() -> CellMatrix<f64> {
        let coo = CooMatrix::from_triplets(
            6,
            8,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 5, 3.0),
                (1, 2, 4.0),
                (2, 0, 5.0),
                (2, 1, 6.0),
                (2, 2, 7.0),
                (2, 3, 8.0),
                (2, 6, 9.0),
                (5, 7, 10.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        build_cell(&csr, &CellConfig::with_partitions(2)).unwrap()
    }

    #[test]
    fn nnz_preserved() {
        let c = sample_cell();
        assert_eq!(c.nnz(), 10);
        assert_eq!(c.iter().count(), 10);
    }

    #[test]
    fn padding_and_memory_consistent() {
        let c = sample_cell();
        assert!(c.stored_slots() >= c.nnz());
        let expected = 1.0 - c.nnz() as f64 / c.stored_slots() as f64;
        assert!((c.padding_ratio() - expected).abs() < 1e-12);
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn bucket_unique_cols_and_output_rows() {
        let c = sample_cell();
        for p in c.partitions() {
            for b in &p.buckets {
                assert!(b.unique_cols() <= b.nnz());
                assert!(b.num_output_rows() <= b.num_rows());
                assert!(b.width.is_power_of_two());
            }
        }
    }

    #[test]
    fn blocks_cover_rows() {
        let c = sample_cell();
        for p in c.partitions() {
            for b in &p.buckets {
                assert!(b.rows_per_block >= 1);
                assert_eq!(b.num_blocks(), b.num_rows().div_ceil(b.rows_per_block));
            }
        }
    }
}
