//! Column-wise gather/scatter for fused (batched) SpMM.
//!
//! Request coalescing in the serving layer fuses N same-matrix requests
//! into one wide execute: the members' dense operands are concatenated
//! column-wise into a single `B_wide` ([`concat_columns`]), the kernel
//! runs once at the fused width (its j-tiled accumulators already handle
//! arbitrary widths), and the wide result is split back into one output
//! per member ([`scatter_columns`]).
//!
//! Layout: operand `k` with width `w_k` owns the contiguous column range
//! `[o_k, o_k + w_k)` of the wide matrix, where `o_k = Σ_{i<k} w_i`. Row
//! `r` of the wide matrix is the concatenation of row `r` of every
//! member in order, so both directions are straight `memcpy`s of row
//! segments. Zero-width members are legal and occupy an empty range.
//!
//! Because the wide product computes each output column independently
//! (every kernel accumulates per `(row, col)` with the same reduction
//! order regardless of how many columns ride along), the scattered
//! outputs of a fused run match solo runs of each member — bitwise, on
//! single-writer paths.

use lf_sim::calibration;
use lf_sim::parallel::{default_workers, parallel_for, DisjointSlice};
use lf_sparse::{DenseMatrix, Result, Scalar, SparseError};
use std::sync::OnceLock;

/// Element count above which the gather/scatter copies are farmed out to
/// the worker pool; below it they run on the calling thread.
///
/// Derived once per process from the measured [`calibration`]: a
/// parallel region pays `pool_dispatch_ns` up front and saves
/// `copy_ns × (1 − 1/workers)` per element copied, so the break-even
/// element count is their ratio, clamped to `[2^12, 2^24]`. With a
/// single worker parallel dispatch can never win, so the copies always
/// run inline (`usize::MAX`).
pub fn scatter_crossover() -> usize {
    static CROSSOVER: OnceLock<usize> = OnceLock::new();
    *CROSSOVER.get_or_init(|| {
        let workers = default_workers();
        if workers <= 1 {
            return usize::MAX;
        }
        let cal = calibration();
        let saved_per_elem = cal.copy_ns * (1.0 - 1.0 / workers as f64);
        let raw = cal.pool_dispatch_ns / saved_per_elem.max(1e-6);
        (raw as usize).clamp(1 << 12, 1 << 24)
    })
}

fn workers_for(elems: usize) -> usize {
    if elems < scatter_crossover() {
        1
    } else {
        default_workers()
    }
}

/// Concatenate the columns of several dense matrices (all with the same
/// row count) into one wide matrix: `out[r] = b₀[r] ++ b₁[r] ++ …`.
///
/// Errors with a `DimensionMismatch` if the row counts disagree. An
/// empty slice yields a 0×0 matrix.
pub fn concat_columns<T: Scalar>(bs: &[&DenseMatrix<T>]) -> Result<DenseMatrix<T>> {
    let rows = bs.first().map_or(0, |b| b.rows());
    let total: usize = bs.iter().map(|b| b.cols()).sum();
    if let Some(bad) = bs.iter().find(|b| b.rows() != rows) {
        return Err(SparseError::DimensionMismatch {
            op: "concat_columns",
            lhs: (rows, total),
            rhs: bad.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(rows, total);
    if rows * total == 0 {
        return Ok(out);
    }
    let offsets: Vec<usize> = bs
        .iter()
        .scan(0usize, |acc, b| {
            let o = *acc;
            *acc += b.cols();
            Some(o)
        })
        .collect();
    {
        let view = DisjointSlice::new(out.as_mut_slice());
        parallel_for(rows, workers_for(rows * total), |r| {
            // SAFETY: each row index `r` is produced exactly once by the
            // parallel_for contract, so the carved per-row spans are
            // disjoint (debug builds verify via the shadow map).
            let row = unsafe { view.slice_mut(r * total, total) };
            for (b, &o) in bs.iter().zip(&offsets) {
                let w = b.cols();
                row[o..o + w].copy_from_slice(b.row(r));
            }
        });
    }
    Ok(out)
}

/// Split a wide matrix back into per-member outputs of the given column
/// `widths`, in order — the inverse of [`concat_columns`].
///
/// Errors with a `DimensionMismatch` unless the widths sum exactly to
/// `wide.cols()`.
pub fn scatter_columns<T: Scalar>(
    wide: &DenseMatrix<T>,
    widths: &[usize],
) -> Result<Vec<DenseMatrix<T>>> {
    let total: usize = widths.iter().sum();
    if total != wide.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "scatter_columns",
            lhs: wide.shape(),
            rhs: (wide.rows(), total),
        });
    }
    let rows = wide.rows();
    let mut outs = Vec::with_capacity(widths.len());
    let mut offset = 0usize;
    for &w in widths {
        let mut out = DenseMatrix::zeros(rows, w);
        if rows * w > 0 {
            let o = offset;
            let view = DisjointSlice::new(out.as_mut_slice());
            parallel_for(rows, workers_for(rows * w), |r| {
                // SAFETY: each row index `r` is produced exactly once by
                // the parallel_for contract, so the carved per-row spans
                // are disjoint (debug builds verify via the shadow map).
                let row = unsafe { view.slice_mut(r * w, w) };
                row.copy_from_slice(&wide.row(r)[o..o + w]);
            });
        }
        offset += w;
        outs.push(out);
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::Pcg32;

    fn mats(rows: usize, widths: &[usize], seed: u64) -> Vec<DenseMatrix<f64>> {
        let mut rng = Pcg32::seed_from_u64(seed);
        widths
            .iter()
            .map(|&w| DenseMatrix::random(rows, w, &mut rng))
            .collect()
    }

    #[test]
    fn concat_then_scatter_roundtrips_bitwise() {
        for (rows, widths) in [
            (1usize, vec![1usize]),
            (17, vec![3, 0, 1, 8]),
            (64, vec![8, 8, 8, 8, 8, 8, 8, 8]),
            // Wide enough to cross the kernels' default j-tile boundary
            // (TileParams::default().j_tile) and the parallel-copy
            // crossover's lower clamp.
            (300, vec![40, 50, 45, 33]),
        ] {
            let bs = mats(rows, &widths, 7 + rows as u64);
            let refs: Vec<&DenseMatrix<f64>> = bs.iter().collect();
            let wide = concat_columns(&refs).unwrap();
            assert_eq!(wide.shape(), (rows, widths.iter().sum()));
            let back = scatter_columns(&wide, &widths).unwrap();
            assert_eq!(back.len(), bs.len());
            for (orig, got) in bs.iter().zip(&back) {
                assert_eq!(orig.shape(), got.shape());
                let orig_bits: Vec<u64> = orig.as_slice().iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(orig_bits, got_bits, "roundtrip must be bitwise");
            }
        }
    }

    #[test]
    fn concat_layout_is_column_offset_per_member() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 1, vec![9.0, 8.0]).unwrap();
        let wide = concat_columns(&[&a, &b]).unwrap();
        assert_eq!(wide.as_slice(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn empty_inputs_are_legal() {
        let wide = concat_columns::<f64>(&[]).unwrap();
        assert_eq!(wide.shape(), (0, 0));
        let zero = DenseMatrix::<f64>::zeros(5, 0);
        let wide = concat_columns(&[&zero, &zero]).unwrap();
        assert_eq!(wide.shape(), (5, 0));
        let outs = scatter_columns(&wide, &[0, 0]).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].shape(), (5, 0));
    }

    #[test]
    fn scatter_crossover_is_calibrated_and_bounded() {
        let co = scatter_crossover();
        if default_workers() <= 1 {
            assert_eq!(co, usize::MAX, "one worker: copies always run inline");
            assert_eq!(workers_for(1 << 30), 1);
        } else {
            assert!(
                ((1 << 12)..=(1 << 24)).contains(&co),
                "crossover {co} outside clamp range"
            );
            assert_eq!(workers_for(co - 1), 1, "below crossover stays serial");
            assert_eq!(
                workers_for(co),
                default_workers(),
                "at crossover the pool takes over"
            );
        }
    }

    #[test]
    fn dimension_mismatches_are_typed_errors() {
        let a = DenseMatrix::<f64>::zeros(3, 2);
        let b = DenseMatrix::<f64>::zeros(4, 2);
        assert!(concat_columns(&[&a, &b]).is_err(), "row mismatch");
        let wide = DenseMatrix::<f64>::zeros(3, 5);
        assert!(
            scatter_columns(&wide, &[2, 2]).is_err(),
            "widths must sum to the wide width"
        );
    }
}
