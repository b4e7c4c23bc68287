//! Sliced-Ellpack SpMM kernel: one block per slice, each slice streaming
//! its own compact Ellpack grid (Monakov et al., ref. 35). The historical
//! midpoint between plain ELL and CELL: per-slice widths kill most
//! padding, but slices follow the row order — they cannot group rows of
//! similar length from across the matrix the way CELL buckets do.

use crate::common::{b_row_tx, split_b_traffic, spmm_flops, BlockScratch};
use crate::simd::{stream_rows, Rows, TileParams};
use crate::SpmmKernel;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::parallel::{default_workers, parallel_for, DisjointSlice};
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{DenseMatrix, Result, SellMatrix, SparseError};

/// Slice-per-block SELL SpMM.
pub struct SellKernel<T> {
    sell: SellMatrix<T>,
    tile: TileParams,
}

impl<T: AtomicScalar> SellKernel<T> {
    /// Wrap a SELL operand (default execution tile).
    pub fn new(sell: SellMatrix<T>) -> Self {
        SellKernel {
            sell,
            tile: TileParams::default(),
        }
    }

    /// Set the execution tile `run` uses (builder style).
    pub fn with_tile(mut self, tile: TileParams) -> Self {
        self.tile = tile;
        self
    }

    /// Numeric path with an explicit execution tile.
    pub fn run_tiled(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        self.execute(b, tile)
    }

    /// Access the underlying matrix.
    pub fn sell(&self) -> &SellMatrix<T> {
        &self.sell
    }

    fn execute(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        let (rows, cols) = self.sell.shape();
        if cols != b.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spmm",
                lhs: (rows, cols),
                rhs: b.shape(),
            });
        }
        let j = b.cols();
        let mut c = DenseMatrix::zeros(rows, j);
        {
            // Slices cover disjoint row ranges: stream each slice's padded
            // rows straight into its output rows.
            let out = DisjointSlice::new(c.as_mut_slice());
            let slices = self.sell.slices();
            parallel_for(slices.len(), default_workers(), |si| {
                let slice = &slices[si];
                // SAFETY: each slice (hence each of its rows) goes to
                // exactly one worker.
                let c_rows = unsafe { out.slice_mut(slice.row_start * j, slice.height * j) };
                let rows = Rows::Fixed {
                    width: slice.width,
                    row_ind: None,
                    base: 0,
                };
                stream_rows(&tile, c_rows, rows, &slice.col_ind, &slice.values, b);
            });
        }
        Ok(c)
    }
}

impl<T: AtomicScalar> SpmmKernel<T> for SellKernel<T> {
    fn name(&self) -> &'static str {
        "sliced-ell"
    }

    fn shape(&self) -> (usize, usize) {
        self.sell.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.execute(b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let (_, k_dim) = self.sell.shape();
        let ws = k_dim * j * elem;
        let per_row = b_row_tx(j, elem, device);
        let mut launch =
            LaunchSpec::new(self.name(), 256).with_grid_multiplier(j.div_ceil(device.warp_size));
        let mut scratch = BlockScratch::new();
        for slice in self.sell.slices() {
            let slots = slice.height * slice.width;
            let (nnz, unique_cols) =
                scratch.count_unique_iter(slice.col_ind.iter().copied().filter(|&c| c != ELL_PAD));
            let unique = unique_cols as u64 * per_row;
            let total = nnz as u64 * per_row;
            let (b_dram, b_l2) = split_b_traffic(unique, total - unique, ws, device);
            let colval = 2 * segment_transactions(slots, 4, device.transaction_bytes);
            let c_tx = slice.height as u64 * per_row;
            launch.push(BlockCost {
                dram_transactions: b_dram + colval + c_tx + 1,
                l2_transactions: b_l2,
                flops: spmm_flops(slots, j),
                atomic_transactions: 0,
                lane_efficiency: if slots > 0 {
                    (nnz as f64 / slots as f64).max(1e-3)
                } else {
                    1.0
                },
            });
        }
        vec![launch]
    }

    fn format_bytes(&self) -> usize {
        self.sell.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EllKernel;
    use lf_sparse::gen::{uniform_random, uniform_with_long_rows};
    use lf_sparse::{CsrMatrix, EllMatrix, Pcg32};

    #[test]
    fn numeric_matches_reference() {
        let mut rng = Pcg32::seed_from_u64(1);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&uniform_random(130, 110, 1700, &mut rng));
        let k = SellKernel::new(SellMatrix::from_csr(&csr, 32).unwrap());
        for j in [1, 16, 50] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let got = k.run(&b).unwrap();
            let want = csr.spmm_reference(&b).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "J={j}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut rng = Pcg32::seed_from_u64(2);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&uniform_random(20, 20, 60, &mut rng));
        let k = SellKernel::new(SellMatrix::from_csr(&csr, 8).unwrap());
        assert!(k.run(&DenseMatrix::<f64>::zeros(7, 3)).is_err());
    }

    #[test]
    fn beats_plain_ell_on_skewed_rows() {
        // A single long row pads every row in plain ELL but only its own
        // slice in SELL.
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(3);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&uniform_with_long_rows(
            4000, 4000, 20_000, 2, 3000, &mut rng,
        ));
        let sell_ms = SellKernel::new(SellMatrix::from_csr(&csr, 32).unwrap())
            .profile(128, &d)
            .time_ms;
        let ell_ms = EllKernel::new(EllMatrix::from_csr(&csr))
            .profile(128, &d)
            .time_ms;
        assert!(
            sell_ms < ell_ms / 2.0,
            "per-slice widths should slash padding: sell {sell_ms} vs ell {ell_ms}"
        );
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f64>::empty(6, 6);
        let k = SellKernel::new(SellMatrix::from_csr(&csr, 4).unwrap());
        let c = k.run(&DenseMatrix::zeros(6, 2)).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}
