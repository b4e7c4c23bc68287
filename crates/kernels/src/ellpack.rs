//! Ellpack SpMM kernel: warp-per-row over the padded grid. Padding costs
//! both wasted lanes (divergence on the `ELL_PAD` check) and wasted
//! compute/traffic — the inefficiency CELL's buckets remove.

use crate::common::{b_row_tx, split_b_traffic, spmm_flops, BlockScratch};
use crate::simd::{stream_rows, Rows, TileParams};
use crate::SpmmKernel;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::parallel::{default_workers, parallel_ranges, DisjointSlice};
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{DenseMatrix, EllMatrix, Result, SparseError};

/// Warp-per-row Ellpack SpMM.
pub struct EllKernel<T> {
    ell: EllMatrix<T>,
    tile: TileParams,
}

impl<T: AtomicScalar> EllKernel<T> {
    /// Wrap an ELL operand (default execution tile).
    pub fn new(ell: EllMatrix<T>) -> Self {
        EllKernel {
            ell,
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
    pub fn ell(&self) -> &EllMatrix<T> {
        &self.ell
    }

    fn execute(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        if self.ell.shape().1 != b.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spmm",
                lhs: self.ell.shape(),
                rhs: b.shape(),
            });
        }
        let (rows, _) = self.ell.shape();
        let j = b.cols();
        let width = self.ell.width();
        let mut c = DenseMatrix::zeros(rows, j);
        {
            // Rows are disjoint: stream each chunk of padded rows
            // straight into its output rows.
            let out = DisjointSlice::new(c.as_mut_slice());
            parallel_ranges(rows, default_workers(), |range| {
                // SAFETY: `parallel_ranges` hands out disjoint row ranges.
                let c_rows = unsafe { out.slice_mut(range.start * j, range.len() * j) };
                let slots = range.start * width..range.end * width;
                let rows = Rows::Fixed {
                    width,
                    row_ind: None,
                    base: 0,
                };
                let (cols, vals) = (
                    &self.ell.col_ind()[slots.clone()],
                    &self.ell.values()[slots],
                );
                stream_rows(&tile, c_rows, rows, cols, vals, b);
            });
        }
        Ok(c)
    }
}

impl<T: AtomicScalar> SpmmKernel<T> for EllKernel<T> {
    fn name(&self) -> &'static str {
        "ellpack"
    }

    fn shape(&self) -> (usize, usize) {
        self.ell.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.execute(b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let (rows, k) = self.ell.shape();
        let width = self.ell.width();
        let ws = k * j * elem;
        let rows_per_block = 8;
        let mut launch =
            LaunchSpec::new(self.name(), 256).with_grid_multiplier(j.div_ceil(device.warp_size));
        let mut scratch = BlockScratch::new();
        let mut r = 0;
        while r < rows {
            let hi = (r + rows_per_block).min(rows);
            let slot_lo = r * width;
            let slot_hi = hi * width;
            let slots = slot_hi - slot_lo;
            let (nnz, unique_cols) = scratch.count_unique_iter(
                self.ell.col_ind()[slot_lo..slot_hi]
                    .iter()
                    .copied()
                    .filter(|&c| c != ELL_PAD),
            );
            let per_row = b_row_tx(j, elem, device);
            let unique = unique_cols as u64 * per_row;
            let total = nnz as u64 * per_row;
            let (b_dram, b_l2) = split_b_traffic(unique, total - unique, ws, device);
            // The padded grid is streamed in full (col + val arrays).
            let colval = 2 * segment_transactions(slots, 4, device.transaction_bytes);
            let c_tx = (hi - r) as u64 * per_row;
            launch.push(BlockCost {
                dram_transactions: b_dram + colval + c_tx + 1,
                l2_transactions: b_l2,
                // Padded slots are multiplied through (branchless inner
                // loop): compute scales with slots, not nnz.
                flops: spmm_flops(slots, j),
                atomic_transactions: 0,
                lane_efficiency: if slots > 0 {
                    (nnz as f64 / slots as f64).max(1e-3)
                } else {
                    1.0
                },
            });
            r = hi;
        }
        vec![launch]
    }

    fn format_bytes(&self) -> usize {
        self.ell.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::{uniform_random, uniform_with_long_rows};
    use lf_sparse::{CooMatrix, CsrMatrix, Pcg32};

    fn random_ell(seed: u64) -> (CsrMatrix<f64>, EllKernel<f64>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let csr = CsrMatrix::from_coo(&uniform_random(120, 90, 1200, &mut rng));
        let k = EllKernel::new(EllMatrix::from_csr(&csr));
        (csr, k)
    }

    #[test]
    fn numeric_matches_reference() {
        let (csr, k) = random_ell(1);
        let mut rng = Pcg32::seed_from_u64(50);
        for j in [1, 16, 33] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let got = k.run(&b).unwrap();
            let want = csr.spmm_reference(&b).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "J={j}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (_, k) = random_ell(2);
        assert!(k.run(&DenseMatrix::<f64>::zeros(7, 3)).is_err());
    }

    #[test]
    fn skewed_matrix_wastes_time_vs_csr() {
        // One long row forces width = long_len: ELL must stream the padded
        // grid, so it should be clearly slower than a CSR vector kernel.
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(3);
        let coo = uniform_with_long_rows::<f64>(2000, 2000, 8000, 2, 1500, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        let ell_time = EllKernel::new(EllMatrix::from_csr(&csr))
            .profile(128, &d)
            .time_ms;
        let csr_time = crate::csr::CsrVectorKernel::new(csr)
            .profile(128, &d)
            .time_ms;
        assert!(
            ell_time > 3.0 * csr_time,
            "padding should dominate: ell {ell_time} csr {csr_time}"
        );
    }

    #[test]
    fn uniform_matrix_is_fine_in_ell() {
        // Constant row lengths (8 nnz/row): no padding, ELL competitive
        // with the CSR vector kernel.
        let d = DeviceModel::v100();
        let mut trips = Vec::new();
        for r in 0..512usize {
            for t in 0..8usize {
                trips.push((r, (r * 13 + t * 61) % 512, 1.0));
            }
        }
        let csr = CsrMatrix::from_coo(&CooMatrix::from_triplets(512, 512, trips).unwrap());
        let ell = EllKernel::new(EllMatrix::from_csr(&csr));
        assert_eq!(ell.ell().padding_ratio(), 0.0);
        let ell_time = ell.profile(128, &d).time_ms;
        let csr_time = crate::csr::CsrVectorKernel::new(csr)
            .profile(128, &d)
            .time_ms;
        assert!(
            ell_time < 1.5 * csr_time,
            "no-padding ELL should be close: {ell_time} vs {csr_time}"
        );
    }

    #[test]
    fn lane_efficiency_reflects_padding() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(4);
        let coo = uniform_with_long_rows::<f64>(100, 200, 300, 1, 150, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        let k = EllKernel::new(EllMatrix::from_csr(&csr));
        let launches = k.launches(64, &d);
        let min_eff = launches[0]
            .blocks
            .iter()
            .map(|b| b.lane_efficiency)
            .fold(1.0f64, f64::min);
        assert!(min_eff < 0.3, "heavy padding should show: {min_eff}");
    }
}
