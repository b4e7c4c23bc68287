//! BCSR (block-sparse) SpMM kernel, the Triton-style mapping: one thread
//! block multiplies a row of dense tiles against the dense operand. Dense
//! tiles make the arithmetic perfectly regular — but every padded zero is
//! both stored and multiplied, which on scattered matrices inflates the
//! footprint enough to reproduce the paper's Triton OOM entries.

use crate::common::{b_row_tx, split_b_traffic, spmm_flops};
use crate::csr::parallel_csr_spmm_tiled;
use crate::simd::TileParams;
use crate::SpmmKernel;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, Result};

/// Triton-style BCSR SpMM (one thread block per block-row).
pub struct BcsrKernel<T> {
    bcsr: BcsrMatrix<T>,
    /// The tiles' non-zero entries, row by row in ascending column
    /// order: the numeric path streams them through the CSR row loop
    /// (the padded zeros the GPU multiplies contribute nothing).
    entries: CsrMatrix<T>,
    tile: TileParams,
}

impl<T: AtomicScalar> BcsrKernel<T> {
    /// Wrap a BCSR operand (default execution tile).
    pub fn new(bcsr: BcsrMatrix<T>) -> Self {
        BcsrKernel {
            entries: bcsr.to_csr(),
            bcsr,
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
        parallel_csr_spmm_tiled(&self.entries, b, tile)
    }

    /// Access the underlying matrix.
    pub fn bcsr(&self) -> &BcsrMatrix<T> {
        &self.bcsr
    }
}

impl<T: AtomicScalar> SpmmKernel<T> for BcsrKernel<T> {
    fn name(&self) -> &'static str {
        "bcsr(triton)"
    }

    fn shape(&self) -> (usize, usize) {
        self.bcsr.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.run_tiled(b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let (rows, k_dim) = self.bcsr.shape();
        let (br, bc) = self.bcsr.block_shape();
        let slots = br * bc;
        let ws = k_dim * j * elem;
        let per_row = b_row_tx(j, elem, device);
        let mut launch =
            LaunchSpec::new(self.name(), 256).with_grid_multiplier(j.div_ceil(device.warp_size));
        let ptr = self.bcsr.block_row_ptr();
        for blk_row in 0..self.bcsr.num_block_rows() {
            let ntiles = ptr[blk_row + 1] - ptr[blk_row];
            if ntiles == 0 {
                continue;
            }
            // Tile payload: dense values, coalesced, padding included.
            let tile_tx = segment_transactions(ntiles * slots, elem, device.transaction_bytes);
            let meta = segment_transactions(ntiles, 4, device.transaction_bytes) + 1;
            // Each tile consumes `bc` rows of B in full; distinct tiles in
            // a block row have distinct block columns, so these are unique.
            let unique_b = (ntiles * bc) as u64 * per_row;
            let (b_dram, b_l2) = split_b_traffic(unique_b, 0, ws, device);
            let out_rows = br.min(rows - blk_row * br);
            let c_tx = out_rows as u64 * per_row;
            launch.push(BlockCost {
                dram_transactions: tile_tx + meta + b_dram + c_tx,
                l2_transactions: b_l2,
                // Dense tile math multiplies padding too.
                flops: spmm_flops(ntiles * slots, j),
                atomic_transactions: 0,
                lane_efficiency: 1.0,
            });
        }
        vec![launch]
    }

    fn format_bytes(&self) -> usize {
        self.bcsr.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::{block_sparse, uniform_random};
    use lf_sparse::{CsrMatrix, Pcg32};

    fn kernels(seed: u64, blocky: bool) -> (CsrMatrix<f64>, BcsrKernel<f64>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let coo = if blocky {
            block_sparse(128, 128, 8, 40, 1.0, &mut rng)
        } else {
            uniform_random(128, 128, 500, &mut rng)
        };
        let csr = CsrMatrix::from_coo(&coo);
        let k = BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap());
        (csr, k)
    }

    #[test]
    fn numeric_matches_reference() {
        for blocky in [true, false] {
            let (csr, k) = kernels(1, blocky);
            let mut rng = Pcg32::seed_from_u64(60);
            for j in [1, 16, 50] {
                let b = DenseMatrix::random(csr.cols(), j, &mut rng);
                let got = k.run(&b).unwrap();
                let want = csr.spmm_reference(&b).unwrap();
                assert!(got.approx_eq(&want, 1e-9), "blocky={blocky} J={j}");
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (_, k) = kernels(2, true);
        assert!(k.run(&DenseMatrix::<f64>::zeros(5, 3)).is_err());
    }

    #[test]
    fn scattered_matrix_pays_padding() {
        let d = DeviceModel::v100();
        let (_, blocky) = kernels(3, true);
        let (_, scattered) = kernels(3, false);
        // Padding ratios differ wildly...
        assert!(scattered.bcsr().padding_ratio() > 0.9);
        assert!(blocky.bcsr().padding_ratio() < 0.1);
        // ...and the scattered case burns flops on zeros.
        let pb = blocky.profile(128, &d);
        let ps = scattered.profile(128, &d);
        let nnz_b = blocky.bcsr().nnz() as f64;
        let nnz_s = scattered.bcsr().nnz() as f64;
        assert!(
            (ps.flops as f64 / nnz_s) > 10.0 * (pb.flops as f64 / nnz_b),
            "per-nnz flops should explode with padding"
        );
    }

    #[test]
    fn oom_on_pathological_padding() {
        // One nnz per 8x8 tile over a large matrix: footprint blows up
        // (the §2.1 anecdote) and the kernel reports it cannot fit on a
        // small device.
        let mut trips = Vec::new();
        for bi in 0..400usize {
            for bj in 0..400usize {
                if (bi + bj) % 3 == 0 {
                    trips.push((bi * 8, bj * 8, 1.0f64));
                }
            }
        }
        let csr =
            CsrMatrix::from_coo(&lf_sparse::CooMatrix::from_triplets(3200, 3200, trips).unwrap());
        let k = BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap());
        assert!(k.bcsr().padding_ratio() > 0.98);
        assert!(k.format_bytes() > 30 * csr.memory_bytes());
        let small = DeviceModel {
            memory_capacity: 16 * 1024 * 1024,
            ..DeviceModel::tiny()
        };
        assert!(!k.fits_in_memory(256, &small));
        assert!(k.fits_in_memory(256, &DeviceModel::v100()));
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f64>::empty(16, 16);
        let k = BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap());
        let b = DenseMatrix::zeros(16, 4);
        let c = k.run(&b).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let p = k.profile(4, &DeviceModel::v100());
        assert_eq!(p.num_blocks, 0);
    }
}
