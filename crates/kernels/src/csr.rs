//! CSR-based SpMM kernels: the four fixed-format baseline mappings
//! (naive scalar, cuSPARSE-like vector, dgSPARSE/GE-SpMM, Sputnik).

use crate::common::{b_row_tx, split_b_traffic, spmm_flops, BlockScratch};
use crate::simd::{stream_rows, Rows, TileParams};
use crate::SpmmKernel;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::parallel::{default_workers, parallel_ranges, DisjointSlice};
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::{CsrMatrix, DenseMatrix, Result, SparseError};

/// Row-parallel CSR SpMM with an explicit execution tile, over a
/// borrowed operand. Each output row has exactly one writer, so workers
/// stream each chunk of rows straight into their disjoint `C` rows
/// through one call of the shared microkernel — no atomics, no per-row
/// scratch. Per-element accumulation order is ascending-k in every lane
/// mode, so all modes are bitwise identical. Every CSR kernel's numeric path is this loop;
/// a fixed-CSR verdict runs it over the request's own matrix.
pub fn parallel_csr_spmm_tiled<T: AtomicScalar>(
    csr: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
    tile: TileParams,
) -> Result<DenseMatrix<T>> {
    if csr.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm",
            lhs: csr.shape(),
            rhs: b.shape(),
        });
    }
    let j = b.cols();
    let mut c = DenseMatrix::zeros(csr.rows(), j);
    {
        let out = DisjointSlice::new(c.as_mut_slice());
        parallel_ranges(csr.rows(), default_workers(), |rows| {
            // SAFETY: `parallel_ranges` hands out disjoint row ranges, so
            // the `start * j .. end * j` windows never overlap.
            let c_rows = unsafe { out.slice_mut(rows.start * j, rows.len() * j) };
            let row_ptr = &csr.row_ptr()[rows.start..=rows.end];
            stream_rows(
                &tile,
                c_rows,
                Rows::Csr(row_ptr),
                csr.col_ind(),
                csr.values(),
                b,
            );
        });
    }
    Ok(c)
}

/// Per-block B-traffic accounting shared by the CSR kernels: given the
/// column indices a block touches, split into (dram, l2) transactions.
/// `scratch` is reused across blocks — no per-block allocation.
fn block_b_traffic(
    scratch: &mut BlockScratch,
    block_cols: &[u32],
    j: usize,
    elem: usize,
    working_set: usize,
    device: &DeviceModel,
) -> (u64, u64) {
    let per_row = b_row_tx(j, elem, device);
    let unique = scratch.count_unique(block_cols) as u64 * per_row;
    let total = block_cols.len() as u64 * per_row;
    split_b_traffic(unique, total - unique, working_set, device)
}

/// Whole-B working set in bytes for un-partitioned kernels.
fn full_b_working_set<T>(k_rows: usize, j: usize) -> usize {
    k_rows * j * std::mem::size_of::<T>()
}

macro_rules! csr_kernel_boilerplate {
    ($ty:ident) => {
        impl<T: AtomicScalar> $ty<T> {
            /// Wrap a CSR operand (default execution tile).
            pub fn new(csr: CsrMatrix<T>) -> Self {
                Self {
                    csr,
                    tile: TileParams::default(),
                }
            }

            /// Set the execution tile `run` uses (builder style).
            pub fn with_tile(mut self, tile: TileParams) -> Self {
                self.tile = tile;
                self
            }

            /// The execution tile `run` uses.
            pub fn tile_params(&self) -> TileParams {
                self.tile
            }

            /// Numeric path with an explicit execution tile.
            pub fn run_tiled(
                &self,
                b: &DenseMatrix<T>,
                tile: TileParams,
            ) -> Result<DenseMatrix<T>> {
                parallel_csr_spmm_tiled(&self.csr, b, tile)
            }

            /// Access the underlying matrix.
            pub fn csr(&self) -> &CsrMatrix<T> {
                &self.csr
            }
        }
    };
}

// ---------------------------------------------------------------------
// Scalar (thread-per-row) kernel.
// ---------------------------------------------------------------------

/// Naive thread-per-row CSR SpMM: 256 rows per 256-thread block. Column
/// index and value loads are scattered (each lane walks a different row),
/// and warps diverge when row lengths differ — the classic weaknesses the
/// paper's §2 describes.
pub struct CsrScalarKernel<T> {
    csr: CsrMatrix<T>,
    tile: TileParams,
}

csr_kernel_boilerplate!(CsrScalarKernel);

impl<T: AtomicScalar> SpmmKernel<T> for CsrScalarKernel<T> {
    fn name(&self) -> &'static str {
        "csr-scalar"
    }

    fn shape(&self) -> (usize, usize) {
        self.csr.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        parallel_csr_spmm_tiled(&self.csr, b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let rows_per_block = 256;
        let ws = full_b_working_set::<T>(self.csr.cols(), j);
        let mut launch =
            LaunchSpec::new(self.name(), 256).with_grid_multiplier(j.div_ceil(device.warp_size));
        let mut scratch = BlockScratch::new();
        let mut r = 0;
        while r < self.csr.rows() {
            let hi = (r + rows_per_block).min(self.csr.rows());
            let lo_ptr = self.csr.row_ptr()[r];
            let hi_ptr = self.csr.row_ptr()[hi];
            let nnz = hi_ptr - lo_ptr;
            let block_cols = &self.csr.col_ind()[lo_ptr..hi_ptr];
            let (b_dram, b_l2) = block_b_traffic(&mut scratch, block_cols, j, elem, ws, device);
            // Scattered col/val: one sector per element per array.
            let colval = 2 * nnz as u64;
            let row_ptr_tx = segment_transactions(hi - r + 1, 4, device.transaction_bytes);
            // C writes: one row per thread, streaming over j.
            let c_tx = (hi - r) as u64 * b_row_tx(j, elem, device);
            // Divergence: per 32-row warp, active fraction = mean/max len.
            let mut eff_sum = 0.0;
            let mut warps = 0.0;
            let mut w = r;
            while w < hi {
                let we = (w + device.warp_size).min(hi);
                let lens: Vec<usize> = (w..we).map(|i| self.csr.row_len(i)).collect();
                let max = *lens.iter().max().unwrap_or(&0);
                if max > 0 {
                    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
                    eff_sum += mean / max as f64;
                    warps += 1.0;
                }
                w = we;
            }
            launch.push(BlockCost {
                dram_transactions: b_dram + colval + row_ptr_tx + c_tx,
                l2_transactions: b_l2,
                flops: spmm_flops(nnz, j),
                atomic_transactions: 0,
                lane_efficiency: if warps > 0.0 { eff_sum / warps } else { 1.0 },
            });
            r = hi;
        }
        vec![launch]
    }

    fn format_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }
}

// ---------------------------------------------------------------------
// Vector (warp-per-row) kernel — the cuSPARSE-like mapping.
// ---------------------------------------------------------------------

/// Warp-per-row CSR SpMM, the cuSPARSE-style mapping: lanes cover a
/// 32-wide tile of `j`; the row's column indices and values are re-read
/// for every j-tile (`ceil(J/32)` passes), which is this kernel's
/// signature cost at large `J`.
pub struct CsrVectorKernel<T> {
    csr: CsrMatrix<T>,
    tile: TileParams,
}

csr_kernel_boilerplate!(CsrVectorKernel);

impl<T: AtomicScalar> SpmmKernel<T> for CsrVectorKernel<T> {
    fn name(&self) -> &'static str {
        "csr-vector(cusparse)"
    }

    fn shape(&self) -> (usize, usize) {
        self.csr.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        parallel_csr_spmm_tiled(&self.csr, b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        vector_style_launches(
            &self.csr,
            j,
            device,
            self.name(),
            VectorStyle {
                colval_passes: j.div_ceil(device.warp_size) as u64,
                balanced: false,
            },
        )
    }

    fn format_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }
}

// ---------------------------------------------------------------------
// dgSPARSE (GE-SpMM) kernel.
// ---------------------------------------------------------------------

/// GE-SpMM-style warp-per-row kernel (the dgSPARSE library): column
/// indices and values are staged through shared memory once and reused
/// across all j-tiles, removing the vector kernel's re-read factor.
pub struct DgSparseKernel<T> {
    csr: CsrMatrix<T>,
    tile: TileParams,
}

csr_kernel_boilerplate!(DgSparseKernel);

impl<T: AtomicScalar> SpmmKernel<T> for DgSparseKernel<T> {
    fn name(&self) -> &'static str {
        "dgsparse(ge-spmm)"
    }

    fn shape(&self) -> (usize, usize) {
        self.csr.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        parallel_csr_spmm_tiled(&self.csr, b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        vector_style_launches(
            &self.csr,
            j,
            device,
            self.name(),
            VectorStyle {
                colval_passes: 1,
                balanced: false,
            },
        )
    }

    fn format_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }
}

// ---------------------------------------------------------------------
// Sputnik kernel.
// ---------------------------------------------------------------------

/// Sputnik-style kernel: 1-D tiling with a row-swizzle — rows are sorted
/// by length and dealt round-robin to blocks, so every block carries a
/// similar non-zero load (Gale et al., SC'20). Shares the single-pass
/// col/val staging of GE-SpMM; adds a small metadata cost for the row
/// index indirection.
pub struct SputnikKernel<T> {
    csr: CsrMatrix<T>,
    tile: TileParams,
}

csr_kernel_boilerplate!(SputnikKernel);

impl<T: AtomicScalar> SpmmKernel<T> for SputnikKernel<T> {
    fn name(&self) -> &'static str {
        "sputnik"
    }

    fn shape(&self) -> (usize, usize) {
        self.csr.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        parallel_csr_spmm_tiled(&self.csr, b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let ws = full_b_working_set::<T>(self.csr.cols(), j);
        let rows_per_block = 8;
        // Row swizzle: order rows by descending length, deal round-robin.
        let mut order: Vec<usize> = (0..self.csr.rows()).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(self.csr.row_len(r)));
        let num_blocks = self.csr.rows().div_ceil(rows_per_block).max(1);
        let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); num_blocks];
        for (i, &r) in order.iter().enumerate() {
            blocks[i % num_blocks].push(r);
        }
        let mut launch =
            LaunchSpec::new(self.name(), 256).with_grid_multiplier(j.div_ceil(device.warp_size));
        let mut scratch = BlockScratch::new();
        let mut block_cols: Vec<u32> = Vec::new();
        for rows in blocks.iter().filter(|b| !b.is_empty()) {
            block_cols.clear();
            let mut nnz = 0usize;
            let mut colval = 0u64;
            for &r in rows {
                let len = self.csr.row_len(r);
                nnz += len;
                colval += 2 * segment_transactions(len, 4, device.transaction_bytes);
                block_cols.extend_from_slice(self.csr.row_cols(r));
            }
            let (b_dram, b_l2) = block_b_traffic(&mut scratch, &block_cols, j, elem, ws, device);
            // Swizzle metadata: one extra index load per row.
            let meta = segment_transactions(rows.len(), 4, device.transaction_bytes) + 1;
            let c_tx = rows.len() as u64 * b_row_tx(j, elem, device);
            launch.push(BlockCost {
                dram_transactions: b_dram + colval + meta + c_tx,
                l2_transactions: b_l2,
                flops: spmm_flops(nnz, j),
                atomic_transactions: 0,
                lane_efficiency: j_tail_efficiency(j, device),
            });
        }
        vec![launch]
    }

    fn format_bytes(&self) -> usize {
        // CSR plus the swizzled row-index array.
        self.csr.memory_bytes() + self.csr.rows() * 4
    }
}

// ---------------------------------------------------------------------
// Shared vector-style traffic model.
// ---------------------------------------------------------------------

struct VectorStyle {
    /// How many times col/val are streamed (1 = staged in shared memory).
    colval_passes: u64,
    /// Whether rows were rebalanced across blocks (unused here; Sputnik
    /// has its own path).
    #[allow(dead_code)]
    balanced: bool,
}

/// Lane efficiency of j-tiling: the last tile is partial when
/// `j % warp_size != 0`.
fn j_tail_efficiency(j: usize, device: &DeviceModel) -> f64 {
    if j == 0 {
        return 1.0;
    }
    let tiles = j.div_ceil(device.warp_size);
    j as f64 / (tiles * device.warp_size) as f64
}

fn vector_style_launches<T: AtomicScalar>(
    csr: &CsrMatrix<T>,
    j: usize,
    device: &DeviceModel,
    name: &str,
    style: VectorStyle,
) -> Vec<LaunchSpec> {
    let elem = std::mem::size_of::<T>();
    let ws = full_b_working_set::<T>(csr.cols(), j);
    let rows_per_block = 8; // 8 warps × 1 row each, 256 threads
    let mut launch = LaunchSpec::new(name, 256).with_grid_multiplier(j.div_ceil(device.warp_size));
    let mut scratch = BlockScratch::new();
    let mut r = 0;
    while r < csr.rows() {
        let hi = (r + rows_per_block).min(csr.rows());
        let lo_ptr = csr.row_ptr()[r];
        let hi_ptr = csr.row_ptr()[hi];
        let nnz = hi_ptr - lo_ptr;
        let block_cols = &csr.col_ind()[lo_ptr..hi_ptr];
        let (b_dram, b_l2) = block_b_traffic(&mut scratch, block_cols, j, elem, ws, device);
        // Coalesced col/val streams, possibly re-read per j-tile.
        let mut colval = 0u64;
        for i in r..hi {
            colval += 2 * segment_transactions(csr.row_len(i), 4, device.transaction_bytes);
        }
        colval *= style.colval_passes;
        let c_tx = (hi - r) as u64 * b_row_tx(j, elem, device);
        launch.push(BlockCost {
            dram_transactions: b_dram + colval + c_tx + 1,
            l2_transactions: b_l2,
            flops: spmm_flops(nnz, j),
            atomic_transactions: 0,
            lane_efficiency: j_tail_efficiency(j, device),
        });
        r = hi;
    }
    vec![launch]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::{power_law, uniform_random, PowerLawConfig};
    use lf_sparse::{CooMatrix, Pcg32};

    fn toy_csr() -> CsrMatrix<f64> {
        let coo = CooMatrix::from_triplets(
            4,
            5,
            vec![
                (0, 0, 1.0),
                (0, 4, 2.0),
                (1, 2, 3.0),
                (2, 1, -1.0),
                (2, 2, 0.5),
                (2, 3, 1.5),
                (3, 0, 2.5),
            ],
        )
        .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    fn random_csr(seed: u64, rows: usize, cols: usize, nnz: usize) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&uniform_random(rows, cols, nnz, &mut rng))
    }

    fn check_numeric<K: SpmmKernel<f64>>(k: &K, csr: &CsrMatrix<f64>) {
        let mut rng = Pcg32::seed_from_u64(99);
        for j in [1, 3, 32, 70] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let got = k.run(&b).unwrap();
            let want = csr.spmm_reference(&b).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "{} J={j}", k.name());
        }
    }

    #[test]
    fn all_csr_kernels_numerically_correct() {
        for csr in [toy_csr(), random_csr(1, 200, 150, 3000)] {
            check_numeric(&CsrScalarKernel::new(csr.clone()), &csr);
            check_numeric(&CsrVectorKernel::new(csr.clone()), &csr);
            check_numeric(&DgSparseKernel::new(csr.clone()), &csr);
            check_numeric(&SputnikKernel::new(csr.clone()), &csr);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let k = CsrVectorKernel::new(toy_csr());
        let b = DenseMatrix::<f64>::zeros(3, 4);
        assert!(k.run(&b).is_err());
    }

    #[test]
    fn vector_rereads_cost_more_at_large_j() {
        let d = DeviceModel::v100();
        let csr = random_csr(2, 2000, 2000, 40_000);
        let cusparse = CsrVectorKernel::new(csr.clone());
        let dg = DgSparseKernel::new(csr);
        // At J=32 one pass: identical traffic modulo constants.
        let t32 = cusparse.profile(32, &d).time_ms / dg.profile(32, &d).time_ms;
        // At J=512 the vector kernel re-reads col/val 16×.
        let t512 = cusparse.profile(512, &d).time_ms / dg.profile(512, &d).time_ms;
        assert!(
            t512 > t32,
            "re-read penalty should grow with J: {t32} vs {t512}"
        );
        assert!(t512 > 1.0);
    }

    #[test]
    fn sputnik_balances_skewed_rows() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(5);
        let coo = power_law::<f64>(
            &PowerLawConfig {
                rows: 4000,
                cols: 4000,
                target_nnz: 60_000,
                exponent: 2.2,
                max_degree: None,
            },
            &mut rng,
        );
        let csr = CsrMatrix::from_coo(&coo);
        let dg = DgSparseKernel::new(csr.clone());
        let sp = SputnikKernel::new(csr);
        let p_dg = dg.profile(128, &d);
        let p_sp = sp.profile(128, &d);
        assert!(
            p_sp.imbalance < p_dg.imbalance,
            "swizzle should cut imbalance: {} vs {}",
            p_sp.imbalance,
            p_dg.imbalance
        );
    }

    #[test]
    fn scalar_kernel_slowest_on_scattered_matrix() {
        let d = DeviceModel::v100();
        let csr = random_csr(3, 3000, 3000, 30_000);
        let scalar = CsrScalarKernel::new(csr.clone()).profile(128, &d).time_ms;
        let vector = CsrVectorKernel::new(csr).profile(128, &d).time_ms;
        assert!(
            scalar > vector,
            "scattered col/val loads should hurt scalar: {scalar} vs {vector}"
        );
    }

    #[test]
    fn traffic_scales_with_j() {
        let d = DeviceModel::v100();
        let k = DgSparseKernel::new(random_csr(4, 500, 500, 5000));
        let p32 = k.profile(32, &d);
        let p256 = k.profile(256, &d);
        assert!(
            p256.dram_transactions + p256.l2_transactions
                > 4 * (p32.dram_transactions + p32.l2_transactions)
        );
        assert_eq!(p256.flops, 8 * p32.flops);
    }

    #[test]
    fn fits_in_memory_logic() {
        let d = DeviceModel::tiny(); // 256 MB
        let k = DgSparseKernel::new(random_csr(6, 1000, 1000, 10_000));
        assert!(k.fits_in_memory(32, &d));
        // A dense operand far larger than the device cannot fit.
        let huge = DeviceModel {
            memory_capacity: 1024,
            ..DeviceModel::tiny()
        };
        assert!(!k.fits_in_memory(32, &huge));
    }

    #[test]
    fn empty_matrix_profiles() {
        let d = DeviceModel::v100();
        let csr = CsrMatrix::<f64>::empty(0, 10);
        let k = CsrVectorKernel::new(csr);
        let p = k.profile(64, &d);
        assert_eq!(p.num_blocks, 0);
        assert!(p.time_ms > 0.0); // launch overhead only
    }

    #[test]
    fn j_tail_efficiency_bounds() {
        let d = DeviceModel::v100();
        assert_eq!(j_tail_efficiency(32, &d), 1.0);
        assert_eq!(j_tail_efficiency(64, &d), 1.0);
        assert!((j_tail_efficiency(48, &d) - 0.75).abs() < 1e-12);
        assert_eq!(j_tail_efficiency(0, &d), 1.0);
    }
}
