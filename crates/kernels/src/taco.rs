//! TACO-style scheduled CSR SpMM: the non-zero stream is split evenly into
//! warp-sized segments (`nnz_per_warp`), giving perfect load balance at
//! the price of atomics wherever a row straddles a segment boundary. The
//! paper sweeps 6 × 6 schedules and keeps the fastest (§7.1).

use crate::common::{b_row_tx, split_b_traffic, spmm_flops, BlockScratch};
use crate::simd::{stream_row, TileParams};
use crate::SpmmKernel;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::parallel::{default_workers, parallel_for_init};
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::{CsrMatrix, DenseMatrix, Result, SparseError};

/// One TACO schedule point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TacoSchedule {
    /// Non-zeros assigned to each warp.
    pub nnz_per_warp: usize,
    /// Warps per thread block.
    pub warps_per_block: usize,
}

impl TacoSchedule {
    /// The 36-point sweep used in the paper: 6 nnz-per-warp × 6
    /// warps-per-block values.
    pub fn sweep() -> Vec<TacoSchedule> {
        let nnzs = [8, 16, 32, 64, 128, 256];
        let warps = [1, 2, 4, 8, 16, 32];
        let mut out = Vec::with_capacity(36);
        for &n in &nnzs {
            for &w in &warps {
                out.push(TacoSchedule {
                    nnz_per_warp: n,
                    warps_per_block: w,
                });
            }
        }
        out
    }

    /// Non-zeros per thread block.
    pub fn nnz_per_block(&self) -> usize {
        self.nnz_per_warp * self.warps_per_block
    }
}

impl Default for TacoSchedule {
    fn default() -> Self {
        TacoSchedule {
            nnz_per_warp: 32,
            warps_per_block: 8,
        }
    }
}

/// Issue efficiency of TACO's generated scalar inner loops relative to
/// the hand-tuned kernels (see the calibration note in DESIGN.md).
pub const CODEGEN_EFFICIENCY: f64 = 0.5;

/// Sector-utilization penalty on dense-operand loads: TACO's generated
/// lane-per-nonzero loop reads `B` element-wise with neither shared-memory
/// staging nor vectorized loads, so adjacent lanes touch different `B`
/// rows and each 32-byte sector is mostly wasted. Hand-tuned kernels
/// (cuSPARSE/GE-SpMM/Sputnik) coalesce these reads; TACO pays ~4x the
/// sectors (calibration note in DESIGN.md; drives the paper's 0.49x
/// geomean vs cuSPARSE).
pub const B_UNCOALESCED_FACTOR: u64 = 4;

/// TACO-style kernel with an explicit schedule.
pub struct TacoKernel<T> {
    csr: CsrMatrix<T>,
    schedule: TacoSchedule,
    /// Row id owning each non-zero position (precomputed expansion).
    row_of_nnz: Vec<u32>,
    tile: TileParams,
}

impl<T: AtomicScalar> TacoKernel<T> {
    /// Wrap a CSR operand under a schedule.
    pub fn new(csr: CsrMatrix<T>, schedule: TacoSchedule) -> Self {
        let mut row_of_nnz = vec![0u32; csr.nnz()];
        for r in 0..csr.rows() {
            for p in csr.row_ptr()[r]..csr.row_ptr()[r + 1] {
                row_of_nnz[p] = r as u32;
            }
        }
        TacoKernel {
            csr,
            schedule,
            row_of_nnz,
            tile: TileParams::default(),
        }
    }

    /// Replace the tile/lane parameters used by [`SpmmKernel::run`].
    pub fn with_tile(mut self, tile: TileParams) -> Self {
        self.tile = tile;
        self
    }

    /// The tile/lane parameters this kernel runs with.
    pub fn tile_params(&self) -> TileParams {
        self.tile
    }

    /// Run once with explicit tile/lane parameters (overriding the stored
    /// ones), e.g. from a [`TileParams`] search.
    pub fn run_tiled(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        self.execute(b, tile)
    }

    /// The active schedule.
    pub fn schedule(&self) -> TacoSchedule {
        self.schedule
    }

    /// Access the underlying matrix.
    pub fn csr(&self) -> &CsrMatrix<T> {
        &self.csr
    }

    fn execute(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        if self.csr.cols() != b.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spmm",
                lhs: self.csr.shape(),
                rhs: b.shape(),
            });
        }
        let j = b.cols();
        let nnz = self.csr.nnz();
        let seg = self.schedule.nnz_per_warp.max(1);
        let num_segs = nnz.div_ceil(seg).max(1);
        let mut c = DenseMatrix::zeros(self.csr.rows(), j);
        {
            let cells = T::as_cells(c.as_mut_slice());
            let cols = self.csr.col_ind();
            let vals = self.csr.values();
            let row_ptr = self.csr.row_ptr();
            // A row fully contained in the segment has this segment as its
            // only writer — flush with a plain store. Rows straddling a
            // boundary are shared between segments and keep the atomic
            // accumulation, exactly the GPU mapping's write pattern.
            let flush = |cells: &[T::Cell], r: u32, acc: &[T], lo: usize, hi: usize| {
                let r = r as usize;
                let interior = row_ptr[r] >= lo && row_ptr[r + 1] <= hi;
                let base = r * j;
                if interior {
                    for (jj, &v) in acc.iter().enumerate() {
                        T::store_cell(&cells[base + jj], v);
                    }
                } else {
                    for (jj, &v) in acc.iter().enumerate() {
                        T::atomic_add(&cells[base + jj], v);
                    }
                }
            };
            // Each task owns one nnz segment; the per-worker accumulator
            // is reused across every segment the worker processes.
            parallel_for_init(
                num_segs,
                default_workers(),
                || vec![T::ZERO; j],
                |acc, s| {
                    let lo = s * seg;
                    let hi = ((s + 1) * seg).min(nnz);
                    // Each run of same-row non-zeros streams through the
                    // microkernel in ascending `p`, then flushes.
                    let mut p = lo;
                    while p < hi {
                        let r = self.row_of_nnz[p];
                        let end = row_ptr[r as usize + 1].clamp(p + 1, hi);
                        acc.fill(T::ZERO);
                        stream_row(&tile, acc, &cols[p..end], &vals[p..end], b);
                        flush(cells, r, acc, lo, hi);
                        p = end;
                    }
                },
            );
        }
        Ok(c)
    }
}

impl<T: AtomicScalar> SpmmKernel<T> for TacoKernel<T> {
    fn name(&self) -> &'static str {
        "taco"
    }

    fn shape(&self) -> (usize, usize) {
        self.csr.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.execute(b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let nnz = self.csr.nnz();
        let per_row = b_row_tx(j, elem, device);
        let ws = self.csr.cols() * j * elem;
        let block_nnz = self.schedule.nnz_per_block().max(1);
        let threads = (self.schedule.warps_per_block * device.warp_size).clamp(32, 1024);
        let mut launch = LaunchSpec::new(self.name(), threads);
        let mut scratch = BlockScratch::new();
        let mut lo = 0usize;
        while lo < nnz {
            let hi = (lo + block_nnz).min(nnz);
            let block_cols = &self.csr.col_ind()[lo..hi];
            let unique = scratch.count_unique(block_cols) as u64 * per_row * B_UNCOALESCED_FACTOR;
            let total = (hi - lo) as u64 * per_row * B_UNCOALESCED_FACTOR;
            let (b_dram, b_l2) = split_b_traffic(unique, total - unique, ws, device);
            // col/val coalesced, but TACO's generated loop re-reads them
            // for every j-tile like the cuSPARSE mapping.
            let passes = j.div_ceil(device.warp_size) as u64;
            let colval = 2 * segment_transactions(hi - lo, 4, device.transaction_bytes) * passes;
            // Output rows in this block; boundary rows straddling warp
            // segments are written atomically.
            let rows_here = scratch.count_unique(&self.row_of_nnz[lo..hi]) as u64;
            let seg = self.schedule.nnz_per_warp.max(1);
            let mut boundary = 0u64;
            let mut p = lo;
            while p < hi {
                let pe = (p + seg).min(hi);
                if pe < nnz && pe > 0 && self.row_of_nnz[pe - 1] == self.row_of_nnz[pe.min(nnz - 1)]
                {
                    boundary += 1;
                }
                p = pe;
            }
            let atomic_tx = boundary * per_row;
            let c_tx = rows_here * per_row;
            launch.push(BlockCost {
                dram_transactions: b_dram + colval + c_tx + 1,
                l2_transactions: b_l2,
                flops: spmm_flops(hi - lo, j),
                atomic_transactions: atomic_tx,
                // TACO's generated scalar code issues roughly half the
                // useful work per cycle of the hand-tuned libraries (no
                // vectorized loads, no shared-memory staging, no register
                // blocking); calibrated against the paper's 0.49x geomean
                // vs cuSPARSE.
                lane_efficiency: CODEGEN_EFFICIENCY,
            });
            lo = hi;
        }
        vec![launch]
    }

    fn format_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::{power_law, uniform_random, PowerLawConfig};
    use lf_sparse::Pcg32;

    fn random_csr(seed: u64) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&uniform_random(150, 130, 2000, &mut rng))
    }

    #[test]
    fn numeric_matches_reference_across_schedules() {
        let csr = random_csr(1);
        let mut rng = Pcg32::seed_from_u64(70);
        let b = DenseMatrix::random(csr.cols(), 40, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        for sched in [
            TacoSchedule::default(),
            TacoSchedule {
                nnz_per_warp: 8,
                warps_per_block: 1,
            },
            TacoSchedule {
                nnz_per_warp: 256,
                warps_per_block: 32,
            },
        ] {
            let k = TacoKernel::new(csr.clone(), sched);
            let got = k.run(&b).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "{sched:?}");
        }
    }

    #[test]
    fn sweep_has_36_distinct_points() {
        let sweep = TacoSchedule::sweep();
        assert_eq!(sweep.len(), 36);
        let set: std::collections::HashSet<_> = sweep.iter().collect();
        assert_eq!(set.len(), 36);
    }

    #[test]
    fn schedules_produce_different_profiles() {
        let d = DeviceModel::v100();
        let csr = random_csr(2);
        let times: Vec<f64> = TacoSchedule::sweep()
            .into_iter()
            .map(|s| TacoKernel::new(csr.clone(), s).profile(128, &d).time_ms)
            .collect();
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0f64, f64::max);
        assert!(max > 1.2 * min, "sweep should matter: {min}..{max}");
    }

    #[test]
    fn balanced_even_on_power_law() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(3);
        let coo = power_law::<f64>(
            &PowerLawConfig {
                rows: 3000,
                cols: 3000,
                target_nnz: 50_000,
                exponent: 2.0,
                max_degree: None,
            },
            &mut rng,
        );
        let csr = CsrMatrix::from_coo(&coo);
        let k = TacoKernel::new(csr, TacoSchedule::default());
        let p = k.profile(128, &d);
        assert!(
            p.imbalance < 2.0,
            "even-nnz split should balance: {}",
            p.imbalance
        );
    }

    #[test]
    fn atomics_present_with_small_segments() {
        let d = DeviceModel::v100();
        // A single dense-ish row spanning many segments forces boundary
        // atomics.
        let trips: Vec<(usize, usize, f64)> = (0..500).map(|c| (0, c, 1.0)).collect();
        let csr = CsrMatrix::from_coo(&lf_sparse::CooMatrix::from_triplets(4, 500, trips).unwrap());
        let k = TacoKernel::new(
            csr,
            TacoSchedule {
                nnz_per_warp: 16,
                warps_per_block: 4,
            },
        );
        let p = k.profile(64, &d);
        assert!(p.atomic_transactions > 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let k = TacoKernel::new(random_csr(4), TacoSchedule::default());
        assert!(k.run(&DenseMatrix::<f64>::zeros(7, 3)).is_err());
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f64>::empty(5, 5);
        let k = TacoKernel::new(csr, TacoSchedule::default());
        let c = k.run(&DenseMatrix::zeros(5, 3)).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}
