//! The CELL SpMM kernel — Algorithm 2 of the paper.
//!
//! Every bucket is a regular Ellpack grid whose rows all fit the bucket
//! width, and every `2^k` non-zero slots form one GPU block. The kernel:
//!
//! * streams `row_ind`, `col_ind`, `val` coalesced (the grids are
//!   row-major and fully regular);
//! * reads the dense operand `B` only inside the block's column partition,
//!   shrinking the L2 working set by the partition factor;
//! * writes `C` normally, or with `atomicAdd` when the bucket is flagged
//!   (`needs_atomic`: multi-partition matrices and the maximum bucket,
//!   which may hold folded rows — Algorithm 2 line 9);
//! * launches all buckets of all partitions as **one fused launch**,
//!   mirroring the horizontal-fusion pass SparseTIR inserts (§6).
//!
//! The numeric path runs on the shared execution engine, but it does
//! not copy line 9's atomics: GPU thread blocks cannot share a row, CPU
//! work items can simply *own* one. Output rows are cut into **row
//! bands** (contiguous row ranges of about `chunk_slots` stored slots);
//! one work item owns a band and walks its `(partition, bucket,
//! bucket-row range)` segments in partition-major order, accumulating
//! straight into its own `C` rows — no CAS, no scratch accumulator, no
//! flush pass. Bucket `row_ind` is ascending and a folded row's
//! fragments sit in column order in its partition's cap bucket, so every
//! `C[r][s]` sums its products in ascending CSR column order: the result
//! is **bitwise-equal** to `CsrMatrix::spmm_reference` for every worker
//! count, tile and partition count. The band schedule is built once,
//! when the kernel's tile is bound. `needs_atomic` still drives the
//! analytic model ([`SpmmKernel::launches`]) exactly as Algorithm 2
//! does, and [`CellKernel::run_forced_atomic`] keeps a CAS-flushing
//! oracle path.

use crate::common::{b_row_tx, split_b_traffic, spmm_flops, BlockScratch};
use crate::simd::{stream_row, stream_rows, Rows, TileParams};
use crate::SpmmKernel;
use lf_cell::{Bucket, CellMatrix};
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::parallel::{
    default_workers, parallel_for, parallel_for_init, parallel_map_init, DisjointSlice,
};
use lf_sim::shadow::ShadowRegion;
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{DenseMatrix, Result, Scalar, SparseError};

/// How bucket kernels are combined into launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionMode {
    /// One fused launch across all partitions and buckets — the
    /// horizontal-fusion pass this paper adds to the TVM backend (§6).
    Full,
    /// One launch per column partition (buckets within a partition are
    /// fused, partitions are not) — how the SparseTIR hyb baseline runs.
    PerPartition,
}

/// Bucket rows `lo..hi` of bucket `bucket` in partition `part`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    part: u32,
    bucket: u32,
    lo: u32,
    hi: u32,
}

/// The numeric path's row-band schedule: band `b` owns output rows
/// `rows[b]..rows[b + 1]` and walks `segments[offsets[b]..offsets[b +
/// 1]]`, its bucket rows in partition-major order.
#[derive(Debug, Clone)]
struct BandSchedule {
    /// The `TileParams::chunk_slots` the bands were cut at.
    chunk_slots: usize,
    rows: Vec<usize>,
    offsets: Vec<usize>,
    segments: Vec<Segment>,
}

impl BandSchedule {
    /// Cut the output rows into bands of at least `chunk_slots` stored
    /// slots (a heavier row is a band of its own). One pass over the
    /// bucket rows weighs every output row; one forward cursor per
    /// bucket then finds each band's segments, so the build is
    /// O(bucket rows + bands × buckets).
    ///
    /// The cursors rely on ascending `row_ind` in every bucket, which
    /// the builder guarantees; a hand-assembled matrix without it gets
    /// one band over all rows, still a single writer per row.
    fn build<T: Scalar>(cell: &CellMatrix<T>, chunk_slots: usize) -> Self {
        let buckets = || {
            cell.partitions().iter().enumerate().flat_map(|(pi, part)| {
                part.buckets
                    .iter()
                    .enumerate()
                    .map(move |(bi, bucket)| (pi, bi, bucket))
            })
        };
        let mut weight = vec![0usize; cell.rows()];
        let mut sorted = true;
        for (_, _, bucket) in buckets() {
            sorted &= bucket.row_ind.windows(2).all(|w| w[0] <= w[1]);
            for &r in &bucket.row_ind {
                weight[r as usize] += bucket.width;
            }
        }
        let target = if sorted {
            chunk_slots.max(1)
        } else {
            usize::MAX
        };
        let mut rows = vec![0];
        let mut acc = 0usize;
        for (r, &w) in weight.iter().enumerate() {
            acc = acc.saturating_add(w);
            if acc >= target {
                rows.push(r + 1);
                acc = 0;
            }
        }
        if acc > 0 {
            rows.push(weight.len());
        }
        let mut cursors = vec![0usize; buckets().count()];
        let mut offsets = Vec::with_capacity(rows.len());
        offsets.push(0);
        let mut segments = Vec::new();
        for &end in &rows[1..] {
            for ((pi, bi, bucket), hi) in buckets().zip(cursors.iter_mut()) {
                let lo = *hi;
                while *hi < bucket.num_rows() && (bucket.row_ind[*hi] as usize) < end {
                    *hi += 1;
                }
                if *hi > lo {
                    segments.push(Segment {
                        part: pi as u32,
                        bucket: bi as u32,
                        lo: lo as u32,
                        hi: *hi as u32,
                    });
                }
            }
            offsets.push(segments.len());
        }
        BandSchedule {
            chunk_slots,
            rows,
            offsets,
            segments,
        }
    }

    /// Number of bands.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// One work item of the forced-atomic path: a row range of one bucket.
struct WorkItem<'m, T> {
    bucket: &'m Bucket<T>,
    lo: usize,
    hi: usize,
}

/// One flattened analytic work item: a GPU block of one bucket.
struct AnalyticItem<'m, T> {
    bucket: &'m Bucket<T>,
    part_idx: usize,
    /// The partition's `B` working-set bytes (its column span only).
    working_set: usize,
    lo: usize,
    hi: usize,
}

/// Parallelize construction only when there is enough work to amortize a
/// pool dispatch.
fn construction_workers(items: usize) -> usize {
    if items >= 256 {
        default_workers()
    } else {
        1
    }
}

/// LiteForm's CELL SpMM kernel.
pub struct CellKernel<T> {
    cell: CellMatrix<T>,
    fusion: FusionMode,
    tile: TileParams,
    /// Row bands cut at `tile.chunk_slots`, built when the tile is bound.
    bands: BandSchedule,
}

impl<T: AtomicScalar> CellKernel<T> {
    /// Wrap a CELL operand (fully fused launches, default tile).
    pub fn new(cell: CellMatrix<T>) -> Self {
        Self::tiled(cell, TileParams::default())
    }

    /// Wrap a CELL operand bound to an execution tile (fully fused
    /// launches). Same as `new(cell).with_tile(tile)`, but builds the
    /// row-band schedule once instead of twice.
    pub fn tiled(cell: CellMatrix<T>, tile: TileParams) -> Self {
        let bands = BandSchedule::build(&cell, tile.chunk_slots);
        CellKernel {
            cell,
            fusion: FusionMode::Full,
            tile,
            bands,
        }
    }

    /// Wrap with an explicit fusion mode.
    pub fn with_fusion(cell: CellMatrix<T>, fusion: FusionMode) -> Self {
        CellKernel {
            fusion,
            ..Self::new(cell)
        }
    }

    /// Set the execution tile this kernel runs with by default (builder
    /// style; the `lf-cost` tile search picks it per matrix family + J).
    /// Rebuilds the row bands when `chunk_slots` changes.
    pub fn with_tile(mut self, tile: TileParams) -> Self {
        if tile.chunk_slots != self.bands.chunk_slots {
            self.bands = BandSchedule::build(&self.cell, tile.chunk_slots);
        }
        self.tile = tile;
        self
    }

    /// The execution tile `run` uses.
    pub fn tile_params(&self) -> TileParams {
        self.tile
    }

    /// Access the underlying matrix.
    pub fn cell(&self) -> &CellMatrix<T> {
        &self.cell
    }

    fn check_shape(&self, b: &DenseMatrix<T>) -> Result<()> {
        let (rows, cols) = self.cell.shape();
        if cols != b.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spmm",
                lhs: (rows, cols),
                rhs: b.shape(),
            });
        }
        Ok(())
    }

    /// Numeric path with an explicit execution tile (serving threads the
    /// memoized per-(matrix-family, J) winner through here; `run` uses
    /// the kernel's own tile): one parallel region over the row bands,
    /// each accumulating straight into the `C` rows it owns. `tile`
    /// selects the j-tile, k-block depth and lane shape (none of which
    /// changes any element's accumulation order) and the band size; a
    /// `chunk_slots` other than the bound tile's builds a transient
    /// schedule.
    pub fn run_tiled(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        self.check_shape(b)?;
        let (rows, _) = self.cell.shape();
        let j = b.cols();
        let mut c = DenseMatrix::zeros(rows, j);
        if j == 0 {
            return Ok(c);
        }
        let transient;
        let bands = if tile.chunk_slots == self.bands.chunk_slots {
            &self.bands
        } else {
            transient = BandSchedule::build(&self.cell, tile.chunk_slots);
            &transient
        };
        let parts = self.cell.partitions();
        // Debug builds check the bucket labels the GPU model relies on
        // through the shadow race detector: rows of `needs_atomic ==
        // false` buckets must be claimed exactly once (exclusive), the
        // rest register shared claims. A mislabeled bucket — a
        // plain-store row another bucket also writes — panics here.
        let labels = ShadowRegion::new(rows * j);
        {
            let out = DisjointSlice::new(c.as_mut_slice());
            parallel_for(bands.len(), default_workers(), |band| {
                let r0 = bands.rows[band];
                // SAFETY: band row ranges are disjoint (the schedule cuts the
                // rows into consecutive ranges) and `parallel_for` hands each
                // band to exactly one worker.
                let c_band = unsafe { out.slice_mut(r0 * j, (bands.rows[band + 1] - r0) * j) };
                for seg in &bands.segments[bands.offsets[band]..bands.offsets[band + 1]] {
                    let bucket = &parts[seg.part as usize].buckets[seg.bucket as usize];
                    let (lo, hi, w) = (seg.lo as usize, seg.hi as usize, bucket.width);
                    let row_ind = &bucket.row_ind[lo..hi];
                    for &row in row_ind {
                        if bucket.needs_atomic {
                            labels.claim_shared(row as usize * j, j);
                        } else {
                            labels.claim_exclusive(row as usize * j, j);
                        }
                    }
                    let rows = Rows::Fixed {
                        width: w,
                        row_ind: Some(row_ind),
                        base: r0,
                    };
                    let (cols, vals) = (
                        &bucket.col_ind[lo * w..hi * w],
                        &bucket.values[lo * w..hi * w],
                    );
                    stream_rows(&tile, c_band, rows, cols, vals, b);
                }
            });
        }
        Ok(c)
    }

    /// Numeric path with every bucket row flushed through `atomic_add`:
    /// the flattened `(partition, bucket, row-chunk)` work queue with a
    /// per-worker accumulator, the CPU image of Algorithm 2 line 9. Kept
    /// as the oracle the equivalence tests and `bench_spmm` compare
    /// `run` against; fragments of one row may land in any order, so it
    /// agrees with `run` to rounding, not bitwise.
    pub fn run_forced_atomic(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.check_shape(b)?;
        let (rows, _) = self.cell.shape();
        let j = b.cols();
        let mut c = DenseMatrix::zeros(rows, j);
        let mut items = Vec::new();
        for bucket in self.cell.partitions().iter().flat_map(|p| &p.buckets) {
            let step = (self.tile.chunk_slots.max(1) / bucket.width.max(1)).max(1);
            for lo in (0..bucket.num_rows()).step_by(step) {
                let hi = (lo + step).min(bucket.num_rows());
                items.push(WorkItem { bucket, lo, hi });
            }
        }
        if j == 0 || items.is_empty() {
            return Ok(c);
        }
        let cells = T::as_cells(c.as_mut_slice());
        parallel_for_init(
            items.len(),
            default_workers(),
            || vec![T::ZERO; j],
            |acc, wi| {
                let WorkItem { bucket, lo, hi } = items[wi];
                let w = bucket.width;
                for bi in lo..hi {
                    acc.fill(T::ZERO);
                    let (cols, vals) = (
                        &bucket.col_ind[bi * w..][..w],
                        &bucket.values[bi * w..][..w],
                    );
                    stream_row(&self.tile, acc, cols, vals, b);
                    let out = bucket.row_ind[bi] as usize * j;
                    for (cell, &v) in cells[out..].iter().zip(acc.iter()) {
                        T::atomic_add(cell, v);
                    }
                }
            },
        );
        Ok(c)
    }

    /// Flatten all `(partition, bucket, GPU-block)` triples for the
    /// analytic path.
    fn analytic_items(&self, j: usize) -> Vec<AnalyticItem<'_, T>> {
        let elem = std::mem::size_of::<T>();
        let mut items = Vec::new();
        for (part_idx, part) in self.cell.partitions().iter().enumerate() {
            let span = part.col_range.1 - part.col_range.0;
            let working_set = span * j * elem;
            for bucket in &part.buckets {
                let rpb = bucket.rows_per_block.max(1);
                let mut lo = 0;
                while lo < bucket.num_rows() {
                    let hi = (lo + rpb).min(bucket.num_rows());
                    items.push(AnalyticItem {
                        bucket,
                        part_idx,
                        working_set,
                        lo,
                        hi,
                    });
                    lo = hi;
                }
            }
        }
        items
    }
}

impl<T: AtomicScalar> SpmmKernel<T> for CellKernel<T> {
    fn name(&self) -> &'static str {
        "cell(liteform)"
    }

    fn shape(&self) -> (usize, usize) {
        self.cell.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.run_tiled(b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let per_row = b_row_tx(j, elem, device);
        let j_tiles = j.div_ceil(device.warp_size);
        let items = self.analytic_items(j);
        // Per-block costs are independent: build them in one parallel
        // region with per-worker scratch (no per-block allocation, no
        // sort-dedup garbage), then stitch launches together in order.
        let costs: Vec<BlockCost> = parallel_map_init(
            items.len(),
            construction_workers(items.len()),
            BlockScratch::new,
            |scratch, ii| {
                let it = &items[ii];
                let bucket = it.bucket;
                let w = bucket.width;
                let rows_here = it.hi - it.lo;
                let slots = rows_here * w;
                let (nnz, unique_cols) = scratch.count_unique_iter(
                    bucket.col_ind[it.lo * w..it.hi * w]
                        .iter()
                        .copied()
                        .filter(|&c| c != ELL_PAD),
                );
                let unique = unique_cols as u64 * per_row;
                let total = nnz as u64 * per_row;
                let (b_dram, b_l2) =
                    split_b_traffic(unique, total - unique, it.working_set, device);
                // row_ind + col_ind + values, all coalesced streams.
                let row_ind_tx = segment_transactions(rows_here, 4, device.transaction_bytes);
                let colval = 2 * segment_transactions(slots, 4, device.transaction_bytes);
                let out_rows = scratch.count_unique(&bucket.row_ind[it.lo..it.hi]) as u64;
                let (c_store, c_atomic) = if bucket.needs_atomic {
                    (0, out_rows * per_row)
                } else {
                    (out_rows * per_row, 0)
                };
                BlockCost {
                    dram_transactions: b_dram + row_ind_tx + colval + c_store,
                    l2_transactions: b_l2,
                    flops: spmm_flops(slots, j),
                    atomic_transactions: c_atomic,
                    lane_efficiency: if slots > 0 {
                        (nnz as f64 / slots as f64).max(1e-3)
                    } else {
                        1.0
                    },
                }
            },
        );
        let new_launch = || LaunchSpec::new(self.name(), 256).with_grid_multiplier(j_tiles);
        match self.fusion {
            FusionMode::Full => {
                let mut launch = new_launch();
                for cost in costs {
                    launch.push(cost);
                }
                vec![launch]
            }
            FusionMode::PerPartition => {
                let num_parts = self.cell.partitions().len().max(1);
                let mut out: Vec<LaunchSpec> = (0..num_parts).map(|_| new_launch()).collect();
                for (item, cost) in items.iter().zip(costs) {
                    out[item.part_idx].push(cost);
                }
                out.retain(|l| !l.blocks.is_empty());
                if out.is_empty() {
                    out.push(new_launch());
                }
                out
            }
        }
    }

    fn format_bytes(&self) -> usize {
        self.cell.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Lanes;
    use lf_cell::{build_cell, CellConfig};
    use lf_sparse::gen::{mixed_regions, uniform_random, uniform_with_long_rows};
    use lf_sparse::{CsrMatrix, Pcg32};

    fn check(csr: &CsrMatrix<f64>, cfg: &CellConfig) {
        let cell = build_cell(csr, cfg).unwrap();
        let k = CellKernel::new(cell);
        let mut rng = Pcg32::seed_from_u64(80);
        for j in [1, 17, 64] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let got = k.run(&b).unwrap();
            let want = csr.spmm_reference(&b).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "cfg={cfg:?} J={j}");
        }
    }

    #[test]
    fn numeric_correct_across_configs() {
        let mut rng = Pcg32::seed_from_u64(1);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(150, 180, 2500, &mut rng));
        check(&csr, &CellConfig::default());
        check(&csr, &CellConfig::with_partitions(3));
        check(
            &csr,
            &CellConfig::with_partitions(2).with_max_widths(vec![4, 8]),
        );
    }

    #[test]
    fn numeric_correct_with_folding() {
        let mut rng = Pcg32::seed_from_u64(2);
        let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
            200, 300, 2000, 4, 250, &mut rng,
        ));
        check(&csr, &CellConfig::default().with_max_widths(vec![8]));
        check(
            &csr,
            &CellConfig::with_partitions(4).with_max_widths(vec![16]),
        );
    }

    #[test]
    fn numeric_correct_beyond_one_j_tile() {
        // J > j_tile exercises the accumulator tiling loop.
        let mut rng = Pcg32::seed_from_u64(21);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(80, 90, 1200, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(2)).unwrap());
        let j = TileParams::default().j_tile + 37;
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let got = k.run(&b).unwrap();
        let want = csr.spmm_reference(&b).unwrap();
        assert!(got.approx_eq(&want, 1e-9));
    }

    #[test]
    fn every_tile_shape_is_bitwise_identical() {
        // Any (j_tile, k_block, lanes, chunk) combination must produce
        // the same bits as the default tile: per output element the
        // accumulation order over k never changes, and no shape fuses
        // multiply-adds.
        let tiles = [
            TileParams {
                lanes: Lanes::Scalar,
                ..TileParams::default()
            },
            TileParams {
                j_tile: 32,
                k_block: 3,
                lanes: Lanes::X4,
                chunk_slots: 64,
            },
            TileParams {
                j_tile: 512,
                k_block: 32,
                lanes: Lanes::X8,
                chunk_slots: 16384,
            },
            TileParams {
                j_tile: 1,
                k_block: 1,
                lanes: Lanes::X8,
                chunk_slots: 1,
            },
        ];
        let mut rng = Pcg32::seed_from_u64(23);
        // Single partition, no folding: every bucket single-writer, so
        // results are bitwise stable regardless of worker count.
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(150, 160, 2400, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        for j in [5, 64, 133] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let want = k.run(&b).unwrap();
            assert!(want.approx_eq(&csr.spmm_reference(&b).unwrap(), 1e-9));
            for tile in tiles {
                let got = k.run_tiled(&b, tile).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "J={j} tile={tile:?}");
            }
        }
        // Folded / multi-partition (`needs_atomic`) buckets: the row
        // bands still sum every element in ascending column order, so
        // every tile reproduces the reference bits.
        let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
            150, 160, 2200, 4, 120, &mut rng,
        ));
        let ka = CellKernel::new(
            build_cell(
                &csr,
                &CellConfig::with_partitions(2).with_max_widths(vec![8]),
            )
            .unwrap(),
        );
        let b = DenseMatrix::random(csr.cols(), 70, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        for tile in tiles {
            let got = ka.run_tiled(&b, tile).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "atomic tile={tile:?}");
            assert_eq!(got.as_slice(), want.as_slice(), "atomic tile={tile:?}");
        }
    }

    #[test]
    fn plain_store_path_matches_forced_atomics_bitwise() {
        // Single partition, no folding: every bucket is single-writer, so
        // `run` takes plain stores while `run_forced_atomic` CAS-loops.
        // Both add the same partial sums in the same order, so the
        // results must be bit-identical.
        let mut rng = Pcg32::seed_from_u64(22);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(120, 100, 1800, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        assert!(k
            .cell()
            .partitions()
            .iter()
            .flat_map(|p| &p.buckets)
            .all(|b| !b.needs_atomic));
        for j in [1, 7, 33] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let fast = k.run(&b).unwrap();
            let atomic = k.run_forced_atomic(&b).unwrap();
            assert_eq!(fast.as_slice(), atomic.as_slice(), "J={j}");
        }
    }

    /// Seeded bug: two buckets both flagged atomic-free (`needs_atomic ==
    /// false`) writing the same output row. The shadow race detector must
    /// reject the second exclusive claim — in debug builds a mislabeled
    /// bucket panics at the write site instead of silently clobbering the
    /// other bucket's row.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "single-writer")]
    fn mislabeled_atomic_free_bucket_detected() {
        use lf_cell::Partition;
        let mk_bucket = |col: lf_sparse::Index| Bucket {
            width: 1,
            row_ind: vec![0],
            col_ind: vec![col],
            values: vec![1.0f64],
            rows_per_block: 1,
            needs_atomic: false,
            has_folded: false,
        };
        let part = Partition {
            col_range: (0, 4),
            buckets: vec![mk_bucket(0), mk_bucket(1)],
        };
        let cell = CellMatrix::from_parts(2, 4, 2, vec![part], CellConfig::default());
        let k = CellKernel::new(cell);
        let _ = k.run(&DenseMatrix::<f64>::zeros(4, 2));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut rng = Pcg32::seed_from_u64(3);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(10, 10, 30, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        assert!(k.run(&DenseMatrix::<f64>::zeros(7, 3)).is_err());
    }

    #[test]
    fn single_fused_launch() {
        let mut rng = Pcg32::seed_from_u64(4);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(256, 256, 6000, 4, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(4)).unwrap());
        let launches = k.launches(64, &DeviceModel::v100());
        assert_eq!(launches.len(), 1, "buckets must be horizontally fused");
        assert!(launches[0].blocks.len() > 4);
    }

    #[test]
    fn partitioning_shrinks_working_set_on_mixed_matrix() {
        // On a matrix with strongly varying column-region density, more
        // partitions should not be slower by much and often help; at the
        // very least the profile must remain correct and bounded.
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(5);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(4096, 4096, 200_000, 4, &mut rng));
        let t1 = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(1)).unwrap())
            .profile(256, &d);
        let t4 = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(4)).unwrap())
            .profile(256, &d);
        // The 4-partition build must show fewer DRAM transactions per B
        // access thanks to the smaller working set.
        assert!(
            t4.dram_transactions < t1.dram_transactions,
            "partitioning should increase L2 hits: {} vs {}",
            t4.dram_transactions,
            t1.dram_transactions
        );
    }

    #[test]
    fn blocks_are_balanced() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(6);
        let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
            3000, 3000, 40_000, 3, 2500, &mut rng,
        ));
        let cfg = CellConfig::default().with_max_widths(vec![32]);
        let k = CellKernel::new(build_cell(&csr, &cfg).unwrap());
        let p = k.profile(128, &d);
        assert!(
            p.imbalance < 8.0,
            "equal-nnz blocks should stay balanced: {}",
            p.imbalance
        );
    }

    #[test]
    fn atomic_traffic_only_when_flagged() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(7);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(128, 128, 1500, &mut rng));
        // Single partition, no fold: no atomics.
        let k1 = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        assert_eq!(k1.profile(64, &d).atomic_transactions, 0);
        // Multi-partition: atomics appear.
        let k2 = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(2)).unwrap());
        assert!(k2.profile(64, &d).atomic_transactions > 0);
    }

    #[test]
    fn parallel_launch_construction_matches_sequential() {
        // The same matrix profiled through the parallel construction path
        // (many blocks) and block-by-block must agree exactly: launch
        // assembly preserves block order.
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(8);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(2048, 2048, 120_000, 4, &mut rng));
        let cell = build_cell(&csr, &CellConfig::with_partitions(4)).unwrap();
        let k = CellKernel::new(cell);
        let a = k.launches(64, &d);
        let b = k.launches(64, &d);
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.blocks, lb.blocks);
        }
        assert!(a[0].blocks.len() >= 256, "expect parallel construction");
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f64>::empty(8, 8);
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        let c = k.run(&DenseMatrix::zeros(8, 2)).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(k.profile(2, &DeviceModel::v100()).num_blocks, 0);
    }
}
