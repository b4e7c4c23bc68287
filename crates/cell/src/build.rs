//! CELL construction: partition → bucket → fold → block (§4 and §5.3).
//!
//! Two builders live here:
//!
//! * [`build_cell`] — the production path: one O(nnz) sweep over the CSR
//!   scatters every row into *all* partitions' segments at once (no
//!   per-partition binary searches), then partition planning and bucket
//!   materialization run in parallel on [`lf_sim::parallel`] workers.
//! * [`build_cell_reference`] — the original per-partition scan kept as
//!   the correctness oracle and the "before" side of the
//!   `cell_build` benchmark. Both share the [`crate::span`] helpers, so
//!   their partitioning can never drift apart; tests assert their
//!   outputs are bit-identical.

use crate::config::{bucket_width_for_len, CellConfig};
use crate::matrix::{Bucket, CellMatrix, Partition};
use crate::span::SpanMap;
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{CsrMatrix, Index, Result, Scalar, SparseError};

/// A row fragment assigned to a bucket: `(original row, CSR index range)`.
/// Offsets are `u32` to halve the fragment tables' footprint; matrices
/// beyond `u32::MAX` non-zeros are far outside single-GPU SpMM scale and
/// are rejected up front by [`build_cell`].
type Fragment = (Index, u32, u32);

/// Build a [`CellMatrix`] from CSR under the given configuration.
///
/// The column space is divided into equal spans (the requested partition
/// count is clamped to the column count — see
/// [`crate::span::effective_partitions`]). Within each span, every row's
/// entries are gathered; rows are grouped into buckets of width `2^i` by
/// length; rows longer than the partition's width cap are folded into
/// multiple bucket rows of the *maximum* bucket (sharing their original
/// row index, later combined with atomics); every `2^k / width` bucket
/// rows form one GPU block, with `2^k = block_nnz_multiple × max bucket
/// width of the partition`.
pub fn build_cell<T: Scalar>(csr: &CsrMatrix<T>, config: &CellConfig) -> Result<CellMatrix<T>> {
    config.validate()?;
    if csr.nnz() >= u32::MAX as usize {
        return Err(SparseError::InvalidConfig(format!(
            "matrix nnz {} exceeds the u32 fragment-offset range",
            csr.nnz()
        )));
    }
    let (rows, cols) = csr.shape();
    let map = SpanMap::new(cols, config.num_partitions);
    let p = map.num_partitions();
    let workers = workers_for(csr.nnz());

    // Phases A+B fused — one sweep over the rows (parallel over row
    // chunks): every row's columns are split into all `p` partition
    // segments at once (see [`BoundaryFinder::split`]) and each segment is
    // binned straight into its partition's width bucket, with no
    // intermediate per-row bounds matrix.
    let plans = sweep_and_plan(csr, &map, config, workers);

    // Phase C — bucket materialization (parallel over all buckets of all
    // partitions, so even a single-partition matrix uses every worker).
    // Fragment lists are moved out of the plans, not cloned.
    let mut jobs: Vec<(usize, usize, Vec<Fragment>, bool, usize)> = Vec::new();
    let mut plans = plans;
    for (pi, plan) in plans.iter_mut().enumerate() {
        let max_width = plan.max_width;
        let block_nnz = plan.block_nnz;
        for (width, frags) in std::mem::take(&mut plan.by_width) {
            jobs.push((pi, width, frags, width == max_width, block_nnz));
        }
    }
    let multi_partition = p > 1;
    let buckets = lf_sim::parallel::parallel_map(jobs.len(), workers, |ji| {
        let (pi, width, ref frags, is_max, block_nnz) = jobs[ji];
        let plan = &plans[pi];
        Some(materialize_bucket(
            csr,
            width,
            frags,
            BucketCtx {
                is_max,
                block_nnz,
                multi_partition,
                any_folded: plan.any_folded,
                uniform_block_nnz: config.uniform_block_nnz,
            },
        ))
    });

    // Phase D — reassemble in (partition, width) order. `jobs` was built
    // partition-major with widths ascending, so a single scan regroups.
    let mut partitions: Vec<Partition<T>> = (0..p)
        .map(|pi| Partition {
            col_range: map.span_of(pi),
            buckets: Vec::new(),
        })
        .collect();
    for (ji, bucket) in buckets.into_iter().enumerate() {
        let pi = jobs[ji].0;
        partitions[pi]
            .buckets
            .push(bucket.expect("bucket materialized"));
    }

    Ok(CellMatrix {
        rows,
        cols,
        nnz: csr.nnz(),
        partitions,
        config: config.clone(),
    })
}

/// Worker count heuristic: parallelism only pays past a few thousand
/// non-zeros (thread spawn ≈ tens of microseconds).
pub fn workers_for(nnz: usize) -> usize {
    if nnz < 8192 {
        1
    } else {
        lf_sim::parallel::default_workers()
    }
}

/// Per-row partition-boundary finder, precomputed once per span layout.
/// This is the one row splitter in the workspace: the builder's fused
/// sweep and the cost model's `PartitionSketch` tally sweep both split
/// rows with it, so the format and the model that prices it can never
/// disagree about partition contents.
pub struct BoundaryFinder {
    /// First column of each partition after the zeroth: the `p - 1`
    /// boundaries a row's sorted columns are split at.
    starts: Vec<usize>,
    /// `ceil(2^32 / span_width)`: a multiply-shift inverse of the
    /// uniform span width, so `(col * magic) >> 32` is `col / span`.
    /// `None` when `cols * span >= 2^32`, where the shortcut stops
    /// being exact (see [`Self::new`] for the error bound).
    magic: Option<u64>,
}

impl BoundaryFinder {
    /// The finder for `map`'s span layout.
    pub fn new(map: &SpanMap) -> Self {
        let p = map.num_partitions();
        let starts: Vec<usize> = (1..p).map(|pi| map.span_of(pi).0).collect();
        // With magic = (2^32 + s) / span for some 0 <= s < span, the
        // product floor(col * magic / 2^32) equals floor(col / span)
        // plus an error below col * s / (span * 2^32), which stays
        // under the 1/span needed for exact floors whenever
        // col * s < 2^32 — guaranteed by cols * span < 2^32.
        let magic = starts.first().and_then(|&span| {
            let cols = map.span_of(p - 1).1;
            ((cols as u64).saturating_mul(span as u64) < 1 << 32)
                .then(|| (1u64 << 32).div_ceil(span as u64))
        });
        BoundaryFinder { starts, magic }
    }

    /// Split one row's sorted columns at every partition boundary:
    /// `out[pi]..out[pi+1]` becomes partition `pi`'s segment of the
    /// row, as absolute CSR offsets (`base` is the row's start in the
    /// CSR arrays). `out` holds `p + 1` entries for `p` partitions.
    #[inline]
    pub fn split(&self, rcols: &[Index], base: usize, out: &mut [usize]) {
        let starts = &self.starts;
        let p = starts.len() + 1;
        out[0] = base;
        out[p] = base + rcols.len();
        // Three ways to locate the boundaries, picked by how dense they
        // are. Sparse (long segments): a binary search per boundary —
        // its serial dependency chain beats touching every element.
        // Dense (segments under ~48 columns): divide every column by
        // the span width via `magic` and store its position into the
        // owning boundary slot; sortedness makes the last store win, and
        // the unconditional store has no load dependency and never
        // mispredicts. In between: a skip-scan whose probes clear eight
        // (then four) columns per comparison. Crossovers are empirical.
        if rcols.len() >= 192 * starts.len() {
            let mut off = 0usize;
            for (pi, &lo) in starts.iter().enumerate() {
                off += lower_bound(&rcols[off..], lo as Index);
                out[pi + 1] = base + off;
            }
            return;
        }
        if let Some(magic) = self.magic {
            if rcols.len() <= 48 * starts.len() {
                for slot in &mut out[1..p] {
                    *slot = 0;
                }
                for (k, &c) in rcols.iter().enumerate() {
                    let pi = (((c as u64 * magic) >> 32) as usize).min(p - 1);
                    out[pi + 1] = base + k + 1;
                }
                // Empty partitions kept their zero: boundaries are
                // non-decreasing, so propagate the running maximum.
                for i in 1..p {
                    out[i] = out[i].max(out[i - 1]);
                }
                return;
            }
        }
        let mut cur = 0usize;
        let mut next = starts.first().copied().unwrap_or(usize::MAX);
        let mut k = 0usize;
        while k < rcols.len() {
            // Sortedness lets a whole run be skipped by probing only its
            // last element: one comparison clears eight (then four)
            // columns, so the element-by-element tail is at most four.
            while k + 8 < rcols.len() && (rcols[k + 7] as usize) < next {
                k += 8;
            }
            if k + 4 < rcols.len() && (rcols[k + 3] as usize) < next {
                k += 4;
            }
            let c = rcols[k] as usize;
            if c >= next {
                loop {
                    out[cur + 1] = base + k;
                    cur += 1;
                    next = starts.get(cur).copied().unwrap_or(usize::MAX);
                    if c < next {
                        break;
                    }
                }
            }
            k += 1;
        }
        for slot in &mut out[cur + 1..p] {
            *slot = base + rcols.len();
        }
    }
}

/// Branchless lower bound: index of the first element `>= bound` in a
/// sorted slice. The data-dependent step is a conditional move, not a
/// branch, which keeps the pipeline fed on the random-ish probes the
/// partition sweep makes.
#[inline]
fn lower_bound(sorted: &[Index], bound: Index) -> usize {
    let mut lo = 0usize;
    let mut size = sorted.len();
    while size > 1 {
        let half = size / 2;
        let mid = lo + half;
        if sorted[mid - 1] < bound {
            lo = mid;
        }
        size -= half;
    }
    if lo < sorted.len() && sorted[lo] < bound {
        lo += 1;
    }
    lo
}

/// One partition's bucket layout before materialization.
#[derive(Debug, Clone, Default)]
struct PartitionPlan {
    /// `(width, fragments)`, widths ascending, no empty buckets.
    by_width: Vec<(usize, Vec<Fragment>)>,
    /// Whether any row was folded (determines max-bucket atomics).
    any_folded: bool,
    /// Largest used bucket width (0 when the partition is empty).
    max_width: usize,
    /// The paper's `2^k`: non-zero slots per block.
    block_nnz: usize,
}

/// Phases A+B fused: one sweep over the rows (parallel over row chunks)
/// that both splits every row at all partition boundaries (via
/// [`BoundaryFinder::split`]) and bins each segment straight into its
/// partition's width bucket — no intermediate bounds matrix.
///
/// The natural (unconfigured) cap of a partition is the width of its
/// longest segment's bucket, so a natural cap can never fold a row:
/// binning every segment by its own width is already final, and the cap
/// only needs to be known up front when it is configured. Bucket widths
/// are powers of two, so fragments land in flat per-exponent tables.
fn sweep_and_plan<T: Scalar>(
    csr: &CsrMatrix<T>,
    map: &SpanMap,
    config: &CellConfig,
    workers: usize,
) -> Vec<PartitionPlan> {
    let rows = csr.rows();
    let p = map.num_partitions();
    // Configured folding caps (`None` = natural, never folds).
    let caps: Vec<Option<usize>> = (0..p).map(|pi| config.max_width_for(pi)).collect();
    // Exponent-table extent per partition: a segment is never longer
    // than its span, and a configured partition never bins above its
    // cap. Tables are flattened into one vector; partition `pi`'s
    // exponent `e` bucket lives at `offsets[pi] + e`.
    let mut offsets: Vec<usize> = Vec::with_capacity(p + 1);
    offsets.push(0);
    for pi in 0..p {
        let (lo, hi) = map.span_of(pi);
        let natural = bucket_width_for_len((hi - lo).max(1));
        let bound = caps[pi].map_or(natural, |c| c.min(natural));
        offsets.push(offsets[pi] + bound.trailing_zeros() as usize + 1);
    }
    let table_total = offsets[p];

    let chunks = if workers == 1 { 1 } else { workers * 4 }.min(rows.max(1));
    let chunk_len = rows.div_ceil(chunks.max(1)).max(1);
    let mut parts = lf_sim::parallel::parallel_map(chunks, workers, |ci| {
        let r_lo = ci * chunk_len;
        let r_hi = ((ci + 1) * chunk_len).min(rows);
        let finder = BoundaryFinder::new(map);
        let mut b = vec![0usize; p + 1];
        let mut table: Vec<Vec<Fragment>> = vec![Vec::new(); table_total];
        let mut any_folded = vec![false; p];
        for r in r_lo..r_hi {
            let base = csr.row_ptr()[r];
            let rcols = csr.row_cols(r);
            if rcols.is_empty() {
                continue;
            }
            let row = r as Index;
            finder.split(rcols, base, &mut b);
            for pi in 0..p {
                let start = b[pi];
                let end = b[pi + 1];
                let len = end - start;
                if len == 0 {
                    continue;
                }
                match caps[pi] {
                    Some(cap) if len > cap => {
                        let ce = cap.trailing_zeros() as usize;
                        let mut s = start;
                        while s < end {
                            let e = (s + cap).min(end);
                            table[offsets[pi] + ce].push((row, s as u32, e as u32));
                            s = e;
                        }
                        any_folded[pi] = true;
                    }
                    _ => {
                        // ⌈log₂ len⌉, i.e. `bucket_width_for_len(len)`'s
                        // exponent, without materializing the width.
                        let e = (usize::BITS - (len - 1).leading_zeros()) as usize;
                        table[offsets[pi] + e].push((row, start as u32, end as u32));
                    }
                }
            }
        }
        (table, any_folded)
    });

    // Merge chunk partials in chunk order, preserving row order within
    // every bucket; fragment lists are moved, not copied element-wise,
    // except when two chunks touched the same bucket.
    let mut iter = parts.drain(..);
    let (mut table, mut any_folded) = iter.next().expect("at least one chunk");
    for (chunk_table, chunk_folded) in iter {
        for (slot, mut frags) in chunk_table.into_iter().enumerate() {
            if table[slot].is_empty() {
                table[slot] = frags;
            } else {
                table[slot].append(&mut frags);
            }
        }
        for (pi, f) in chunk_folded.into_iter().enumerate() {
            any_folded[pi] |= f;
        }
    }

    let mut table = table.into_iter();
    (0..p)
        .zip(any_folded)
        .map(|(pi, folded)| {
            let by_width: Vec<(usize, Vec<Fragment>)> = (&mut table)
                .take(offsets[pi + 1] - offsets[pi])
                .enumerate()
                .filter(|(_, frags)| !frags.is_empty())
                .map(|(e, frags)| (1usize << e, frags))
                .collect();
            let max_width = by_width.last().map(|(w, _)| *w).unwrap_or(0);
            let block_nnz = (max_width.max(1) * config.block_nnz_multiple).next_power_of_two();
            PartitionPlan {
                by_width,
                any_folded: folded,
                max_width,
                block_nnz,
            }
        })
        .collect()
}

/// The effective folding cap for a partition: the configured cap, or the
/// natural maximum bucket width when unconfigured. Shared by both
/// builders and mirrored by the cost model's `tune_width`.
pub fn width_cap(natural_max_len: usize, config: &CellConfig, pi: usize) -> usize {
    match config.max_width_for(pi) {
        Some(w) => w,
        None => {
            if natural_max_len == 0 {
                1
            } else {
                bucket_width_for_len(natural_max_len)
            }
        }
    }
}

struct BucketCtx {
    is_max: bool,
    block_nnz: usize,
    multi_partition: bool,
    any_folded: bool,
    uniform_block_nnz: bool,
}

/// Phase C: fill one bucket's Ellpack grids from its fragment list.
///
/// Folded fragments exist only in the cap-width bucket (the planner puts
/// them nowhere else, and their presence makes it the max bucket), so
/// `has_folded` is `is_max && any_folded` — no per-fragment segment
/// comparison needed.
fn materialize_bucket<T: Scalar>(
    csr: &CsrMatrix<T>,
    width: usize,
    frags: &[Fragment],
    ctx: BucketCtx,
) -> Bucket<T> {
    let n = frags.len();
    let total = n * width;
    let mut row_ind = Vec::with_capacity(n);
    let mut col_ind: Vec<Index> = Vec::with_capacity(total);
    let mut values: Vec<T> = Vec::with_capacity(total);
    let col_dst = col_ind.as_mut_ptr();
    let val_dst = values.as_mut_ptr();
    let col_src = csr.col_ind();
    let val_src = csr.values();
    // Copy each fragment's slice then pad the tail — raw-pointer writes
    // skip the per-call capacity checks `extend`/`resize` would repeat
    // for every fragment, which dominates when buckets hold many short
    // fragments.
    //
    // SAFETY: the planner guarantees `s..e` lies within the CSR arrays,
    // `e - s <= width` (fragments never exceed the bucket width), and
    // each fragment writes exactly `width` slots at a distinct offset,
    // so all `total` reserved slots are initialized before `set_len`.
    let mut out = 0usize;
    for &(r, s, e) in frags {
        row_ind.push(r);
        let (s, e) = (s as usize, e as usize);
        let len = e - s;
        // SAFETY: `s..e` is in-bounds of the CSR arrays and `out + len`
        // never exceeds the reserved `total` (the planner contract
        // stated above the loop), so every pointer offset below stays
        // inside its allocation.
        unsafe {
            if len < 32 {
                // Short fragments: an element loop beats two memcpy
                // calls whose dispatch overhead would dominate.
                for k in 0..len {
                    *col_dst.add(out + k) = *col_src.as_ptr().add(s + k);
                    *val_dst.add(out + k) = *val_src.as_ptr().add(s + k);
                }
            } else {
                std::ptr::copy_nonoverlapping(col_src.as_ptr().add(s), col_dst.add(out), len);
                std::ptr::copy_nonoverlapping(val_src.as_ptr().add(s), val_dst.add(out), len);
            }
            for k in len..width {
                *col_dst.add(out + k) = ELL_PAD;
                *val_dst.add(out + k) = T::ZERO;
            }
        }
        out += width;
    }
    // SAFETY: the fragment loop above wrote all `total` slots — each of
    // the `frags.len()` fragments initialized exactly `width` slots
    // (payload plus padding) at its own distinct offset, and `total`
    // was reserved as `frags.len() * width`.
    unsafe {
        col_ind.set_len(total);
        values.set_len(total);
    }
    let has_folded = ctx.is_max && ctx.any_folded;
    let rows_per_block = if ctx.uniform_block_nnz {
        (ctx.block_nnz / width).max(1)
    } else {
        32
    };
    Bucket {
        width,
        row_ind,
        col_ind,
        values,
        rows_per_block,
        // Algorithm 2 line 9 / §5.3: atomics when the matrix has more
        // than one partition, or for the partition's maximum bucket
        // (which is where folded rows live).
        needs_atomic: ctx.multi_partition || (ctx.is_max && ctx.any_folded),
        has_folded,
    }
}

/// The seed builder: rescans the whole CSR once per partition with two
/// binary searches per row. Kept as the correctness oracle for
/// [`build_cell`] and as the baseline in the `cell_build` benchmark.
pub fn build_cell_reference<T: Scalar>(
    csr: &CsrMatrix<T>,
    config: &CellConfig,
) -> Result<CellMatrix<T>> {
    config.validate()?;
    let (rows, cols) = csr.shape();
    let map = SpanMap::new(cols, config.num_partitions);
    let p = map.num_partitions();
    let mut partitions = Vec::with_capacity(p);
    for pi in 0..p {
        let (col_lo, col_hi) = map.span_of(pi);
        partitions.push(reference_partition(csr, col_lo, col_hi, config, pi, p > 1));
    }
    Ok(CellMatrix {
        rows,
        cols,
        nnz: csr.nnz(),
        partitions,
        config: config.clone(),
    })
}

/// Build the partition covering columns `[col_lo, col_hi)` the slow way.
fn reference_partition<T: Scalar>(
    csr: &CsrMatrix<T>,
    col_lo: usize,
    col_hi: usize,
    config: &CellConfig,
    pi: usize,
    multi_partition: bool,
) -> Partition<T> {
    use std::collections::BTreeMap;

    /// The seed's fragment tuple: `(row, CSR index range)` in full-width
    /// offsets, as the original builder stored them.
    type RefFragment = (Index, usize, usize);

    // Gather each row's slice within the column span.
    // seg[r] = (start, end) into the row's CSR arrays.
    let rows = csr.rows();
    let mut segments: Vec<(usize, usize)> = Vec::with_capacity(rows);
    let mut natural_max_len = 0usize;
    for r in 0..rows {
        let rcols = csr.row_cols(r);
        let base = csr.row_ptr()[r];
        // Absolute offsets into the CSR col_ind/values arrays.
        let start = base + rcols.partition_point(|&c| (c as usize) < col_lo);
        let end = base + rcols.partition_point(|&c| (c as usize) < col_hi);
        segments.push((start, end));
        natural_max_len = natural_max_len.max(end - start);
    }

    let cap = width_cap(natural_max_len, config, pi);

    // Assign (row, fragment) pairs to bucket widths.
    let mut by_width: BTreeMap<usize, Vec<RefFragment>> = BTreeMap::new();
    let mut any_folded = false;
    for r in 0..rows {
        let (start, end) = segments[r];
        let len = end - start;
        if len == 0 {
            continue;
        }
        if len <= cap {
            let w = bucket_width_for_len(len);
            by_width
                .entry(w)
                .or_default()
                .push((r as Index, start, end));
        } else {
            // Fold: split into cap-sized fragments, all in the max bucket.
            let mut s = start;
            while s < end {
                let e = (s + cap).min(end);
                by_width.entry(cap).or_default().push((r as Index, s, e));
                s = e;
            }
            any_folded = true;
        }
    }

    let max_width = by_width.keys().next_back().copied().unwrap_or(0);
    let block_nnz = (max_width.max(1) * config.block_nnz_multiple).next_power_of_two();

    let mut buckets = Vec::with_capacity(by_width.len());
    for (&width, frags) in &by_width {
        let n = frags.len();
        let mut row_ind = Vec::with_capacity(n);
        let mut col_ind = vec![ELL_PAD; n * width];
        let mut values = vec![T::ZERO; n * width];
        let mut has_folded = false;
        for (bi, &(r, s, e)) in frags.iter().enumerate() {
            row_ind.push(r);
            let (seg_s, seg_e) = segments[r as usize];
            if s != seg_s || e != seg_e {
                has_folded = true;
            }
            for (k, idx) in (s..e).enumerate() {
                col_ind[bi * width + k] = csr.col_ind()[idx];
                values[bi * width + k] = csr.values()[idx];
            }
        }
        let is_max = width == max_width;
        let rows_per_block = if config.uniform_block_nnz {
            (block_nnz / width).max(1)
        } else {
            32
        };
        buckets.push(Bucket {
            width,
            row_ind,
            col_ind,
            values,
            rows_per_block,
            needs_atomic: multi_partition || (is_max && any_folded),
            has_folded,
        });
    }

    Partition {
        col_range: (col_lo, col_hi),
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::{uniform_with_long_rows, PatternFamily};
    use lf_sparse::{CooMatrix, Pcg32};

    fn skewed() -> CsrMatrix<f64> {
        // Row 2 long (9 nnz), others short.
        let mut trips = vec![(0, 0, 1.0), (1, 3, 2.0), (3, 7, 3.0), (4, 2, 4.0)];
        for j in 0..9 {
            trips.push((2, j, 10.0 + j as f64));
        }
        CsrMatrix::from_coo(&CooMatrix::from_triplets(5, 10, trips).unwrap())
    }

    #[test]
    fn single_partition_round_trip() {
        let csr = skewed();
        let cell = build_cell(&csr, &CellConfig::default()).unwrap();
        assert_eq!(cell.to_csr(), csr);
        assert_eq!(cell.partitions().len(), 1);
    }

    #[test]
    fn multi_partition_round_trip() {
        let csr = skewed();
        for p in [2, 3, 4, 10] {
            let cell = build_cell(&csr, &CellConfig::with_partitions(p)).unwrap();
            assert_eq!(cell.to_csr(), csr, "p={p}");
            assert_eq!(cell.partitions().len(), p);
        }
    }

    #[test]
    fn bucket_widths_match_row_lengths() {
        let csr = skewed();
        let cell = build_cell(&csr, &CellConfig::default()).unwrap();
        let p = &cell.partitions()[0];
        // Lengths 1 and 9 -> buckets of width 1 and 16.
        let widths: Vec<usize> = p.buckets.iter().map(|b| b.width).collect();
        assert_eq!(widths, vec![1, 16]);
    }

    #[test]
    fn folding_splits_long_rows() {
        let csr = skewed();
        let cfg = CellConfig::default().with_max_widths(vec![4]);
        let cell = build_cell(&csr, &cfg).unwrap();
        let p = &cell.partitions()[0];
        // Max bucket is width 4 and contains row 2 three times (9 = 4+4+1).
        let max_bucket = p.buckets.last().unwrap();
        assert_eq!(max_bucket.width, 4);
        let copies = max_bucket.row_ind.iter().filter(|&&r| r == 2).count();
        assert_eq!(copies, 3);
        assert!(max_bucket.has_folded);
        assert!(max_bucket.needs_atomic);
        // Still lossless.
        assert_eq!(cell.to_csr(), csr);
    }

    #[test]
    fn atomics_flags_follow_paper_rule() {
        let csr = skewed();
        // Single partition, no folding: no bucket needs atomics.
        let cell = build_cell(&csr, &CellConfig::default()).unwrap();
        assert!(cell.partitions()[0].buckets.iter().all(|b| !b.needs_atomic));
        // Multi-partition: every bucket needs atomics.
        let cell = build_cell(&csr, &CellConfig::with_partitions(2)).unwrap();
        assert!(cell
            .partitions()
            .iter()
            .flat_map(|p| &p.buckets)
            .all(|b| b.needs_atomic));
    }

    #[test]
    fn empty_rows_are_skipped() {
        let coo = CooMatrix::from_triplets(100, 10, vec![(50, 5, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let cell = build_cell(&csr, &CellConfig::default()).unwrap();
        let total_rows: usize = cell
            .partitions()
            .iter()
            .flat_map(|p| p.buckets.iter().map(|b| b.num_rows()))
            .sum();
        assert_eq!(total_rows, 1);
        assert_eq!(cell.to_csr(), csr);
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f64>::empty(4, 4);
        let cell = build_cell(&csr, &CellConfig::with_partitions(2)).unwrap();
        assert_eq!(cell.nnz(), 0);
        assert_eq!(cell.num_buckets(), 0);
        assert_eq!(cell.to_csr(), csr);
    }

    #[test]
    fn partition_spans_cover_columns() {
        let csr = skewed();
        let cell = build_cell(&csr, &CellConfig::with_partitions(3)).unwrap();
        let spans: Vec<(usize, usize)> = cell.partitions().iter().map(|p| p.col_range).collect();
        assert_eq!(spans, vec![(0, 3), (3, 6), (6, 10)]);
    }

    #[test]
    fn rows_per_block_formula() {
        let csr = skewed();
        let cfg = CellConfig {
            num_partitions: 1,
            max_widths: None,
            block_nnz_multiple: 2,
            uniform_block_nnz: true,
        };
        let cell = build_cell(&csr, &cfg).unwrap();
        let p = &cell.partitions()[0];
        // Max width 16, multiple 2 => 2^k = 32. Width-1 bucket: 32 rows per
        // block; width-16 bucket: 2 rows per block.
        for b in &p.buckets {
            assert_eq!(b.rows_per_block, 32 / b.width);
        }
    }

    #[test]
    fn long_row_fold_with_partitions_round_trip() {
        let mut rng = Pcg32::seed_from_u64(42);
        let coo = uniform_with_long_rows::<f64>(300, 500, 3000, 5, 400, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        for p in [1, 2, 4, 8] {
            for cap in [None, Some(vec![16]), Some(vec![64])] {
                let cfg = CellConfig {
                    num_partitions: p,
                    max_widths: cap.clone(),
                    block_nnz_multiple: 4,
                    uniform_block_nnz: true,
                };
                let cell = build_cell(&csr, &cfg).unwrap();
                assert_eq!(cell.to_csr(), csr, "p={p} cap={cap:?}");
            }
        }
    }

    #[test]
    fn generated_families_round_trip() {
        let mut rng = Pcg32::seed_from_u64(7);
        for fam in PatternFamily::ALL {
            let coo = fam.generate::<f64>(128, 96, 900, &mut rng);
            let csr = CsrMatrix::from_coo(&coo);
            let cfg = CellConfig::with_partitions(3).with_max_widths(vec![8]);
            let cell = build_cell(&csr, &cfg).unwrap();
            assert_eq!(cell.to_csr(), csr, "family {}", fam.name());
        }
    }

    #[test]
    fn single_pass_matches_reference_bit_for_bit() {
        let mut rng = Pcg32::seed_from_u64(2024);
        for fam in PatternFamily::ALL {
            let coo = fam.generate::<f64>(257, 193, 4000, &mut rng);
            let csr = CsrMatrix::from_coo(&coo);
            for p in [1, 2, 3, 5, 8] {
                for cap in [None, Some(vec![4]), Some(vec![32])] {
                    let cfg = CellConfig {
                        num_partitions: p,
                        max_widths: cap.clone(),
                        block_nnz_multiple: 4,
                        uniform_block_nnz: true,
                    };
                    let fast = build_cell(&csr, &cfg).unwrap();
                    let slow = build_cell_reference(&csr, &cfg).unwrap();
                    assert_eq!(
                        fast,
                        slow,
                        "builders diverge: family {} p={p} cap={cap:?}",
                        fam.name()
                    );
                }
            }
        }
    }

    #[test]
    fn reference_builder_round_trips() {
        let csr = skewed();
        for p in [1, 3, 10] {
            let cell = build_cell_reference(&csr, &CellConfig::with_partitions(p)).unwrap();
            assert_eq!(cell.to_csr(), csr, "p={p}");
        }
    }

    #[test]
    fn degenerate_partition_count_is_clamped() {
        // More partitions than columns: the effective count is the column
        // count, spans stay non-empty, and the matrix still round-trips.
        let coo =
            CooMatrix::from_triplets(4, 3, vec![(0, 0, 1.0), (1, 2, 2.0), (3, 1, 3.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let cell = build_cell(&csr, &CellConfig::with_partitions(64)).unwrap();
        assert_eq!(cell.partitions().len(), 3);
        for part in cell.partitions() {
            let (lo, hi) = part.col_range;
            assert!(lo < hi, "no empty spans after clamping");
        }
        assert_eq!(cell.to_csr(), csr);
        let slow = build_cell_reference(&csr, &CellConfig::with_partitions(64)).unwrap();
        assert_eq!(cell, slow);
    }
}
