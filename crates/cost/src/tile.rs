//! Cost-model-guided execution-tile search.
//!
//! The SpMM kernels take a [`TileParams`] (j-tile width, k-block depth,
//! lane mode, chunk granularity) that trades L1 residency of the
//! accumulator tile against re-streaming passes over the non-zero
//! stream and pool scheduling overhead. This module enumerates the candidate
//! grid, costs each point against the machine's measured
//! [`calibration`] constants, and memoizes the winner per
//! (matrix-family, J) key so the serving hot path never re-searches —
//! the same probe-once-then-cache discipline as
//! [`CostProbe`](crate::search::CostProbe) uses for bucket widths.
//!
//! Matrices are keyed by *family*, not identity: row count and average
//! row length are quantized to their log2, so e.g. every ~4k-row
//! ~16-nnz/row f32 operand at J=128 shares one cached plan. Cache hits
//! allocate nothing.

use lf_kernels::simd::{avx2_available, Lanes, TileParams, MAX_K_BLOCK};
use lf_sim::calibration;
use lf_sim::parallel::default_workers;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;

/// Quantized matrix-family features the tile cache is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileFeatures {
    /// `log2(rows)`, rounded down (0 for an empty matrix).
    pub rows_log2: u32,
    /// `log2(nnz / rows)`, rounded down (0 when degenerate).
    pub avg_nnz_log2: u32,
    /// Scalar element size in bytes (4 or 8).
    pub elem_bytes: usize,
}

impl TileFeatures {
    /// Quantize a matrix's shape into its tile-planning family.
    pub fn new(rows: usize, nnz: usize, elem_bytes: usize) -> Self {
        let avg = nnz.checked_div(rows).unwrap_or(0);
        TileFeatures {
            rows_log2: rows.max(1).ilog2(),
            avg_nnz_log2: avg.max(1).ilog2(),
            elem_bytes,
        }
    }

    /// Representative (de-quantized) row count for costing.
    fn rows(&self) -> usize {
        1usize << self.rows_log2
    }

    /// Representative non-zero count for costing.
    fn nnz(&self) -> usize {
        self.rows() << self.avg_nnz_log2
    }
}

/// Full memoization key: family plus the exact dense width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TileKey {
    features: TileFeatures,
    j: usize,
}

/// The candidate grid (powers of two, spanning the kernels' useful
/// range; `k_block` is capped at [`MAX_K_BLOCK`]). `k_block` runs
/// deepest-first so a tie goes to fewer accumulator round trips on rows
/// longer than the family's average.
const J_TILES: [usize; 5] = [32, 64, 128, 256, 512];
const K_BLOCKS: [usize; 3] = [32, 16, 8];
const CHUNKS: [usize; 3] = [4096, 8192, 16384];

static CACHE: Mutex<Option<HashMap<TileKey, TileParams>>> = Mutex::new(None);

thread_local! {
    static HITS: Cell<usize> = const { Cell::new(0) };
    static MISSES: Cell<usize> = const { Cell::new(0) };
}

/// `(hits, misses)` of the calling thread's lookups in the process-wide
/// tile-plan cache. Per thread, so a lookup on another thread never
/// moves the count between two reads.
pub fn tile_cache_stats() -> (usize, usize) {
    (HITS.get(), MISSES.get())
}

/// The row stream one SpMM walks, as the cost model counts it: `rows`
/// rows, each a register-strip pass over its stored slots, `slots`
/// stored slots in all, `nnz` of them real non-zeros. CSR stores no
/// padding, so there `slots == nnz`; a CELL bucket row of width `W`
/// is one row of `W` slots, and a row folded under a width cap is one
/// row per fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowStream {
    /// Rows walked (CELL: bucket rows `Σ I⁽¹⁾`).
    pub rows: usize,
    /// Stored slots streamed, padding included (CELL: `Σ I⁽¹⁾·W`).
    pub slots: usize,
    /// Real non-zeros among the slots.
    pub nnz: usize,
    /// Scalar element size in bytes (4 or 8).
    pub elem_bytes: usize,
}

impl RowStream {
    /// The stream of a CSR operand: every row once, no padding.
    pub fn csr(rows: usize, nnz: usize, elem_bytes: usize) -> Self {
        RowStream {
            rows,
            slots: nnz,
            nnz,
            elem_bytes,
        }
    }
}

impl TileFeatures {
    /// The family's representative CSR stream: what the tile search
    /// prices each candidate on.
    fn stream(&self) -> RowStream {
        RowStream::csr(self.rows(), self.nnz(), self.elem_bytes)
    }
}

/// Predicted nanoseconds for walking `stream` at dense width `j` under
/// `params`, on the [`calibration`]-measured machine.
///
/// The model mirrors the kernels' streaming microkernel
/// (`lf_kernels::simd::stream_rows`), which, for every row of a work
/// item's row range, holds a register strip of `C` while the row's `B`
/// rows stream through it (its per-call dispatch is paid once per
/// range, so the model charges none per row):
///
/// * each accumulated element (one per real non-zero and output
///   column) costs the lane mode's measured streamed accumulate rate,
///   inflated by the measured spill factor when the chunk working set
///   (`k_block × j_tile × elem` of `B` strips plus the accumulator
///   tile) overflows the planned L1 budget, and for every j-tile after
///   the first, which re-streams the row and re-reads `B` rows that
///   have left L1 — so tiles stay as wide as the working set allows;
/// * every (j-tile, register strip) pair re-streams the row's stored
///   slots, padding included, paying a per-slot charge
///   (`2 × copy_ns`: column index plus coefficient) — the term that
///   favors wider strips. A j-tile is covered by full `LANES × 8`
///   strips, then a cascade of 4-, 2- and 1-group strips and one
///   remainder strip, which together count as one more strip: a j-tile
///   narrower than a full strip costs one strip. The one-lane arm
///   sweeps the whole row once per slot;
/// * the accumulator strip is loaded and stored once per row when one
///   strip covers the j-tile, and once per `k_block` chunk otherwise —
///   L1-resident vector traffic priced at the lane rate, so shallow
///   chunks on multi-strip tiles pay `~slots / k_block × j` extra;
/// * scheduling charges one pool dispatch per parallel region plus an
///   imbalance term that grows when `chunk_slots` leaves fewer chunks
///   than workers.
pub fn predict_stream_ns(stream: RowStream, j: usize, params: &TileParams) -> f64 {
    let cal = calibration();
    let rows = stream.rows as f64;
    let slots = stream.slots as f64;
    let nnz = stream.nnz as f64;
    let j = j.max(1);
    let k_block = params.k_block_clamped();
    // Measured rate and full strip width in elements; the one-lane arm
    // is untiled and streams the row once.
    let (lane_ns, strip, j_tile) = match params.lanes {
        Lanes::X8 => (cal.axpy_x8_ns, 64, params.j_tile.clamp(1, j)),
        Lanes::X4 => (cal.axpy_x4_ns, 32, params.j_tile.clamp(1, j)),
        _ => (cal.axpy_scalar_ns, j, j),
    };
    let strips_per_tile = j_tile.div_ceil(strip);
    let passes = j.div_ceil(j_tile) * strips_per_tile;
    let working_set = (k_block * j_tile + j_tile) * stream.elem_bytes;
    let spill = if working_set > cal.l1_budget_bytes {
        cal.l1_spill_factor
    } else {
        1.0
    };
    // Every j-tile after the first re-streams the row, re-reading `B`
    // rows that have left L1 by then.
    let later_tiles = (j - j_tile) as f64 * cal.l1_spill_factor;
    let compute = nnz * lane_ns * (j_tile as f64 * spill + later_tiles);
    let stream_ns = passes as f64 * slots * 2.0 * cal.copy_ns;
    let acc_passes = if strips_per_tile > 1 {
        (slots / k_block as f64).max(rows)
    } else {
        rows
    };
    let acc_traffic = acc_passes * j as f64 * 2.0 * lane_ns;
    let work = compute + stream_ns + acc_traffic;
    let workers = default_workers() as f64;
    let chunks = (slots * j as f64 / params.chunk_slots.max(1) as f64).max(1.0);
    // Straggler model: the last chunk finishes alone, so the critical
    // path stretches by ~1/chunks of the work when chunks are scarce.
    let imbalance = work / workers * (1.0 / chunks);
    cal.pool_dispatch_ns + work / workers + imbalance
}

/// Search the candidate grid for `features` at width `j` (uncached).
/// Returns the winning parameters and their predicted nanoseconds.
pub fn search_tile(features: TileFeatures, j: usize) -> (TileParams, f64) {
    let mut lane_candidates: Vec<Lanes> = Vec::with_capacity(3);
    if avx2_available() || features.elem_bytes > 4 {
        // X8 without AVX2 still wins for f64: the strip shape is what
        // matters, not the ISA (measured costs decide).
        lane_candidates.push(Lanes::X8);
    }
    lane_candidates.push(Lanes::X4);
    lane_candidates.push(Lanes::Scalar);
    let mut best: Option<(TileParams, f64)> = None;
    // Fixed iteration order keeps the argmin deterministic: ties break
    // toward the earliest candidate, and lanes run widest-first — the
    // calibration clamps wide rates to <= scalar, so a measurement that
    // flattens them to equality must not strand the search on scalar.
    for &lanes in &lane_candidates {
        for &j_tile in &J_TILES {
            for &k_block in &K_BLOCKS {
                for &chunk_slots in &CHUNKS {
                    let params = TileParams {
                        j_tile,
                        k_block: k_block.min(MAX_K_BLOCK),
                        lanes,
                        chunk_slots,
                    };
                    let ns = predict_stream_ns(features.stream(), j, &params);
                    if best.is_none_or(|(_, b)| ns < b) {
                        best = Some((params, ns));
                    }
                }
            }
        }
    }
    best.unwrap_or((TileParams::default(), 0.0))
}

/// The tuned [`TileParams`] for a matrix family at dense width `j`,
/// searching at most once per `(family, J)` key per process.
///
/// Cache hits take a mutex and a hash lookup — no allocation — so this
/// is safe on the serving hot path once a plan is warmed.
pub fn plan_tile(features: TileFeatures, j: usize) -> TileParams {
    let key = TileKey { features, j };
    let mut guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(&params) = cache.get(&key) {
        HITS.set(HITS.get() + 1);
        return params;
    }
    MISSES.set(MISSES.get() + 1);
    let (params, _) = search_tile(features, j);
    cache.insert(key, params);
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_quantize_to_families() {
        // 4000 and 3000 rows at ~16 nnz/row are the same family…
        let a = TileFeatures::new(4000, 64_000, 4);
        let b = TileFeatures::new(3000, 48_000, 4);
        assert_eq!(a, b);
        // …but doubling the density or the element size splits it.
        assert_ne!(a, TileFeatures::new(4000, 140_000, 4));
        assert_ne!(a, TileFeatures::new(4000, 64_000, 8));
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        for (rows, nnz) in [(0, 0), (1, 0), (1, 1), (7, 3)] {
            let f = TileFeatures::new(rows, nnz, 8);
            let (p, ns) = search_tile(f, 1);
            assert!(p.j_tile >= 1 && ns >= 0.0);
            let _ = plan_tile(f, 1);
        }
    }

    #[test]
    fn search_is_deterministic_and_wide_when_simd_on() {
        let f = TileFeatures::new(4096, 200_000, 4);
        let (p1, c1) = search_tile(f, 32);
        let (p2, c2) = search_tile(f, 32);
        assert_eq!(p1, p2);
        assert_eq!(c1.to_bits(), c2.to_bits());
        // Calibration clamps wide-lane axpy cost to <= scalar, so the
        // search never prefers the scalar engine.
        assert_ne!(p1.lanes, Lanes::Scalar);
        assert_ne!(p1.lanes, Lanes::Auto, "plans must be concrete");
    }

    #[test]
    fn spill_steers_away_from_oversized_tiles() {
        let cal = calibration();
        let f = TileFeatures::new(4096, 400_000, 8);
        let (best, _) = search_tile(f, 512);
        let ws = (best.k_block_clamped() * best.j_tile + best.j_tile) * f.elem_bytes;
        assert!(
            ws <= cal.l1_budget_bytes,
            "winner working set {ws}B should fit the {}B L1 budget",
            cal.l1_budget_bytes
        );
    }

    #[test]
    fn cache_hits_after_first_plan() {
        let f = TileFeatures::new(2048, 30_000, 4);
        let first = plan_tile(f, 96);
        let (_, m0) = tile_cache_stats();
        let second = plan_tile(f, 96);
        let (h1, m1) = tile_cache_stats();
        assert_eq!(first, second);
        assert_eq!(m1, m0, "second lookup must not re-search");
        assert!(h1 >= 1);
    }
}
