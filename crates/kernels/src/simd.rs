//! Portable SIMD microkernel layer for the numeric hot paths.
//!
//! Every SpMM kernel's inner loop is `C[r][s] += Σ_k a_k · B[col_k][s]`
//! over one sparse row's non-zeros. This module is that loop, once:
//! [`stream_rows`] takes a run of rows — a CSR row chunk (a `row_ptr`
//! window) or a range of fixed-width padded rows (a bucket's `row_ind`
//! plus its width, or consecutive ELL/SELL rows) — and for each row
//! holds a strip of `C` in registers while the row's `B` rows stream
//! through it: the shape of the paper's Algorithm 2, which gives a block
//! a run of `col_ind`/`val` slots and accumulates straight into
//! registers. The CSR-family, CELL, ELL and SELL numeric loops make one
//! call per work item; [`stream_row`] is the one-row case, left to
//! TACO's scratch accumulator and CELL's forced-atomic oracle. Nothing
//! is copied between the sparse arrays and the accumulators.
//!
//! # One entry per range
//!
//! The fixed cost of a call — the bounds check, lane resolution, the
//! AVX2 feature test and the non-inlined `#[target_feature]` call — is
//! paid per range, not per row, and so is the branch on the dense width
//! `J`: when `J` is a power of two up to 64 and one sweep covers the row
//! (`J ≤ j_tile` and `J ≤ LANES × 8`), the range runs a row loop in
//! which `J` — the strip cascade and the `B` row stride — is a
//! compile-time constant. At the narrow widths serving runs at, with
//! rows a few dozen slots long, that per-row fixed cost was most of the
//! kernel. Every other width runs the generic j-tile loop per row.
//!
//! # Strips and `k_block`
//!
//! A j-tile of `C` is covered by a cascade of register strips of
//! `LANES`-wide groups: as many 8-group strips as fit, then at most one
//! 4-group, one 2-group and one 1-group strip, then one remainder strip
//! of `1..LANES` lanes. Every strip width is a compile-time constant, so
//! each strip is a fixed set of independent accumulator chains, and a
//! narrow tile never falls into one-group passes bound by a single add
//! chain. When the tile is at most one full strip wide (`LANES × 8`
//! elements), each of its strips streams the whole row: `C` is loaded
//! and stored once per row. A wider tile streams the row in
//! `k_block`-slot chunks and every strip sweeps a chunk before the next
//! chunk starts, so that chunk's `B` rows stay L1-resident across the
//! strips.
//!
//! # Lane modes and dispatch
//!
//! * [`Lanes::Scalar`] — the one-lane arm: an element-wise sweep, one
//!   `B` row at a time across the whole `C` row (the shape
//!   `lf_sim::calibrate` times as its scalar axpy);
//! * [`Lanes::X4`] / [`Lanes::X8`] — the strip cascade over 4/8-lane
//!   groups, which the autovectorizer lowers to full-width vector code;
//!   on x86_64 with AVX2 detected at runtime the same generic range
//!   body is entered through a `#[target_feature(enable = "avx2")]`
//!   clone so 8-lane `f32` groups use 256-bit registers even though the
//!   crate's baseline codegen is SSE2.
//!
//! [`Lanes::Auto`] resolves to the widest shape the machine supports
//! before dispatch; a caller that wants the one-lane arm asks for it
//! explicitly with `TileParams::with_lanes(Lanes::Scalar)`.
//!
//! # Bitwise determinism
//!
//! For any fixed output element `C[r][s]`, every lane mode, tile and
//! chunking accumulates the same partial products in the same
//! ascending-`k` order (lane grouping only changes which *elements*
//! share a register, never one element's own reduction order), and no
//! mode uses fused multiply-add; the compile-time-width row loop runs
//! the same sweep as the generic one. All lane modes therefore produce
//! **bitwise identical** results on single-writer paths — the property
//! `row_ranges` (every width 1..=136 against the per-element order),
//! `engine_edge_cases::scalar_and_wide_tiles_agree_for_every_kernel` and
//! the differential fuzzer pin down.

use lf_sparse::ell::ELL_PAD;
use lf_sparse::{DenseMatrix, Index, Scalar};

/// Maximum `k_block`: the deepest row chunk a multi-strip j-tile streams
/// before its strips move on. The tile search only ever picks
/// `k_block <= MAX_K_BLOCK`.
pub const MAX_K_BLOCK: usize = 32;

/// Lane groups in a full register strip.
const GROUPS: usize = 8;

/// Vector lane shape of the microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lanes {
    /// Resolve to the widest available shape at kernel entry.
    Auto,
    /// The one-lane arm: an element-wise sweep per `B` row.
    Scalar,
    /// 4-lane strip groups.
    X4,
    /// 8-lane strip groups (requires AVX2 on x86_64 for full-width
    /// codegen; still correct — just narrower — anywhere else).
    X8,
}

impl Lanes {
    /// Elements per lane group (1 for `Scalar`; `Auto` resolves first).
    pub fn width(self) -> usize {
        match self {
            Lanes::Auto | Lanes::Scalar => 1,
            Lanes::X4 => 4,
            Lanes::X8 => 8,
        }
    }

    /// Resolve `Auto` to a concrete shape for element type `T`.
    pub fn resolve<T: Scalar>(self) -> Lanes {
        match self {
            Lanes::Auto => dispatched_lanes::<T>(),
            other => other,
        }
    }
}

/// Whether the AVX2 `#[target_feature]` clones are usable on this CPU.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The widest lane shape worth dispatching for element type `T` on this
/// machine: 8 `f32` lanes fill a 256-bit register, 8 `f64` lanes would
/// spill accumulator strips, so doubles cap at 4 lanes.
pub fn dispatched_lanes<T: Scalar>() -> Lanes {
    if std::mem::size_of::<T>() <= 4 && avx2_available() {
        Lanes::X8
    } else {
        Lanes::X4
    }
}

/// Execution tile parameters for one kernel run, resolved by the
/// `lf-cost` tile search (or [`TileParams::default`], which reproduces
/// the pre-search engine: 128-element j-tiles, full k-blocks, widest
/// available lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileParams {
    /// Accumulator tile width: elements of a `C` row a worker carries at
    /// once. The resident tile is `j_tile.min(j)` elements of `T`, so
    /// its byte size is type- and `J`-dependent (`128 × f64` = 1 KiB,
    /// `128 × f32` = 512 B).
    pub j_tile: usize,
    /// Row slots per streamed chunk when a j-tile spans more than one
    /// register strip (clamped to [`MAX_K_BLOCK`]);
    /// `k_block × j_tile × size_of::<T>()` is the `B` working set the
    /// tile search keeps L1-resident.
    pub k_block: usize,
    /// Lane shape (default [`Lanes::Auto`]).
    pub lanes: Lanes,
    /// Target slots (width × rows) per CELL numeric work item.
    pub chunk_slots: usize,
}

impl Default for TileParams {
    fn default() -> Self {
        TileParams {
            j_tile: 128,
            k_block: MAX_K_BLOCK,
            lanes: Lanes::Auto,
            chunk_slots: 8192,
        }
    }
}

impl TileParams {
    /// The params with an explicit lane shape (builder style).
    pub fn with_lanes(mut self, lanes: Lanes) -> Self {
        self.lanes = lanes;
        self
    }

    /// `k_block` clamped to `1..=MAX_K_BLOCK`.
    pub fn k_block_clamped(&self) -> usize {
        self.k_block.clamp(1, MAX_K_BLOCK)
    }
}

/// A run of sparse rows for one [`stream_rows`] call: where each row's
/// slots sit in the call's `cols`/`vals` and which row of the call's `C`
/// block it lands in.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// A CSR row chunk: row `i` is slots `row_ptr[i]..row_ptr[i + 1]` of
    /// `cols`/`vals` (absolute offsets) and lands in `C` row `i`.
    Csr(&'a [usize]),
    /// Fixed-width rows of `width` slots: row `i` is slots
    /// `i·width..(i + 1)·width` of `cols`/`vals` and lands in `C` row
    /// `row_ind[i] - base`, or in row `i` without `row_ind` (the rows
    /// then fill the `C` block).
    Fixed {
        /// Slots per row, `ELL_PAD` slots included.
        width: usize,
        /// Each row's output row, offset by `base`.
        row_ind: Option<&'a [Index]>,
        /// The output row `C`'s first row stands for.
        base: usize,
    },
}

/// Stream one sparse row into a `C` row: the one-row case of
/// [`stream_rows`], over a row's `cols`/`vals` slices.
///
/// # Panics
///
/// As [`stream_rows`]: if `c_row.len() != b.cols()`,
/// `cols.len() != vals.len()`, or a non-padding column index is not a
/// row of `b`.
pub fn stream_row<T: Scalar>(
    tile: &TileParams,
    c_row: &mut [T],
    cols: &[Index],
    vals: &[T],
    b: &DenseMatrix<T>,
) {
    stream_rows(tile, c_row, Rows::Csr(&[0, cols.len()]), cols, vals, b);
}

/// Stream a run of sparse rows into a `C` block:
/// `C[o][s] += Σ_k vals[k] · B[cols[k]][s]` over each row's slots whose
/// column is not `ELL_PAD`, in ascending `k` for every element, under
/// `tile`'s j-tile, k-block depth and lane shape ([`Lanes::Auto`] is
/// resolved here). `c` holds whole rows of `b.cols()` elements; `rows`
/// says where each row's slots sit and which row of `c` it lands in.
///
/// The range is checked once, before any unchecked `B` read: one pass
/// over its contiguous column slice, plus its output rows. The lane
/// shape and the AVX2 clone are then entered once for the whole range,
/// and a dense width `J` that is a power of two up to 64, fits one
/// j-tile and at most one full register strip runs a row loop with `J`
/// as a compile-time constant; every other width runs the generic
/// j-tile loop per row.
///
/// Per-element accumulation order is ascending `k` in every lane mode,
/// tile and chunking, and no mode fuses multiply-adds, so all of them
/// produce bitwise identical `c` contents.
///
/// # Panics
///
/// If `cols.len() != vals.len()`; a non-padding column of the range is
/// not a row of `b`; a CSR chunk's `row_ptr` leaves `cols` or decreases,
/// or `c` does not hold exactly its rows; a fixed-width range's slots
/// are not whole rows, or one of its output rows falls outside `c`.
pub fn stream_rows<T: Scalar>(
    tile: &TileParams,
    c: &mut [T],
    rows: Rows<'_>,
    cols: &[Index],
    vals: &[T],
    b: &DenseMatrix<T>,
) {
    let j = b.cols();
    // The range's contiguous slots, and whether its rows land in `c`.
    let (span, lands) = match rows {
        Rows::Csr(ptr) => {
            let lo = ptr.first().copied().unwrap_or(0);
            let hi = ptr.last().copied().unwrap_or(0);
            (lo..hi, c.len() == ptr.len().saturating_sub(1) * j)
        }
        Rows::Fixed {
            width,
            row_ind,
            base,
        } => {
            let c_rows = c.len().checked_div(j).unwrap_or(0);
            let n = row_ind.map_or(c_rows, <[Index]>::len);
            // `r - base` wraps for a row below `base`, so one compare
            // bounds it from both sides.
            let inside = row_ind
                .is_none_or(|ri| ri.iter().all(|&r| (r as usize).wrapping_sub(base) < c_rows));
            let whole = c.len() == c_rows * j && cols.len() == n * width;
            (0..cols.len(), whole && inside)
        }
    };
    // `ELL_PAD + 1` wraps to 0, so the max is `1 + the largest real
    // column` (0 for an all-padding range): one branch-free pass.
    let bound = cols
        .get(span.clone())
        .map(|s| s.iter().fold(0, |m, &c| m.max(c.wrapping_add(1))));
    // lf-lint: allow(panic-path): trips only on an operand that skipped validation, and before any unchecked `B` read; serving executes under catch_unwind
    assert!(
        (lands || j == 0)
            && cols.len() == vals.len()
            && bound.is_some_and(|m| m as usize <= b.rows()),
        "stream_rows out of bounds: C block of {} for B {:?}, {} columns for {} values, slots {span:?}, column {}",
        c.len(),
        b.shape(),
        cols.len(),
        vals.len(),
        bound.unwrap_or(0).wrapping_sub(1),
    );
    if j == 0 || matches!(rows, Rows::Fixed { width: 0, .. }) {
        return;
    }
    let (cols, vals) = (&cols[span.clone()], &vals[span]);
    let data = b.as_slice();
    match tile.lanes.resolve::<T>() {
        // `resolve` never returns `Auto`; the arm only completes the match.
        Lanes::Scalar | Lanes::Auto => for_each_row(rows, cols, vals, |o, cols, vals| {
            let c_row = &mut c[o * j..][..j];
            for (&col, &a) in cols.iter().zip(vals) {
                if col == ELL_PAD {
                    continue;
                }
                for (cv, &bv) in c_row.iter_mut().zip(b.row(col as usize)) {
                    *cv += a * bv;
                }
            }
        }),
        Lanes::X4 => {
            // SAFETY: every non-padding column of the range was checked
            // above to be a row of `B`, every row's slots are a sub-slice
            // of the checked range (`for_each_row` slices them safely),
            // and `c` is whole rows of `j` elements.
            unsafe { dispatch::<T, 4>(tile, c, rows, cols, vals, data, j) }
        }
        Lanes::X8 => {
            // SAFETY: as for `X4`.
            unsafe { dispatch::<T, 8>(tile, c, rows, cols, vals, data, j) }
        }
    }
}

/// Call `f(o, row_cols, row_vals)` for every row of the range in order,
/// `o` being the row of the `C` block it lands in. `cols`/`vals` are the
/// range's checked slots (a CSR chunk's start at index 0); every row is
/// cut from them with checked slicing, so no row reaches outside them.
#[inline(always)]
fn for_each_row<T>(
    rows: Rows<'_>,
    cols: &[Index],
    vals: &[T],
    mut f: impl FnMut(usize, &[Index], &[T]),
) {
    match rows {
        Rows::Csr(ptr) => {
            let lo = ptr.first().copied().unwrap_or(0);
            for (o, w) in ptr.windows(2).enumerate() {
                // A decreasing `row_ptr` wraps below `lo` and fails the
                // slice check instead of reading outside the range.
                let (s, e) = (w[0].wrapping_sub(lo), w[1].wrapping_sub(lo));
                f(o, &cols[s..e], &vals[s..e]);
            }
        }
        Rows::Fixed {
            width,
            row_ind,
            base,
        } => {
            let slots = cols.chunks_exact(width).zip(vals.chunks_exact(width));
            match row_ind {
                None => {
                    for (o, (c, v)) in slots.enumerate() {
                        f(o, c, v);
                    }
                }
                Some(ri) => {
                    for (&r, (c, v)) in ri.iter().zip(slots) {
                        f(r as usize - base, c, v);
                    }
                }
            }
        }
    }
}

/// Enter [`range_body`] through the AVX2 clone when the CPU has it.
///
/// # Safety
///
/// Every non-`ELL_PAD` entry of `cols` is `< b.len() / j`, and `c` is
/// whole rows of `j` elements that every output row of `rows` falls in.
#[inline(always)]
unsafe fn dispatch<T: Scalar, const L: usize>(
    tile: &TileParams,
    c: &mut [T],
    rows: Rows<'_>,
    cols: &[Index],
    vals: &[T],
    b: &[T],
    j: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 verified at runtime; the range contract is
        // forwarded from the caller.
        return unsafe { range_body_avx2::<T, L>(tile, c, rows, cols, vals, b, j) };
    }
    // SAFETY: forwarded caller contract.
    unsafe { range_body::<T, L>(tile, c, rows, cols, vals, b, j) }
}

/// [`range_body`] entered with AVX2 codegen: LLVM re-lowers the lane
/// arrays onto 256-bit registers. No FMA is enabled — fused
/// multiply-adds would change result bits vs. the scalar arm.
///
/// # Safety
///
/// AVX2 must have been verified at runtime, plus [`dispatch`]'s
/// contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn range_body_avx2<T: Scalar, const L: usize>(
    tile: &TileParams,
    c: &mut [T],
    rows: Rows<'_>,
    cols: &[Index],
    vals: &[T],
    b: &[T],
    j: usize,
) {
    // SAFETY: forwarded caller contract.
    unsafe { range_body::<T, L>(tile, c, rows, cols, vals, b, j) }
}

/// The range's row loop: one branch on `j` to a [`const_rows`] instance
/// when a single sweep covers the row, else [`row_body`] per row.
///
/// # Safety
///
/// [`dispatch`]'s contract.
#[inline(always)]
unsafe fn range_body<T: Scalar, const L: usize>(
    tile: &TileParams,
    c: &mut [T],
    rows: Rows<'_>,
    cols: &[Index],
    vals: &[T],
    b: &[T],
    j: usize,
) {
    // Exactly `row_body`'s one-j-tile, one-sweep case.
    if j <= tile.j_tile.max(1) && j <= L * GROUPS {
        // SAFETY: forwarded caller contract; each arm's `J` is `j`.
        unsafe {
            match j {
                1 => return const_rows::<T, L, 1>(c, rows, cols, vals, b),
                2 => return const_rows::<T, L, 2>(c, rows, cols, vals, b),
                4 => return const_rows::<T, L, 4>(c, rows, cols, vals, b),
                8 => return const_rows::<T, L, 8>(c, rows, cols, vals, b),
                16 => return const_rows::<T, L, 16>(c, rows, cols, vals, b),
                32 => return const_rows::<T, L, 32>(c, rows, cols, vals, b),
                64 => return const_rows::<T, L, 64>(c, rows, cols, vals, b),
                _ => {}
            }
        }
    }
    // `inline(always)` keeps the row work inside the AVX2 clone: a
    // closure is not a `#[target_feature]` function of its own.
    for_each_row(
        rows,
        cols,
        vals,
        #[inline(always)]
        |o, cols, vals| {
            // SAFETY: forwarded; the checked slice is one row of `j`
            // elements, and `ld == j`.
            unsafe { row_body::<T, L>(tile, &mut c[o * j..][..j], cols, vals, b, j) }
        },
    );
}

/// The row loop at a compile-time dense width: one sweep per row, with
/// the strip cascade and the row stride `J` folded to constants.
///
/// # Safety
///
/// [`dispatch`]'s contract with `j == J`.
#[inline(always)]
unsafe fn const_rows<T: Scalar, const L: usize, const J: usize>(
    c: &mut [T],
    rows: Rows<'_>,
    cols: &[Index],
    vals: &[T],
    b: &[T],
) {
    // `inline(always)`: as in `range_body`.
    for_each_row(
        rows,
        cols,
        vals,
        #[inline(always)]
        |o, cols, vals| {
            // SAFETY: forwarded; the checked slice is one row of `J`
            // elements, and `ld == J`.
            unsafe { sweep::<T, L>(&mut c[o * J..][..J], 0, cols, vals, b, J) }
        },
    );
}

/// The j-tile loop: a tile at most one full strip wide streams the
/// whole row, a wider one streams it in `k_block`-slot chunks.
///
/// # Safety
///
/// Every non-`ELL_PAD` entry of `cols` is `< b.len() / ld`, and
/// `c_row.len() <= ld`.
#[inline(always)]
unsafe fn row_body<T: Scalar, const L: usize>(
    tile: &TileParams,
    c_row: &mut [T],
    cols: &[Index],
    vals: &[T],
    b: &[T],
    ld: usize,
) {
    let (n, step, k_block) = (c_row.len(), tile.j_tile.max(1), tile.k_block_clamped());
    let mut lo = 0;
    while lo < n {
        let hi = n.min(lo.saturating_add(step));
        let acc = &mut c_row[lo..hi];
        if hi - lo <= L * GROUPS {
            // SAFETY: forwarded; `hi <= c_row.len() <= ld`.
            unsafe { sweep::<T, L>(acc, lo, cols, vals, b, ld) };
        } else {
            let mut k = 0;
            while k < cols.len() {
                let end = cols.len().min(k + k_block);
                // SAFETY: as above, on a sub-range of the row's slots.
                unsafe { sweep::<T, L>(acc, lo, &cols[k..end], &vals[k..end], b, ld) };
                k = end;
            }
        }
        lo = hi;
    }
}

/// Sweep `cols`/`vals` through the strip cascade covering `acc`, the
/// `C` elements `offset..offset + acc.len()`.
///
/// # Safety
///
/// [`row_body`]'s column contract, and `offset + acc.len() <= ld`.
#[inline(always)]
unsafe fn sweep<T: Scalar, const L: usize>(
    acc: &mut [T],
    offset: usize,
    cols: &[Index],
    vals: &[T],
    b: &[T],
    ld: usize,
) {
    let n = acc.len();
    let mut s = 0;
    while n - s >= L * GROUPS {
        // SAFETY: `s + L·GROUPS <= n`, so the strip lies inside the tile
        // (`offset + n <= ld`); the column contract is forwarded.
        unsafe { strip::<T, L, GROUPS>(&mut acc[s..], offset + s, cols, vals, b, ld) };
        s += L * GROUPS;
    }
    if n - s >= L * 4 {
        // SAFETY: `s + 4·L <= n`, as above.
        unsafe { strip::<T, L, 4>(&mut acc[s..], offset + s, cols, vals, b, ld) };
        s += L * 4;
    }
    if n - s >= L * 2 {
        // SAFETY: `s + 2·L <= n`, as above.
        unsafe { strip::<T, L, 2>(&mut acc[s..], offset + s, cols, vals, b, ld) };
        s += L * 2;
    }
    if n - s >= L {
        // SAFETY: `s + L <= n`, as above.
        unsafe { strip::<T, L, 1>(&mut acc[s..], offset + s, cols, vals, b, ld) };
        s += L;
    }
    let (tail, o) = (&mut acc[s..], offset + s);
    // SAFETY: each arm's strip is exactly the `n - s < L <= 8` elements
    // left, as above.
    unsafe {
        match n - s {
            1 => strip::<T, 1, 1>(tail, o, cols, vals, b, ld),
            2 => strip::<T, 2, 1>(tail, o, cols, vals, b, ld),
            3 => strip::<T, 3, 1>(tail, o, cols, vals, b, ld),
            4 => strip::<T, 4, 1>(tail, o, cols, vals, b, ld),
            5 => strip::<T, 5, 1>(tail, o, cols, vals, b, ld),
            6 => strip::<T, 6, 1>(tail, o, cols, vals, b, ld),
            7 => strip::<T, 7, 1>(tail, o, cols, vals, b, ld),
            _ => {}
        }
    }
}

/// One register strip of `G × L` accumulators: load `acc[..G·L]`, add
/// `vals[k] · B[cols[k]][offset..offset + G·L]` for every non-padding
/// slot in ascending `k`, store.
///
/// # Safety
///
/// [`row_body`]'s column contract, `acc.len() >= G·L` and
/// `offset + G·L <= ld`.
#[inline(always)]
unsafe fn strip<T: Scalar, const L: usize, const G: usize>(
    acc: &mut [T],
    offset: usize,
    cols: &[Index],
    vals: &[T],
    b: &[T],
    ld: usize,
) {
    let acc = &mut acc[..G * L];
    let mut r = [[T::ZERO; L]; G];
    for (g, rg) in r.iter_mut().enumerate() {
        rg.copy_from_slice(&acc[g * L..(g + 1) * L]);
    }
    for (&col, &a) in cols.iter().zip(vals) {
        if col == ELL_PAD {
            continue;
        }
        let base = col as usize * ld + offset;
        // SAFETY: `col < b.len() / ld` and `offset + G·L <= ld` (caller
        // contract), so `base + G·L <= (col + 1) · ld <= b.len()`.
        let row = unsafe { b.get_unchecked(base..base + G * L) };
        for (g, rg) in r.iter_mut().enumerate() {
            for (l, rv) in rg.iter_mut().enumerate() {
                *rv += a * row[g * L + l];
            }
        }
    }
    for (g, rg) in r.iter().enumerate() {
        acc[g * L..(g + 1) * L].copy_from_slice(rg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tile_params_mirror_the_pre_search_engine() {
        let t = TileParams::default();
        assert_eq!(t.j_tile, 128);
        assert_eq!(t.k_block_clamped(), MAX_K_BLOCK);
        assert_eq!(t.lanes, Lanes::Auto);
        assert_eq!(t.chunk_slots, 8192);
        assert_eq!(
            TileParams { k_block: 900, ..t }.k_block_clamped(),
            MAX_K_BLOCK
        );
        assert_eq!(TileParams { k_block: 0, ..t }.k_block_clamped(), 1);
    }

    #[test]
    fn resolve_never_returns_auto() {
        for lanes in [Lanes::Auto, Lanes::Scalar, Lanes::X4, Lanes::X8] {
            let rf = lanes.resolve::<f32>();
            let rd = lanes.resolve::<f64>();
            assert_ne!(rf, Lanes::Auto);
            assert_ne!(rd, Lanes::Auto);
        }
    }
}
