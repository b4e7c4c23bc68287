//! Portable SIMD microkernel layer for the numeric hot paths.
//!
//! Every SpMM kernel's inner loop is `C[r][s] += Σ_k a_k · B[col_k][s]`
//! over one sparse row's non-zeros. This module is that loop, once:
//! [`stream_row`] takes a row's `cols`/`vals` slices and `B`, and holds
//! a strip of `C` in registers while the row's `B` rows stream through
//! it — the shape of the paper's Algorithm 2, which reads a block's
//! `col_ind`/`val` arrays and accumulates straight into registers. Every
//! kernel's numeric loop is one `stream_row` call per sparse row (or row
//! fragment); nothing is copied between the sparse arrays and the
//! accumulators.
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
//!   on x86_64 with AVX2 detected at runtime the same generic body is
//!   entered through a `#[target_feature(enable = "avx2")]` clone so
//!   8-lane `f32` groups use 256-bit registers even though the crate's
//!   baseline codegen is SSE2.
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
//! mode uses fused multiply-add. All lane modes therefore produce
//! **bitwise identical** results on single-writer paths — the property
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

/// Stream one sparse row into a `C` row:
/// `c_row[s] += Σ_k vals[k] · B[cols[k]][s]` over the slots whose column
/// is not `ELL_PAD`, in ascending `k` for every element, under `tile`'s
/// j-tile, k-block depth and lane shape ([`Lanes::Auto`] is resolved
/// here).
///
/// Per-element accumulation order is ascending `k` in every lane mode,
/// tile and chunking, and no mode fuses multiply-adds, so all of them
/// produce bitwise identical `c_row` contents.
///
/// # Panics
///
/// If `c_row.len() != b.cols()`, `cols.len() != vals.len()`, or a
/// non-padding column index is not a row of `b`. The check is one pass
/// over `cols` per call, before any `B` read.
pub fn stream_row<T: Scalar>(
    tile: &TileParams,
    c_row: &mut [T],
    cols: &[Index],
    vals: &[T],
    b: &DenseMatrix<T>,
) {
    // `ELL_PAD + 1` wraps to 0, so the max is `1 + the largest real
    // column` (0 for an all-padding row): one branch-free pass.
    let bound = cols.iter().fold(0, |m, &c| m.max(c.wrapping_add(1)));
    // lf-lint: allow(panic-path): trips only on an operand that skipped validation, and before any unchecked `B` read; serving executes under catch_unwind
    assert!(
        c_row.len() == b.cols() && cols.len() == vals.len() && bound as usize <= b.rows(),
        "stream_row out of bounds: C row of {} for B {:?}, {} columns for {} values, column {}",
        c_row.len(),
        b.shape(),
        cols.len(),
        vals.len(),
        bound.wrapping_sub(1),
    );
    let (data, ld) = (b.as_slice(), b.cols());
    match tile.lanes.resolve::<T>() {
        // `resolve` never returns `Auto`; the arm only completes the match.
        Lanes::Scalar | Lanes::Auto => {
            for (&col, &a) in cols.iter().zip(vals) {
                if col == ELL_PAD {
                    continue;
                }
                for (cv, &bv) in c_row.iter_mut().zip(b.row(col as usize)) {
                    *cv += a * bv;
                }
            }
        }
        Lanes::X4 => {
            // SAFETY: every non-padding column was checked above to be a
            // row of `B`, and `c_row.len() == ld`.
            unsafe { dispatch::<T, 4>(tile, c_row, cols, vals, data, ld) }
        }
        Lanes::X8 => {
            // SAFETY: as for `X4`.
            unsafe { dispatch::<T, 8>(tile, c_row, cols, vals, data, ld) }
        }
    }
}

/// Enter [`row_body`] through the AVX2 clone when the CPU has it.
///
/// # Safety
///
/// Every non-`ELL_PAD` entry of `cols` is `< b.len() / ld`, and
/// `c_row.len() <= ld`.
#[inline(always)]
unsafe fn dispatch<T: Scalar, const L: usize>(
    tile: &TileParams,
    c_row: &mut [T],
    cols: &[Index],
    vals: &[T],
    b: &[T],
    ld: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 verified at runtime; the column contract is
        // forwarded from the caller.
        return unsafe { row_body_avx2::<T, L>(tile, c_row, cols, vals, b, ld) };
    }
    // SAFETY: forwarded caller contract.
    unsafe { row_body::<T, L>(tile, c_row, cols, vals, b, ld) }
}

/// [`row_body`] entered with AVX2 codegen: LLVM re-lowers the lane
/// arrays onto 256-bit registers. No FMA is enabled — fused
/// multiply-adds would change result bits vs. the scalar arm.
///
/// # Safety
///
/// AVX2 must have been verified at runtime, plus [`dispatch`]'s
/// contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_body_avx2<T: Scalar, const L: usize>(
    tile: &TileParams,
    c_row: &mut [T],
    cols: &[Index],
    vals: &[T],
    b: &[T],
    ld: usize,
) {
    // SAFETY: forwarded caller contract.
    unsafe { row_body::<T, L>(tile, c_row, cols, vals, b, ld) }
}

/// The j-tile loop: a tile at most one full strip wide streams the
/// whole row, a wider one streams it in `k_block`-slot chunks.
///
/// # Safety
///
/// [`dispatch`]'s contract.
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
/// [`dispatch`]'s column contract, and `offset + acc.len() <= ld`.
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
/// [`dispatch`]'s column contract, `acc.len() >= G·L` and
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

    /// `c[s] += Σ_k vals[k] · B[cols[k]][s]` in ascending `k`, one
    /// element at a time — the contract order.
    fn reference<T: Scalar>(c: &mut [T], cols: &[Index], vals: &[T], b: &DenseMatrix<T>) {
        for (s, cv) in c.iter_mut().enumerate() {
            for (&col, &a) in cols.iter().zip(vals) {
                if col != ELL_PAD {
                    *cv += a * b.get(col as usize, s);
                }
            }
        }
    }

    /// Every width 1..=136 (all cascade branches and remainders for 4 and
    /// 8 lanes), j-tiles that put strips at non-zero offsets, every lane
    /// mode and k-block depths 1, 3 and 32, on a 40-slot row with padding
    /// mid-row and trailing: bitwise equal to the reference.
    fn sweep_widths<T: Scalar>() {
        let k = 23;
        let mut cols: Vec<Index> = (0..40).map(|i| (i * 7 % k) as Index).collect();
        for p in [3, 4, 17, 36, 37, 38, 39] {
            cols[p] = ELL_PAD;
        }
        let vals: Vec<T> = (0..40)
            .map(|i| T::from_f64((i as f64 - 19.5) * 0.37))
            .collect();
        for j in 1..=136 {
            let b = DenseMatrix::from_fn(k, j, |r, s| {
                T::from_f64(((r * 31 + s * 7) % 29) as f64 / 7.0 - 2.0)
            });
            let init: Vec<T> = (0..j).map(|s| T::from_f64(s as f64 * 0.125)).collect();
            let mut want = init.clone();
            reference(&mut want, &cols, &vals, &b);
            let want: Vec<f64> = want.iter().map(|v| v.to_f64()).collect();
            for j_tile in [usize::MAX, 40, 7] {
                for k_block in [1, 3, 32] {
                    for lanes in [Lanes::Scalar, Lanes::X4, Lanes::X8] {
                        let tile = TileParams {
                            j_tile,
                            k_block,
                            lanes,
                            chunk_slots: 1,
                        };
                        let mut got = init.clone();
                        stream_row(&tile, &mut got, &cols, &vals, &b);
                        let got: Vec<f64> = got.iter().map(|v| v.to_f64()).collect();
                        // f32 -> f64 widening is exact, so equal images
                        // mean equal bits.
                        assert!(
                            got.iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits()),
                            "{} j={j} j_tile={j_tile} k_block={k_block} {lanes:?}",
                            std::any::type_name::<T>()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_lane_modes_match_reference_order_bitwise() {
        sweep_widths::<f32>();
        sweep_widths::<f64>();
    }

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
