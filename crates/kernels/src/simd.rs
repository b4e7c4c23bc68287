//! Portable SIMD microkernel layer for the numeric hot paths.
//!
//! Every SpMM kernel's inner loop is some flavor of
//! `acc[s] += a_i · B[col_i][s]` over a handful of gathered non-zeros.
//! This module factors that loop into one register-blocked microkernel,
//! [`accumulate_block`]: callers gather up to [`MAX_K_BLOCK`]
//! `(coefficient, B-row)` pairs into fixed stack arrays and the
//! microkernel sweeps the output strip once, keeping a wide strip of
//! accumulators in registers across the whole block — the k-blocking
//! that lets a block of `B` rows stream through L1 exactly once per
//! `j_tile` instead of once per accumulator load/store. Every kernel
//! has exactly one numeric loop: gather, then [`Gather::flush_into`].
//!
//! # Lane modes and dispatch
//!
//! Three shapes share the same arithmetic:
//!
//! * [`Lanes::Scalar`] — the one-lane arm: an element-wise sweep, one
//!   gathered `B` row at a time across the whole strip (the shape
//!   `lf_sim::calibrate` times as its scalar axpy);
//! * [`Lanes::X4`] / [`Lanes::X8`] — explicit 4/8-lane unrolled strips
//!   the autovectorizer lowers to full-width vector code; on x86_64
//!   with AVX2 detected at runtime the same generic body is entered
//!   through a `#[target_feature(enable = "avx2")]` clone so 8-lane
//!   `f32` strips use 256-bit registers even though the crate's
//!   baseline codegen is SSE2.
//!
//! [`Lanes::Auto`] resolves to the widest shape the machine supports;
//! a caller that wants the one-lane arm asks for it explicitly with
//! `TileParams::with_lanes(Lanes::Scalar)`.
//!
//! # Bitwise determinism
//!
//! For any fixed output element `C[r][s]`, every lane mode accumulates
//! the same partial products in the same ascending-`k` order (lane
//! grouping only changes which *elements* share a register, never one
//! element's own reduction order), and no mode uses fused
//! multiply-add. All lane modes therefore produce **bitwise identical**
//! results on single-writer paths — the property
//! `engine_edge_cases::scalar_and_wide_tiles_agree_for_every_kernel` and
//! the differential fuzzer pin down.

use lf_sparse::Scalar;

/// Maximum gathered non-zeros per [`accumulate_block`] call. Gather
/// buffers are fixed stack arrays of this size; the tile search only
/// ever picks `k_block <= MAX_K_BLOCK`.
pub const MAX_K_BLOCK: usize = 32;

/// Vector lane shape of the microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lanes {
    /// Resolve to the widest available shape at kernel entry.
    Auto,
    /// The one-lane arm: an element-wise sweep per gathered row.
    Scalar,
    /// 4-lane unrolled strips.
    X4,
    /// 8-lane unrolled strips (requires AVX2 on x86_64 for full-width
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
    /// Gathered non-zeros per microkernel call (clamped to
    /// [`MAX_K_BLOCK`]); `k_block × j_tile × size_of::<T>()` is the `B`
    /// working set the tile search keeps L1-resident.
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

    /// `k_block` clamped to the gather-buffer capacity.
    pub fn k_block_clamped(&self) -> usize {
        self.k_block.clamp(1, MAX_K_BLOCK)
    }
}

/// The register-blocked strip sweep shared by every lane mode:
/// `acc[s] += Σ_i coeffs[i] · rows[i][offset + s]`.
///
/// Strips of `GROUPS × LANES` accumulator elements are loaded into
/// local arrays (registers after vectorization), all `coeffs.len()`
/// gathered rows are applied, and the strip is stored back — one
/// acc load/store per strip per *block* instead of per non-zero.
/// Remainders fall through a single-group loop and a scalar tail.
///
/// # Safety
///
/// Every `rows[i]` must be at least `offset + acc.len()` elements long
/// (debug-asserted). `coeffs.len()` must equal `rows.len()`.
#[inline(always)]
unsafe fn block_body<T: Scalar, const LANES: usize, const GROUPS: usize>(
    acc: &mut [T],
    coeffs: &[T],
    rows: &[&[T]],
    offset: usize,
) {
    debug_assert_eq!(coeffs.len(), rows.len());
    debug_assert!(rows.iter().all(|r| r.len() >= offset + acc.len()));
    let n = acc.len();
    let kb = coeffs.len();
    let strip = LANES * GROUPS;
    let mut s = 0;
    while s + strip <= n {
        let mut r = [[T::ZERO; LANES]; GROUPS];
        for (g, rg) in r.iter_mut().enumerate() {
            for (l, rv) in rg.iter_mut().enumerate() {
                // SAFETY: s + strip <= n == acc.len().
                *rv = unsafe { *acc.get_unchecked(s + g * LANES + l) };
            }
        }
        for i in 0..kb {
            // SAFETY: i < kb == coeffs.len() == rows.len().
            let a = unsafe { *coeffs.get_unchecked(i) };
            let row = unsafe { *rows.get_unchecked(i) };
            for (g, rg) in r.iter_mut().enumerate() {
                for (l, rv) in rg.iter_mut().enumerate() {
                    // SAFETY: offset + s + strip <= offset + acc.len()
                    // <= row.len() (caller contract, debug-asserted).
                    *rv += a * unsafe { *row.get_unchecked(offset + s + g * LANES + l) };
                }
            }
        }
        for (g, rg) in r.iter().enumerate() {
            for (l, rv) in rg.iter().enumerate() {
                // SAFETY: s + strip <= n == acc.len().
                unsafe { *acc.get_unchecked_mut(s + g * LANES + l) = *rv };
            }
        }
        s += strip;
    }
    while s + LANES <= n {
        let mut r = [T::ZERO; LANES];
        for (l, rv) in r.iter_mut().enumerate() {
            // SAFETY: s + LANES <= n == acc.len().
            *rv = unsafe { *acc.get_unchecked(s + l) };
        }
        for i in 0..kb {
            // SAFETY: i < kb; offset + s + LANES <= row.len() as above.
            let a = unsafe { *coeffs.get_unchecked(i) };
            let row = unsafe { *rows.get_unchecked(i) };
            for (l, rv) in r.iter_mut().enumerate() {
                *rv += a * unsafe { *row.get_unchecked(offset + s + l) };
            }
        }
        for (l, rv) in r.iter().enumerate() {
            // SAFETY: s + LANES <= n == acc.len().
            unsafe { *acc.get_unchecked_mut(s + l) = *rv };
        }
        s += LANES;
    }
    while s < n {
        // SAFETY: s < n == acc.len().
        let mut r = unsafe { *acc.get_unchecked(s) };
        for i in 0..kb {
            // SAFETY: i < kb; offset + s < row.len() as above.
            let a = unsafe { *coeffs.get_unchecked(i) };
            let row = unsafe { *rows.get_unchecked(i) };
            r += a * unsafe { *row.get_unchecked(offset + s) };
        }
        // SAFETY: s < n == acc.len().
        unsafe { *acc.get_unchecked_mut(s) = r };
        s += 1;
    }
}

/// The same generic body entered with AVX2 codegen: LLVM re-lowers the
/// lane arrays onto 256-bit registers. No FMA is enabled — fused
/// multiply-adds would change result bits vs. the scalar path.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime (the
/// `is_x86_feature_detected!` gate in the dispatcher) before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_body_avx2<T: Scalar, const LANES: usize, const GROUPS: usize>(
    acc: &mut [T],
    coeffs: &[T],
    rows: &[&[T]],
    offset: usize,
) {
    // SAFETY: forwarded caller contract (row lengths / coeff count).
    unsafe { block_body::<T, LANES, GROUPS>(acc, coeffs, rows, offset) }
}

/// Accumulate one gathered k-block into an output strip:
/// `acc[s] += Σ_i coeffs[i] · rows[i][offset + s]` for `s in
/// 0..acc.len()`, using the lane shape `lanes` (which must be concrete —
/// resolve [`Lanes::Auto`] first).
///
/// Per-element accumulation order is ascending `i` in every lane mode,
/// and no mode fuses multiply-adds, so all modes produce bitwise
/// identical `acc` contents.
///
/// # Safety
///
/// Every `rows[i]` must be at least `offset + acc.len()` elements long,
/// and `coeffs.len()` must equal `rows.len()`.
pub unsafe fn accumulate_block<T: Scalar>(
    lanes: Lanes,
    acc: &mut [T],
    coeffs: &[T],
    rows: &[&[T]],
    offset: usize,
) {
    match lanes {
        Lanes::Scalar | Lanes::Auto => {
            // One gathered row at a time across the whole strip: per
            // element the same products in the same ascending-i order
            // as the strip arms.
            for (&a, row) in coeffs.iter().zip(rows) {
                for (cv, &bv) in acc.iter_mut().zip(&row[offset..]) {
                    *cv += a * bv;
                }
            }
        }
        Lanes::X4 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: AVX2 verified at runtime; row-length contract
                // forwarded from the caller.
                return unsafe { block_body_avx2::<T, 4, 8>(acc, coeffs, rows, offset) };
            }
            // SAFETY: forwarded caller contract.
            unsafe { block_body::<T, 4, 8>(acc, coeffs, rows, offset) }
        }
        Lanes::X8 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: AVX2 verified at runtime; row-length contract
                // forwarded from the caller.
                return unsafe { block_body_avx2::<T, 8, 8>(acc, coeffs, rows, offset) };
            }
            // SAFETY: forwarded caller contract.
            unsafe { block_body::<T, 8, 8>(acc, coeffs, rows, offset) }
        }
    }
}

/// Fixed-capacity gather buffer for one k-block: the `(coefficient,
/// B-row)` pairs of up to [`MAX_K_BLOCK`] non-zeros. Lives on the
/// stack / in per-worker scratch — gathering never allocates.
pub struct Gather<'b, T> {
    coeffs: [T; MAX_K_BLOCK],
    rows: [&'b [T]; MAX_K_BLOCK],
    len: usize,
}

impl<'b, T: Scalar> Gather<'b, T> {
    /// An empty gather buffer.
    #[inline]
    pub fn new() -> Self {
        Gather {
            coeffs: [T::ZERO; MAX_K_BLOCK],
            rows: [&[]; MAX_K_BLOCK],
            len: 0,
        }
    }

    /// Number of gathered pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is gathered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one `(coefficient, B-row)` pair. Caller keeps
    /// `len() < MAX_K_BLOCK` (checked in debug builds).
    #[inline]
    pub fn push(&mut self, coeff: T, row: &'b [T]) {
        debug_assert!(self.len < MAX_K_BLOCK);
        self.coeffs[self.len] = coeff;
        self.rows[self.len] = row;
        self.len += 1;
    }

    /// `true` once the buffer holds `k_block` pairs.
    #[inline]
    pub fn full(&self, k_block: usize) -> bool {
        self.len >= k_block.min(MAX_K_BLOCK)
    }

    /// Flush the gathered block into `acc` (then reset):
    /// `acc[s] += Σ_i coeff_i · row_i[offset + s]`.
    ///
    /// `lanes` must be concrete (resolve [`Lanes::Auto`] first).
    #[inline]
    pub fn flush_into(&mut self, lanes: Lanes, acc: &mut [T], offset: usize) {
        if self.len == 0 {
            return;
        }
        // SAFETY: callers only push rows with `len >= offset +
        // acc.len()` (each gathered row is a full `B` row of `j >=
        // offset + acc.len()` elements); coeffs/rows lengths match by
        // construction of this buffer.
        unsafe {
            accumulate_block(
                lanes,
                acc,
                &self.coeffs[..self.len],
                &self.rows[..self.len],
                offset,
            );
        }
        self.len = 0;
    }
}

impl<T: Scalar> Default for Gather<'_, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(acc: &mut [f64], coeffs: &[f64], rows: &[&[f64]], offset: usize) {
        for s in 0..acc.len() {
            for (a, r) in coeffs.iter().zip(rows) {
                acc[s] += a * r[offset + s];
            }
        }
    }

    fn mk_rows(k: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as i64 % 1000) as f64 / 997.0 - 0.5
        };
        (0..k).map(|_| (0..len).map(|_| rand()).collect()).collect()
    }

    #[test]
    fn all_lane_modes_match_reference_order_bitwise() {
        let check = |n: usize, offset: usize, kb: usize| {
            let rows_owned = mk_rows(kb, offset + n, 42 + (n * 64 + kb) as u64);
            let rows: Vec<&[f64]> = rows_owned.iter().map(|r| r.as_slice()).collect();
            let coeffs: Vec<f64> = (0..kb).map(|i| (i as f64 - 1.5) * 0.75).collect();
            let mut want = vec![0.25f64; n];
            // The reference applies ascending i per element — the exact
            // contract order.
            reference(&mut want, &coeffs, &rows, offset);
            let exp: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            for lanes in [Lanes::Scalar, Lanes::X4, Lanes::X8] {
                let mut acc = vec![0.25f64; n];
                // SAFETY: rows are offset + n long by construction.
                unsafe { accumulate_block(lanes, &mut acc, &coeffs, &rows, offset) };
                let got: Vec<u64> = acc.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, exp, "lanes={lanes:?} n={n} offset={offset} kb={kb}");
            }
        };
        for (n, offset, kb) in [(1, 0, 1), (7, 0, 3), (64, 0, 32), (65, 16, 5), (130, 3, 32)] {
            check(n, offset, kb);
        }
        // The one-lane arm at every k-block depth, on odd strip lengths
        // that leave remainders in both wide arms' strip and group loops.
        for kb in 1..=MAX_K_BLOCK {
            for (n, offset) in [(1, 0), (3, 2), (9, 0), (31, 1), (71, 4)] {
                check(n, offset, kb);
            }
        }
    }

    #[test]
    fn f32_lane_modes_agree_bitwise() {
        let rows_owned: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                (0..100)
                    .map(|s| ((i * 31 + s * 7) % 23) as f32 * 0.125 - 1.0)
                    .collect()
            })
            .collect();
        let rows: Vec<&[f32]> = rows_owned.iter().map(|r| r.as_slice()).collect();
        let coeffs: Vec<f32> = (0..8).map(|i| i as f32 * 0.5 - 2.0).collect();
        let mut scalar = vec![0.0f32; 100];
        // SAFETY: rows are 100 elements, acc is 100, offset 0.
        unsafe { accumulate_block(Lanes::Scalar, &mut scalar, &coeffs, &rows, 0) };
        for lanes in [Lanes::X4, Lanes::X8] {
            let mut wide = vec![0.0f32; 100];
            // SAFETY: as above.
            unsafe { accumulate_block(lanes, &mut wide, &coeffs, &rows, 0) };
            let a: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = wide.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{lanes:?}");
        }
    }

    #[test]
    fn gather_buffer_accumulates_in_push_order() {
        let rows_owned = mk_rows(5, 16, 9);
        let rows: Vec<&[f64]> = rows_owned.iter().map(|r| r.as_slice()).collect();
        let mut g: Gather<'_, f64> = Gather::new();
        let mut want = [0.0f64; 16];
        for (i, r) in rows.iter().enumerate() {
            let c = 1.0 + i as f64;
            g.push(c, r);
            for (s, w) in want.iter_mut().enumerate() {
                *w += c * r[s];
            }
        }
        assert_eq!(g.len(), 5);
        assert!(g.full(5) && !g.full(6));
        let mut acc = vec![0.0f64; 16];
        g.flush_into(Lanes::X8, &mut acc, 0);
        assert!(g.is_empty());
        // Wait-free double flush is a no-op.
        g.flush_into(Lanes::X8, &mut acc, 0);
        let got: Vec<u64> = acc.iter().map(|v| v.to_bits()).collect();
        let exp: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, exp);
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
