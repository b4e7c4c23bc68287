//! One-time measured machine calibration for the execution engine's
//! tuning decisions.
//!
//! The tile search in `lf-cost` and the scatter crossover in
//! `lf-kernels::batch` both need a handful of machine constants: how fast
//! an L1-resident accumulate loop runs per element (scalar vs. lane-
//! unrolled), how much an L1-overflowing working set slows it down, how
//! fast a straight `memcpy` streams, and what one pool-region dispatch
//! costs. Rather than bake in numbers from one development box, this
//! module measures them **once per process** on first use (a few
//! milliseconds total) and caches the result in a `OnceLock`.
//!
//! Every measured coefficient is clamped to a generous sane range so a
//! noisy VM or a preempted first run can never produce a calibration
//! that breaks tuning decisions outright — the consumers only ever use
//! these numbers to *rank* candidates, never for correctness.

use std::sync::OnceLock;
use std::time::Instant;

/// Measured machine constants (all nanoseconds unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// ns per accumulated element for the scalar `acc[s] += a * b[s]`
    /// loop over an L1-resident strip.
    pub axpy_scalar_ns: f64,
    /// ns per accumulated element for the 4-lane unrolled loop.
    pub axpy_x4_ns: f64,
    /// ns per accumulated element for the 8-lane unrolled loop (the
    /// widest portable microkernel shape).
    pub axpy_x8_ns: f64,
    /// Multiplier on the axpy cost when the blocked working set
    /// (`k_block × j_tile × elem`) overflows L1 (measured, >= 1).
    pub l1_spill_factor: f64,
    /// ns per element for a serial row `memcpy` (8-byte elements).
    pub copy_ns: f64,
    /// ns to dispatch and join one (near-empty) pool parallel region.
    pub pool_dispatch_ns: f64,
    /// L1 data-cache budget in bytes the tile search plans against
    /// (conservative: half the typical 32–48 KiB so `B` strips coexist
    /// with the accumulator tile and streamed index arrays).
    pub l1_budget_bytes: usize,
}

impl Calibration {
    /// A fixed fallback model (used only to clamp nonsense measurements;
    /// roughly a 2 GHz core with SSE2 baseline codegen).
    pub fn default_model() -> Self {
        Calibration {
            axpy_scalar_ns: 0.60,
            axpy_x4_ns: 0.30,
            axpy_x8_ns: 0.15,
            l1_spill_factor: 1.5,
            copy_ns: 0.12,
            pool_dispatch_ns: 4_000.0,
            l1_budget_bytes: 16 * 1024,
        }
    }
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Scalar accumulate: the exact shape of the microkernel's one-lane arm
/// (`Lanes::Scalar` in `lf_kernels::simd`), one `B` row swept
/// element-wise across the strip.
fn axpy_scalar(acc: &mut [f32], a: f32, b: &[f32]) {
    for (cv, &bv) in acc.iter_mut().zip(b) {
        *cv += a * bv;
    }
}

/// `LANES`-unrolled accumulate, the portable microkernel shape. The
/// baseline build autovectorizes this to the target's default vector
/// width; on x86_64 with AVX2 available the real microkernels run a
/// `#[target_feature]` clone, measured separately below.
#[inline(always)]
fn axpy_lanes<const LANES: usize>(acc: &mut [f32], a: f32, b: &[f32]) {
    let n = acc.len().min(b.len());
    let mut s = 0;
    while s + LANES <= n {
        let mut r = [0.0f32; LANES];
        for l in 0..LANES {
            r[l] = acc[s + l] + a * b[s + l];
        }
        acc[s..s + LANES].copy_from_slice(&r);
        s += LANES;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_lanes_avx2<const LANES: usize>(acc: &mut [f32], a: f32, b: &[f32]) {
    axpy_lanes::<LANES>(acc, a, b)
}

fn axpy_lanes_dispatch<const LANES: usize>(acc: &mut [f32], a: f32, b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { axpy_lanes_avx2::<LANES>(acc, a, b) };
        return;
    }
    axpy_lanes::<LANES>(acc, a, b);
}

/// Slots per streamed row in the blocked-accumulate measurement (a
/// typical `k_block` chunk).
const BLOCK_K: usize = 8;

/// Streamed accumulate — the microkernel's real shape per sparse row
/// (`lf_kernels::simd::stream_rows`, which runs this sweep for every row
/// of a range): load a `LANES × GROUPS` register strip from `acc` once,
/// stream `BLOCK_K` column-indexed rows of one row-major `B` buffer (row
/// stride `ld`) through it, skipping padding slots, store once. The
/// production loop pays its dispatch once per range and, at power-of-two
/// widths up to one full strip, folds `ld` to a constant; this timing
/// keeps a run-time stride, so it prices the slot loop, not that
/// per-row saving. This is the structure whose per-element cost the
/// tile search compares across lane widths; a plain k=1 axpy cannot see
/// the register-blocking advantage of wider strips (the slot loop
/// amortizes the acc load/store and loop overhead).
///
/// # Safety
///
/// Every non-padding `cols[i]` must name a row of `b`
/// (`(cols[i] + 1) · ld <= b.len()`) and `acc.len() <= ld`
/// (debug-asserted) — unchecked `B` reads mirror the production
/// microkernel so the measurement sees the same codegen.
#[inline(always)]
unsafe fn axpy_block<const LANES: usize, const GROUPS: usize>(
    acc: &mut [f32],
    cols: &[u32; BLOCK_K],
    vals: &[f32; BLOCK_K],
    b: &[f32],
    ld: usize,
) {
    debug_assert!(acc.len() <= ld);
    debug_assert!(cols
        .iter()
        .all(|&c| c == u32::MAX || (c as usize + 1) * ld <= b.len()));
    let strip = LANES * GROUPS;
    let mut s = 0;
    while s + strip <= acc.len() {
        let mut r = [[0.0f32; LANES]; GROUPS];
        for (g, rg) in r.iter_mut().enumerate() {
            rg.copy_from_slice(&acc[s + g * LANES..s + (g + 1) * LANES]);
        }
        for (&c, &a) in cols.iter().zip(vals) {
            if c == u32::MAX {
                continue;
            }
            let base = c as usize * ld + s;
            // SAFETY: `c` names a row of `b` and `s + strip <= acc.len()
            // <= ld` (caller contract), so the strip lies inside row `c`.
            let row = unsafe { b.get_unchecked(base..base + strip) };
            for (g, rg) in r.iter_mut().enumerate() {
                for (l, rv) in rg.iter_mut().enumerate() {
                    *rv += a * row[g * LANES + l];
                }
            }
        }
        for (g, rg) in r.iter().enumerate() {
            acc[s + g * LANES..s + (g + 1) * LANES].copy_from_slice(rg);
        }
        s += strip;
    }
}

/// # Safety
///
/// Forwarded caller contract from [`axpy_block`] (column bounds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_block_avx2<const LANES: usize, const GROUPS: usize>(
    acc: &mut [f32],
    cols: &[u32; BLOCK_K],
    vals: &[f32; BLOCK_K],
    b: &[f32],
    ld: usize,
) {
    // SAFETY: forwarded caller contract (column bounds).
    unsafe { axpy_block::<LANES, GROUPS>(acc, cols, vals, b, ld) }
}

/// # Safety
///
/// Forwarded caller contract from [`axpy_block`] (column bounds).
unsafe fn axpy_block_dispatch<const LANES: usize, const GROUPS: usize>(
    acc: &mut [f32],
    cols: &[u32; BLOCK_K],
    vals: &[f32; BLOCK_K],
    b: &[f32],
    ld: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime; column
        // contract forwarded from the caller.
        unsafe { axpy_block_avx2::<LANES, GROUPS>(acc, cols, vals, b, ld) };
        return;
    }
    // SAFETY: forwarded caller contract (column bounds).
    unsafe { axpy_block::<LANES, GROUPS>(acc, cols, vals, b, ld) }
}

fn measure() -> Calibration {
    let d = Calibration::default_model();

    // --- accumulate loops over an L1-resident strip -------------------
    const STRIP: usize = 1024; // 4 KiB acc + 4 KiB b: comfortably L1
    const SWEEPS: usize = 256;
    let mut acc = vec![0.0f32; STRIP];
    let src: Vec<f32> = (0..STRIP).map(|i| (i % 13) as f32 * 0.25).collect();
    let elems = (STRIP * SWEEPS) as f64;
    let per_elem = |ns: f64| ns / elems;

    let scalar = per_elem(best_ns(5, || {
        for k in 0..SWEEPS {
            axpy_scalar(&mut acc, 1.0 + k as f32 * 1e-7, &src);
        }
        std::hint::black_box(&acc);
    }));
    // Flat k=1 strip sweep for the wide path — used only to normalize
    // the spill measurement below (same shape, bigger working set).
    let x8_flat = per_elem(best_ns(5, || {
        for k in 0..SWEEPS {
            axpy_lanes_dispatch::<8>(&mut acc, 1.0 + k as f32 * 1e-7, &src);
        }
        std::hint::black_box(&acc);
    }));

    // --- streamed accumulate: the microkernel's real shape -------------
    // The wide engines never run k=1 axpy: they stream a row's
    // column-indexed `B` rows through a resident register strip, so the
    // strip width's real lever — amortizing per-slot index/coefficient
    // loads and loop overhead across more accumulators — only shows up
    // here. 1 KiB acc + BLOCK_K x 1 KiB `B` rows touched: ~9 KiB,
    // L1-resident.
    const BSTRIP: usize = 256;
    const BROWS: usize = 16;
    const BSWEEPS: usize = 128;
    let mut bacc = vec![0.0f32; BSTRIP];
    let bsrc: Vec<f32> = (0..BSTRIP * BROWS).map(|i| (i % 11) as f32 * 0.5).collect();
    let cols: [u32; BLOCK_K] = std::array::from_fn(|i| (i * 7 % BROWS) as u32);
    let vals: [f32; BLOCK_K] = std::array::from_fn(|i| 1.0 + i as f32 * 1e-3);
    let belems = (BSTRIP * BLOCK_K * BSWEEPS) as f64;
    let x4 = best_ns(5, || {
        for _ in 0..BSWEEPS {
            // SAFETY: every column is < BROWS, `bsrc` holds BROWS rows of
            // BSTRIP == bacc.len() elements.
            unsafe { axpy_block_dispatch::<4, 8>(&mut bacc, &cols, &vals, &bsrc, BSTRIP) };
        }
        std::hint::black_box(&bacc);
    }) / belems;
    let x8 = best_ns(5, || {
        for _ in 0..BSWEEPS {
            // SAFETY: as above.
            unsafe { axpy_block_dispatch::<8, 8>(&mut bacc, &cols, &vals, &bsrc, BSTRIP) };
        }
        std::hint::black_box(&bacc);
    }) / belems;

    // --- L1 spill: same 8-lane loop, working set far beyond L1 --------
    // Walk many distinct source rows so every sweep re-streams from L2.
    const BIG_ROWS: usize = 512; // 512 rows x 1 KiB = 512 KiB
    const SPILL_SWEEPS: usize = 4;
    let big: Vec<f32> = (0..BIG_ROWS * 256).map(|i| (i % 7) as f32).collect();
    let mut sacc = vec![0.0f32; 256];
    let spill = best_ns(3, || {
        for k in 0..SPILL_SWEEPS {
            for r in 0..BIG_ROWS {
                axpy_lanes_dispatch::<8>(
                    &mut sacc,
                    1.0 + k as f32 * 1e-7,
                    &big[r * 256..(r + 1) * 256],
                );
            }
        }
        std::hint::black_box(&sacc);
    }) / (BIG_ROWS * 256 * SPILL_SWEEPS) as f64;

    // --- serial copy --------------------------------------------------
    let src64 = vec![0u64; 64 * 1024];
    let mut dst64 = vec![0u64; 64 * 1024];
    let copy = best_ns(5, || {
        dst64.copy_from_slice(&src64);
        std::hint::black_box(&dst64);
    }) / src64.len() as f64;

    // --- pool dispatch ------------------------------------------------
    // One near-empty region per measurement: dispatch + join dominate.
    let dispatch = best_ns(7, || {
        crate::parallel::parallel_for(crate::parallel::default_workers().max(2), 2, |i| {
            std::hint::black_box(i);
        });
    });

    // Clamp everything to generous sanity ranges around the fallback
    // model; ratios stay measured as long as the machine is not insane.
    let clamp = |v: f64, lo: f64, hi: f64, fallback: f64| {
        if v.is_finite() && v >= lo && v <= hi {
            v
        } else {
            fallback
        }
    };
    let axpy_scalar_ns = clamp(scalar, 0.02, 50.0, d.axpy_scalar_ns);
    Calibration {
        axpy_scalar_ns,
        // The unrolled paths never cost more than scalar in the model:
        // a miscalibrated wide loop must not trick the tile search into
        // preferring scalar tiles on a machine where SIMD wins.
        axpy_x4_ns: clamp(x4, 0.01, 50.0, d.axpy_x4_ns).min(axpy_scalar_ns),
        axpy_x8_ns: clamp(x8, 0.005, 50.0, d.axpy_x8_ns).min(axpy_scalar_ns),
        l1_spill_factor: clamp(spill / x8_flat.max(1e-6), 1.0, 16.0, d.l1_spill_factor),
        copy_ns: clamp(copy, 0.005, 20.0, d.copy_ns),
        pool_dispatch_ns: clamp(dispatch, 100.0, 5e6, d.pool_dispatch_ns),
        l1_budget_bytes: d.l1_budget_bytes,
    }
}

/// The process-wide calibration, measured on first call (a few
/// milliseconds) and cached for the process lifetime.
pub fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(measure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_cached_and_sane() {
        let a = calibration();
        let b = calibration();
        assert!(std::ptr::eq(a, b), "OnceLock must cache");
        assert!(a.axpy_scalar_ns > 0.0 && a.axpy_scalar_ns <= 50.0);
        assert!(a.axpy_x8_ns > 0.0 && a.axpy_x8_ns <= a.axpy_scalar_ns);
        assert!(a.axpy_x4_ns > 0.0 && a.axpy_x4_ns <= a.axpy_scalar_ns);
        assert!(a.l1_spill_factor >= 1.0 && a.l1_spill_factor <= 16.0);
        assert!(a.copy_ns > 0.0);
        assert!(a.pool_dispatch_ns >= 100.0);
        assert!(a.l1_budget_bytes >= 4096);
    }

    #[test]
    fn default_model_within_clamp_ranges() {
        let d = Calibration::default_model();
        assert!(d.axpy_x8_ns < d.axpy_x4_ns && d.axpy_x4_ns < d.axpy_scalar_ns);
        assert!(d.l1_spill_factor >= 1.0);
    }
}
