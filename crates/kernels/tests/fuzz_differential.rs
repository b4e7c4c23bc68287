//! Differential fuzzing: every kernel vs. the sequential CSR reference.
//!
//! Each iteration draws one structure-aware [`fuzz_case`] — the
//! [`PatternFamily`] corpus shapes plus degenerate geometry (zero rows,
//! zero columns, empty matrices, mostly-empty rows, one dense row,
//! duplicate-heavy streams, extreme aspect ratios, folded-row-heavy
//! profiles) — builds **all ten** kernel configurations on it, and
//! requires every result to match `CsrMatrix::spmm_reference` within the
//! engine suite's 1e-9 bound.
//!
//! The corpus also rotates through a **malformed** class (broken
//! row-pointer monotonicity, out-of-range column indices, length
//! mismatches, non-finite values). Those cases exercise the *rejection*
//! contract instead: strict validation must return a typed
//! `SparseError` — never panic, never a wrong answer — and the kernel
//! comparison is skipped, since kernel constructors are only defined
//! over valid CSR.
//!
//! In debug builds the shadow race detector is live underneath every
//! kernel: each run also proves the disjoint-write claims (plain-store
//! rows single-writer, atomic rows shared) hold for the generated
//! structure.
//!
//! Run with `cargo test -p lf-kernels fuzz_differential`. The default
//! iteration count is CI-sized but covers every structural class
//! (classes rotate with the seed); `LF_FUZZ_ITERS=2000` (see
//! `scripts/verify.sh --stress`) widens the sweep. Every failure message
//! carries the seed, which reproduces the case exactly.

use lf_cell::{build_cell, CellConfig};
use lf_kernels::cell::CellKernel;
use lf_kernels::{
    BcsrKernel, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, EllKernel, Lanes, SellKernel,
    SpmmKernel, SputnikKernel, TacoKernel, TacoSchedule, TileParams,
};
use lf_sparse::gen::{fuzz_case, FUZZ_CLASSES};
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32, SellMatrix};

/// Every kernel in the repo, bound to the same operand and execution
/// tile, paired with whether its mapping may use atomic accumulation
/// (which makes run-to-run float ordering scheduling-dependent).
fn all_kernels(csr: &CsrMatrix<f64>, tile: TileParams) -> Vec<(Box<dyn SpmmKernel<f64>>, bool)> {
    vec![
        (
            Box::new(CsrScalarKernel::new(csr.clone()).with_tile(tile)) as Box<_>,
            false,
        ),
        (
            Box::new(CsrVectorKernel::new(csr.clone()).with_tile(tile)),
            false,
        ),
        (
            Box::new(DgSparseKernel::new(csr.clone()).with_tile(tile)),
            false,
        ),
        (
            Box::new(SputnikKernel::new(csr.clone()).with_tile(tile)),
            false,
        ),
        (
            Box::new(TacoKernel::new(csr.clone(), TacoSchedule::default()).with_tile(tile)),
            true,
        ),
        (
            Box::new(EllKernel::new(EllMatrix::from_csr(csr)).with_tile(tile)),
            false,
        ),
        (
            Box::new(SellKernel::new(SellMatrix::from_csr(csr, 16).unwrap()).with_tile(tile)),
            false,
        ),
        (
            Box::new(BcsrKernel::new(BcsrMatrix::from_csr(csr, 4, 4).unwrap()).with_tile(tile)),
            false,
        ),
        (
            Box::new(
                CellKernel::new(build_cell(csr, &CellConfig::with_partitions(3)).unwrap())
                    .with_tile(tile),
            ),
            false,
        ),
        // Width-capped build: long rows fold into fragments of the
        // maximum bucket (shared shadow claims) on every structural
        // class. Row bands keep even folded rows single-writer.
        (
            Box::new(
                CellKernel::new(
                    build_cell(csr, &CellConfig::default().with_max_widths(vec![8])).unwrap(),
                )
                .with_tile(tile),
            ),
            false,
        ),
    ]
}

fn iters() -> u64 {
    std::env::var("LF_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        // 4 full rotations through the structural classes by default.
        .unwrap_or(4 * FUZZ_CLASSES)
}

#[test]
fn fuzz_differential_all_kernels_match_reference() {
    for seed in 0..iters() {
        let case = fuzz_case::<f64>(seed);
        let (csr, j) = (&case.csr, case.j);
        if case.malformed {
            // Malformed payloads must be caught by strict validation
            // (the serving layer's ingress gate) with a typed error.
            // Kernels are only defined over valid CSR, so the
            // differential comparison does not apply.
            assert!(
                csr.validate_finite().is_err(),
                "seed {seed} [{}]: malformed case passed strict validation",
                case.label
            );
            continue;
        }
        assert!(
            csr.validate().is_ok(),
            "seed {seed} [{}]: well-formed case failed validation",
            case.label
        );
        let mut rng = Pcg32::new(seed, 0xB0B);
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        // Differential on two axes at once: every kernel vs. the
        // sequential reference, AND the forced-scalar engine vs. the
        // SIMD strip engine. Atomic-free kernels must agree with their
        // scalar run *bitwise*; atomic mappings get the 1e-9 bound.
        let scalar_tile = TileParams::default().with_lanes(Lanes::Scalar);
        let wide_tile = TileParams {
            j_tile: 64,
            k_block: 8,
            lanes: Lanes::Auto,
            chunk_slots: 4096,
        };
        let wide = all_kernels(csr, wide_tile);
        for ((k, atomics), (kw, _)) in all_kernels(csr, scalar_tile).into_iter().zip(wide) {
            let got = k.run(&b).unwrap_or_else(|e| {
                panic!(
                    "seed {seed} [{}] {}x{} nnz={} J={j}: {} failed: {e}",
                    case.label,
                    csr.rows(),
                    csr.cols(),
                    csr.nnz(),
                    k.name()
                )
            });
            assert_eq!(
                got.shape(),
                (csr.rows(), j),
                "seed {seed} [{}]: {} shape",
                case.label,
                k.name()
            );
            assert!(
                got.approx_eq(&want, 1e-9),
                "seed {seed} [{}] {}x{} nnz={} J={j}: {} diverges from reference",
                case.label,
                csr.rows(),
                csr.cols(),
                csr.nnz(),
                k.name()
            );
            let got_wide = kw.run(&b).unwrap_or_else(|e| {
                panic!(
                    "seed {seed} [{}]: {} (SIMD tile) failed: {e}",
                    case.label,
                    kw.name()
                )
            });
            if atomics {
                assert!(
                    got_wide.approx_eq(&want, 1e-9),
                    "seed {seed} [{}]: {} (SIMD tile) diverges from reference",
                    case.label,
                    kw.name()
                );
            } else {
                let a: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                let w: Vec<u64> = got_wide.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    a,
                    w,
                    "seed {seed} [{}] {}x{} nnz={} J={j}: {} SIMD engine is not \
                     bitwise-equal to the scalar engine",
                    case.label,
                    csr.rows(),
                    csr.cols(),
                    csr.nnz(),
                    k.name()
                );
            }
        }
    }
}
