//! Edge-case and equivalence suite for the shared SpMM execution engine.
//!
//! Every kernel now runs on the persistent-pool engine with direct
//! (non-atomic) output writes wherever rows have a single writer, so this
//! suite pins down the behaviors that rewrite could have silently broken:
//!
//! * numeric agreement with the sequential CSR reference for every kernel
//!   across degenerate and tiling-boundary dense widths
//!   (`J ∈ {0, 1, 2, 7, 16, 33, 40, 256}` — the narrow widths hit the
//!   microkernel's remainder and cascade strips, 256 crosses the
//!   engine's accumulator tile);
//! * out-of-range column indices in unvalidated operands stopping the
//!   kernel before the microkernel's unchecked `B` reads;
//! * empty buckets / empty partitions / empty matrices;
//! * bitwise run-to-run determinism of the atomic-free paths;
//! * the CELL single-writer fast path being bit-identical (modulo the
//!   sign of zero) to the forced-atomic path (the Algorithm 2
//!   `needs_atomic` contract).

use lf_cell::{build_cell, Bucket, CellConfig, CellMatrix, Partition};
use lf_kernels::cell::{CellKernel, FusionMode};
use lf_kernels::{
    BcsrKernel, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, EllKernel, Lanes, SellKernel,
    SpmmKernel, SputnikKernel, TacoKernel, TacoSchedule, TileParams,
};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::gen::{mixed_regions, uniform_random, uniform_with_long_rows};
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32, SellMatrix};
use proptest::prelude::*;

/// Every kernel in the repo, bound to the same operand.
fn all_kernels(csr: &CsrMatrix<f64>) -> Vec<Box<dyn SpmmKernel<f64>>> {
    vec![
        Box::new(CsrScalarKernel::new(csr.clone())),
        Box::new(CsrVectorKernel::new(csr.clone())),
        Box::new(DgSparseKernel::new(csr.clone())),
        Box::new(SputnikKernel::new(csr.clone())),
        Box::new(TacoKernel::new(csr.clone(), TacoSchedule::default())),
        Box::new(EllKernel::new(EllMatrix::from_csr(csr))),
        Box::new(SellKernel::new(SellMatrix::from_csr(csr, 16).unwrap())),
        Box::new(BcsrKernel::new(BcsrMatrix::from_csr(csr, 4, 4).unwrap())),
        Box::new(CellKernel::new(
            build_cell(csr, &CellConfig::with_partitions(3)).unwrap(),
        )),
    ]
}

#[test]
fn every_kernel_matches_reference_at_edge_widths() {
    let mut rng = Pcg32::seed_from_u64(0xE1);
    let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
        160, 140, 2200, 3, 120, &mut rng,
    ));
    for j in [0usize, 1, 2, 7, 16, 33, 40, 256] {
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        for k in all_kernels(&csr) {
            let got = k.run(&b).unwrap();
            assert_eq!(got.shape(), (csr.rows(), j), "{} J={j}", k.name());
            assert!(got.approx_eq(&want, 1e-9), "{} J={j}", k.name());
        }
    }
}

/// `CellMatrix::from_parts` and `CsrMatrix::from_raw_unchecked` validate
/// nothing, so a column index at or past `cols` reaches the kernel. The
/// microkernel reads `B` unchecked; the kernel must stop — panic or
/// `Err` — before any such read, on every lane shape.
#[test]
fn out_of_range_columns_stop_the_kernel_before_reading_b() {
    let rejects = |run: &dyn Fn() -> lf_sparse::Result<DenseMatrix<f64>>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_or(true, |r| r.is_err())
    };
    let bucket = Bucket {
        width: 2,
        row_ind: vec![0, 1],
        col_ind: vec![1, 4, 0, ELL_PAD],
        values: vec![1.0, 2.0, 3.0, 0.0],
        rows_per_block: 2,
        needs_atomic: false,
        has_folded: false,
    };
    let part = Partition {
        col_range: (0, 4),
        buckets: vec![bucket],
    };
    let cell = CellKernel::new(CellMatrix::from_parts(
        2,
        4,
        3,
        vec![part],
        CellConfig::default(),
    ));
    let csr = CsrScalarKernel::new(CsrMatrix::from_raw_unchecked(
        2,
        4,
        vec![0, 2, 3],
        vec![1, 4, 0],
        vec![1.0, 2.0, 3.0],
    ));
    // J = 16 puts column 4's slice exactly one row past the end of `B`.
    let b = DenseMatrix::<f64>::zeros(4, 16);
    assert!(rejects(&|| cell.run(&b)), "cell run");
    assert!(
        rejects(&|| cell.run_forced_atomic(&b)),
        "cell forced atomic"
    );
    assert!(rejects(&|| csr.run(&b)), "csr run");
    for lanes in [Lanes::Scalar, Lanes::X4, Lanes::X8] {
        let tile = TileParams::default().with_lanes(lanes);
        assert!(rejects(&|| cell.run_tiled(&b, tile)), "cell {lanes:?}");
        assert!(rejects(&|| csr.run_tiled(&b, tile)), "csr {lanes:?}");
    }
}

#[test]
fn empty_matrix_all_kernels() {
    let csr = CsrMatrix::<f64>::empty(12, 8);
    for j in [0usize, 1, 5] {
        let b = DenseMatrix::zeros(8, j);
        for k in all_kernels(&csr) {
            let c = k.run(&b).unwrap();
            assert_eq!(c.shape(), (12, j), "{} J={j}", k.name());
            assert!(c.as_slice().iter().all(|&v| v == 0.0), "{}", k.name());
        }
    }
}

#[test]
fn cell_handles_empty_partitions_and_buckets() {
    // All non-zeros live in the first few columns, so with 8 column
    // partitions most partitions hold no blocks at all.
    let trips: Vec<(usize, usize, f64)> =
        (0..64).map(|r| (r, r % 4, 1.0 + r as f64 * 0.25)).collect();
    let csr = CsrMatrix::from_coo(&lf_sparse::CooMatrix::from_triplets(64, 512, trips).unwrap());
    for fusion in [FusionMode::Full, FusionMode::PerPartition] {
        let cell = build_cell(&csr, &CellConfig::with_partitions(8)).unwrap();
        let k = CellKernel::with_fusion(cell, fusion);
        let mut rng = Pcg32::seed_from_u64(0xE2);
        let b = DenseMatrix::random(512, 9, &mut rng);
        let got = k.run(&b).unwrap();
        let want = csr.spmm_reference(&b).unwrap();
        assert!(got.approx_eq(&want, 1e-9), "{fusion:?}");
        // The analytic path also tolerates the empty partitions.
        let launches = k.launches(9, &lf_sim::DeviceModel::v100());
        assert!(!launches.is_empty());
    }
}

#[test]
fn atomic_free_paths_are_bitwise_deterministic() {
    // Kernels whose engine path uses no atomics (single-writer rows, or
    // single-partition unfolded CELL) must produce bit-identical results
    // on every run, no matter how the pool interleaves workers.
    let mut rng = Pcg32::seed_from_u64(0xE3);
    let csr = CsrMatrix::from_coo(&uniform_random::<f64>(300, 280, 6000, &mut rng));
    let b = DenseMatrix::random(csr.cols(), 33, &mut rng);
    let kernels: Vec<Box<dyn SpmmKernel<f64>>> = vec![
        Box::new(CsrScalarKernel::new(csr.clone())),
        Box::new(CsrVectorKernel::new(csr.clone())),
        Box::new(DgSparseKernel::new(csr.clone())),
        Box::new(SputnikKernel::new(csr.clone())),
        Box::new(EllKernel::new(EllMatrix::from_csr(&csr))),
        Box::new(SellKernel::new(SellMatrix::from_csr(&csr, 32).unwrap())),
        Box::new(BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap())),
        Box::new(CellKernel::new(
            build_cell(&csr, &CellConfig::default()).unwrap(),
        )),
    ];
    for k in kernels {
        let first = k.run(&b).unwrap();
        for rep in 0..3 {
            let again = k.run(&b).unwrap();
            assert_eq!(first.as_slice(), again.as_slice(), "{} rep={rep}", k.name());
        }
    }
}

/// The SIMD engine contract: for every kernel, every lane mode and tile
/// shape accumulates each output element in the same ascending-k order
/// as the original scalar loop, so on atomic-free paths the results are
/// **bitwise** identical — the lane choice can never change an answer.
/// TACO's segment-boundary atomics are scheduling-order nondeterministic
/// and held to the suite's 1e-9 bound; folded/multi-partition CELL runs
/// on single-writer row bands and is held to bitwise equality like every
/// other kernel.
#[test]
fn scalar_and_wide_tiles_agree_for_every_kernel() {
    let mut rng = Pcg32::seed_from_u64(0xE5);
    let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
        180, 160, 3000, 3, 90, &mut rng,
    ));
    let b = DenseMatrix::random(csr.cols(), 41, &mut rng);
    let scalar = TileParams::default().with_lanes(Lanes::Scalar);
    let wide_tiles = [
        TileParams::default(),
        TileParams {
            j_tile: 32,
            k_block: 5,
            lanes: Lanes::X4,
            chunk_slots: 1024,
        },
        TileParams {
            j_tile: 512,
            k_block: 32,
            lanes: Lanes::X8,
            chunk_slots: 16384,
        },
    ];
    type Run<'a> = Box<dyn Fn(TileParams) -> DenseMatrix<f64> + 'a>;
    // (name, run-under-tile, kernel may use atomics?)
    let cases: Vec<(&str, Run, bool)> = vec![
        (
            "csr_scalar",
            Box::new(|t| CsrScalarKernel::new(csr.clone()).run_tiled(&b, t).unwrap()),
            false,
        ),
        (
            "csr_vector",
            Box::new(|t| CsrVectorKernel::new(csr.clone()).run_tiled(&b, t).unwrap()),
            false,
        ),
        (
            "dgsparse",
            Box::new(|t| DgSparseKernel::new(csr.clone()).run_tiled(&b, t).unwrap()),
            false,
        ),
        (
            "sputnik",
            Box::new(|t| SputnikKernel::new(csr.clone()).run_tiled(&b, t).unwrap()),
            false,
        ),
        (
            "taco",
            Box::new(|t| {
                TacoKernel::new(csr.clone(), TacoSchedule::default())
                    .run_tiled(&b, t)
                    .unwrap()
            }),
            true,
        ),
        (
            "ell",
            Box::new(|t| {
                EllKernel::new(EllMatrix::from_csr(&csr))
                    .run_tiled(&b, t)
                    .unwrap()
            }),
            false,
        ),
        (
            "sell",
            Box::new(|t| {
                SellKernel::new(SellMatrix::from_csr(&csr, 16).unwrap())
                    .run_tiled(&b, t)
                    .unwrap()
            }),
            false,
        ),
        (
            "bcsr",
            Box::new(|t| {
                BcsrKernel::new(BcsrMatrix::from_csr(&csr, 4, 4).unwrap())
                    .run_tiled(&b, t)
                    .unwrap()
            }),
            false,
        ),
        (
            "cell",
            Box::new(|t| {
                CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap())
                    .run_tiled(&b, t)
                    .unwrap()
            }),
            false,
        ),
        (
            "cell_folded",
            Box::new(|t| {
                CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(3)).unwrap())
                    .run_tiled(&b, t)
                    .unwrap()
            }),
            false,
        ),
    ];
    let want = csr.spmm_reference(&b).unwrap();
    for (name, run, atomics) in &cases {
        let base = run(scalar);
        assert!(base.approx_eq(&want, 1e-9), "{name} scalar tile");
        for (ti, &tile) in wide_tiles.iter().enumerate() {
            let got = run(tile);
            assert!(got.approx_eq(&want, 1e-9), "{name} tile #{ti}");
            if !atomics {
                let base_bits: Vec<u64> = base.as_slice().iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    base_bits, got_bits,
                    "{name} tile #{ti}: wide lanes must be bitwise-equal to the scalar engine"
                );
            }
        }
    }
}

/// Bitwise equality, except that `-0.0` and `+0.0` compare equal.
///
/// The plain-store fast path writes the accumulator verbatim (which can
/// be `-0.0`, e.g. from a `-x * 0.0` product), while the atomic path
/// computes `0.0 + acc`, which IEEE 754 normalizes to `+0.0`. The two
/// flush modes are identical on every other bit pattern.
fn bitwise_eq_mod_zero_sign(a: &[f64], b: &[f64]) -> bool {
    fn norm(x: f64) -> u64 {
        if x == 0.0 {
            0.0f64.to_bits()
        } else {
            x.to_bits()
        }
    }
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| norm(x) == norm(y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Algorithm 2's `needs_atomic` contract: routing every flush through
    /// `atomic_add` instead of honoring the single-writer fast path never
    /// changes the output beyond the sign of zero (see
    /// [`bitwise_eq_mod_zero_sign`]), and both agree with the reference.
    #[test]
    fn cell_plain_store_equals_forced_atomic(
        seed in 0u64..1_000_000u64,
        dims in (20usize..150, 20usize..150),
        nnz in 30usize..2500,
        p in 1usize..5,
        j in 1usize..40,
    ) {
        let (rows, cols) = dims;
        let mut rng = Pcg32::seed_from_u64(seed);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(rows, cols, nnz, 3, &mut rng));
        let cell = build_cell(&csr, &CellConfig::with_partitions(p)).unwrap();
        let k = CellKernel::new(cell);
        let b = DenseMatrix::random(cols, j, &mut rng);
        let fast = k.run(&b).unwrap();
        let forced = k.run_forced_atomic(&b).unwrap();
        let single_writer = k
            .cell()
            .partitions()
            .iter()
            .flat_map(|part| &part.buckets)
            .all(|bk| !bk.needs_atomic);
        if single_writer {
            // No contention anywhere: the two flush modes must agree
            // bitwise (modulo the sign of zero), run to run.
            prop_assert!(bitwise_eq_mod_zero_sign(fast.as_slice(), forced.as_slice()));
        }
        let want = csr.spmm_reference(&b).unwrap();
        prop_assert!(fast.approx_eq(&want, 1e-9));
        prop_assert!(forced.approx_eq(&want, 1e-9));
    }
}
