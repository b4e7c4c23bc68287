//! CELL's numeric path is **bitwise-equal** to the sequential CSR
//! reference.
//!
//! Row bands give every output row exactly one writer, which walks the
//! row's bucket rows partition-major; bucket `row_ind` is ascending and
//! a folded row's fragments sit in column order in its partition's cap
//! bucket, so each `C[r][s]` sums its products in ascending CSR column
//! order — exactly `CsrMatrix::spmm_reference`'s loop. No lane shape,
//! tile, band size, worker count, partition count or folding cap may
//! change a bit of the result, and neither may fusing several operands
//! into one `PreparedPlan::run_batched` execute.
//!
//! Every structural [`fuzz_case`] class is swept for `f32` and `f64`
//! under single- and multi-partition and width-capped (folding)
//! configurations at `J ∈ {1, 3, 8, 17, 33, 40, 64, 130}`, which reach
//! every branch of the microkernel's strip cascade for 8-lane `f32` and
//! 4-lane `f64` strips.

use lf_cell::{build_cell, CellConfig};
use lf_kernels::cell::CellKernel;
use lf_kernels::{Lanes, SpmmKernel, TileParams};
use lf_sim::atomicf::AtomicScalar;
use lf_sparse::gen::{fuzz_case, FUZZ_CLASSES};
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{PreparedPlan, PreprocessProfile};

const JS: [usize; 8] = [1, 3, 8, 17, 33, 40, 64, 130];

/// Single-partition, multi-partition and width-capped builds; the capped
/// ones fold every row longer than the cap.
fn configs() -> Vec<CellConfig> {
    vec![
        CellConfig::with_partitions(1),
        CellConfig::with_partitions(4),
        CellConfig::with_partitions(16),
        CellConfig::default().with_max_widths(vec![8]),
        CellConfig::with_partitions(4).with_max_widths(vec![4]),
    ]
}

/// Every tile shape the kernel tile tests sweep: the forced-scalar
/// engine, both wide lane shapes, one-element j-tiles with one-slot
/// bands, and j-tiles narrower than the widest `J`.
fn tiles() -> [TileParams; 6] {
    [
        TileParams::default().with_lanes(Lanes::Scalar),
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
        TileParams {
            j_tile: 32,
            k_block: 5,
            lanes: Lanes::X4,
            chunk_slots: 1024,
        },
        TileParams {
            j_tile: 64,
            k_block: 8,
            lanes: Lanes::Auto,
            chunk_slots: 4096,
        },
    ]
}

/// Exact bit patterns (`f32 → f64` widening is exact and keeps the sign
/// of zero, so equal images mean equal bits).
fn bits<T: AtomicScalar>(m: &DenseMatrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn assert_case<T: AtomicScalar>(seed: u64, label: &str, csr: &CsrMatrix<T>) {
    let mut rng = Pcg32::new(seed, 0xB17);
    let operands: Vec<DenseMatrix<T>> = JS
        .iter()
        .map(|&j| DenseMatrix::random(csr.cols(), j, &mut rng))
        .collect();
    let wants: Vec<Vec<u64>> = operands
        .iter()
        .map(|b| bits(&csr.spmm_reference(b).unwrap()))
        .collect();
    for cfg in configs() {
        let cell = build_cell(csr, &cfg).unwrap();
        let ctx = |what: &str, j: usize| {
            format!(
                "seed {seed} [{label}] {}x{} nnz={} {cfg:?} J={j}: {what}",
                csr.rows(),
                csr.cols(),
                csr.nnz()
            )
        };
        let kernel = CellKernel::new(cell.clone());
        for (b, want) in operands.iter().zip(&wants) {
            let j = b.cols();
            assert_eq!(&bits(&kernel.run(b).unwrap()), want, "{}", ctx("run", j));
            for tile in tiles() {
                let got = kernel.run_tiled(b, tile).unwrap();
                assert_eq!(&bits(&got), want, "{}", ctx(&format!("{tile:?}"), j));
            }
        }
        // One fused execute over all five widths (J = 215).
        let plan = PreparedPlan::from_cell(cfg.clone(), cell, PreprocessProfile::default());
        let members: Vec<&DenseMatrix<T>> = operands.iter().collect();
        let fused = plan.run_batched(&members).unwrap();
        assert_eq!(fused.len(), members.len());
        for (got, want) in fused.iter().zip(&wants) {
            assert_eq!(&bits(got), want, "{}", ctx("run_batched", got.cols()));
        }
    }
}

fn sweep<T: AtomicScalar>() {
    for seed in 0..FUZZ_CLASSES {
        let case = fuzz_case::<T>(seed);
        if !case.malformed {
            assert_case(seed, case.label, &case.csr);
        }
    }
}

#[test]
fn cell_is_bitwise_equal_to_the_reference_f64() {
    sweep::<f64>();
}

#[test]
fn cell_is_bitwise_equal_to_the_reference_f32() {
    sweep::<f32>();
}

#[test]
fn forced_atomic_oracle_agrees_to_rounding() {
    // The CAS path sums a folded or multi-partition row's fragments in
    // scheduling order, so it is held to the reference only within the
    // engine suite's 1e-9 bound — the gap row bands close.
    for seed in 0..FUZZ_CLASSES {
        let case = fuzz_case::<f64>(seed);
        if case.malformed {
            continue;
        }
        let mut rng = Pcg32::new(seed, 0xA70);
        let b = DenseMatrix::random(case.csr.cols(), 17, &mut rng);
        let want = case.csr.spmm_reference(&b).unwrap();
        for cfg in configs() {
            let k = CellKernel::new(build_cell(&case.csr, &cfg).unwrap());
            let got = k.run_forced_atomic(&b).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "seed {seed} {cfg:?}");
        }
    }
}
