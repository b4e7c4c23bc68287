//! Property-based integration tests (proptest): format conversions are
//! lossless and every kernel computes the same product for arbitrary
//! sparse matrices and CELL configurations.

use liteform::cell::{build_cell, CellConfig};
use liteform::kernels::{CellKernel, CsrVectorKernel, SpmmKernel, TacoKernel, TacoSchedule};
use liteform::sim::coalesce::warp_transactions;
use liteform::sparse::{BcsrMatrix, CooMatrix, CsrMatrix, DenseMatrix, EllMatrix, SellMatrix};
use proptest::prelude::*;

/// Strategy: a small random sparse matrix as (rows, cols, triplets).
fn sparse_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (2usize..40, 2usize..40).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -5.0f64..5.0);
        proptest::collection::vec(entry, 0..120).prop_map(move |trips| {
            // Filter exact zeros so nnz is stable through dedup.
            let trips: Vec<_> = trips.into_iter().filter(|&(_, _, v)| v != 0.0).collect();
            CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, trips).unwrap())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_round_trip(csr in sparse_matrix()) {
        prop_assert_eq!(CsrMatrix::from_coo(&csr.to_coo()), csr);
    }

    #[test]
    fn blockwise_formats_round_trip(csr in sparse_matrix(), br in 1usize..6, bc in 1usize..6) {
        prop_assert_eq!(BcsrMatrix::from_csr(&csr, br, bc).unwrap().to_csr(), csr.clone());
        prop_assert_eq!(EllMatrix::from_csr(&csr).to_csr(), csr.clone());
        prop_assert_eq!(SellMatrix::from_csr(&csr, br.max(1)).unwrap().to_csr(), csr);
    }

    #[test]
    fn cell_round_trip_any_config(
        csr in sparse_matrix(),
        partitions in 1usize..6,
        cap_exp in 0u32..8,
        multiple_exp in 0u32..3,
    ) {
        let config = CellConfig {
            num_partitions: partitions,
            max_widths: Some(vec![1usize << cap_exp]),
            block_nnz_multiple: 1usize << multiple_exp,
            uniform_block_nnz: true,
        };
        let cell = build_cell(&csr, &config).unwrap();
        // The element multiset is preserved exactly.
        prop_assert_eq!(cell.to_csr(), csr.clone());
        // nnz bookkeeping agrees.
        prop_assert_eq!(cell.nnz(), csr.nnz());
        // Stored slots never shrink below nnz.
        prop_assert!(cell.stored_slots() >= cell.nnz());
    }

    #[test]
    fn cell_spmm_matches_reference(
        csr in sparse_matrix(),
        partitions in 1usize..5,
        cap_exp in 0u32..6,
        j in 1usize..20,
    ) {
        let config = CellConfig {
            num_partitions: partitions,
            max_widths: Some(vec![1usize << cap_exp]),
            block_nnz_multiple: 4,
            uniform_block_nnz: true,
        };
        let cell = build_cell(&csr, &config).unwrap();
        let mut rng = liteform::sparse::Pcg32::seed_from_u64(1);
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let got = CellKernel::new(cell).run(&b).unwrap();
        let want = csr.spmm_reference(&b).unwrap();
        prop_assert!(got.approx_eq(&want, 1e-9));
    }

    #[test]
    fn csr_kernels_match_reference(csr in sparse_matrix(), j in 1usize..20) {
        let mut rng = liteform::sparse::Pcg32::seed_from_u64(2);
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        let v = CsrVectorKernel::new(csr.clone()).run(&b).unwrap();
        prop_assert!(v.approx_eq(&want, 1e-9));
        let t = TacoKernel::new(csr, TacoSchedule { nnz_per_warp: 8, warps_per_block: 2 })
            .run(&b)
            .unwrap();
        prop_assert!(t.approx_eq(&want, 1e-9));
    }

    #[test]
    fn warp_transactions_bounds(indices in proptest::collection::vec(0u32..10_000, 1..32)) {
        let t = warp_transactions(&indices, 4, 32);
        // At least 1, at most one per lane.
        prop_assert!(t >= 1);
        prop_assert!(t <= indices.len() as u64);
    }

    #[test]
    fn algorithm3_width_is_power_of_two_within_bounds(csr in sparse_matrix(), j in 1usize..512) {
        use liteform::cost::model::PartitionSketch;
        use liteform::cost::search::build_buckets;
        let part = PartitionSketch::from_csr(&csr, 0, csr.cols());
        let (w, _, cost) = build_buckets(&part, j);
        prop_assert!(w.is_power_of_two());
        let natural = part.max_row_len().max(1).next_power_of_two();
        prop_assert!(w <= natural);
        prop_assert!(cost >= 0.0);
    }
}
