//! `CellMatrix::to_csr` is the exact inverse of `build_cell`, stored
//! zeros included, across every well-formed fuzzer structure class ×
//! partition count × width cap. The serving layer's disk tier re-derives
//! a decoded plan's fingerprint through this conversion, so a lossy
//! reconstruction rejects valid records.

use lf_cell::{build_cell, Bucket, CellConfig, CellMatrix, Partition};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::gen::{fuzz_case, FUZZ_CLASSES};
use lf_sparse::CsrMatrix;

/// `csr` with every third stored value replaced by an explicit zero.
fn with_stored_zeros(csr: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let values = csr
        .values()
        .iter()
        .enumerate()
        .map(|(k, &v)| if k % 3 == 0 { 0.0 } else { v })
        .collect();
    CsrMatrix::from_raw(
        csr.rows(),
        csr.cols(),
        csr.row_ptr().to_vec(),
        csr.col_ind().to_vec(),
        values,
    )
    .expect("same structure as a valid CSR")
}

#[test]
fn to_csr_inverts_build_cell_with_and_without_stored_zeros() {
    let mut classes = std::collections::HashSet::new();
    let mut zeros_checked = 0usize;
    for seed in 0..(3 * FUZZ_CLASSES) {
        let case = fuzz_case::<f64>(seed);
        if case.malformed {
            continue;
        }
        classes.insert(case.label);
        let zeroed = with_stored_zeros(&case.csr);
        if zeroed.nnz() > 0 {
            zeros_checked += 1;
        }
        for p in [1, 4, 16] {
            for config in [
                CellConfig::with_partitions(p),
                CellConfig::with_partitions(p).with_max_widths(vec![2]),
            ] {
                for csr in [&case.csr, &zeroed] {
                    let cell = build_cell(csr, &config).unwrap();
                    assert_eq!(
                        &cell.to_csr(),
                        csr,
                        "seed {seed} ({}) {config:?}",
                        case.label
                    );
                }
            }
        }
    }
    assert!(classes.len() >= FUZZ_CLASSES as usize - 1, "{classes:?}");
    assert!(
        zeros_checked >= 20,
        "only {zeros_checked} cases had stored zeros"
    );
}

#[test]
fn out_of_order_cell_falls_back_to_sort_and_merge() {
    // Hand-assembled: row 0's fragments arrive in descending column
    // order and (1, 2) is stored twice, which no builder produces.
    let bucket = Bucket {
        width: 2,
        row_ind: vec![0, 0, 1, 1],
        col_ind: vec![3, ELL_PAD, 0, 1, 2, ELL_PAD, 2, ELL_PAD],
        values: vec![1.0, 0.0, 2.0, 3.0, 4.0, 0.0, 5.0, 0.0],
        rows_per_block: 1,
        needs_atomic: true,
        has_folded: true,
    };
    let cell = CellMatrix::from_parts(
        2,
        4,
        5,
        vec![Partition {
            col_range: (0, 4),
            buckets: vec![bucket],
        }],
        CellConfig::default(),
    );
    let csr = cell.to_csr();
    assert_eq!(csr.row_ptr(), &[0, 3, 4]);
    assert_eq!(csr.col_ind(), &[0, 1, 3, 2]);
    assert_eq!(csr.values(), &[2.0, 3.0, 1.0, 9.0]);
}
