//! Integration: the SELL kernel agrees with the CSR reference, the Matrix
//! Market path round-trips a banded matrix exactly, and NaN values are
//! caught by validation yet carried losslessly by the formats.

use liteform::kernels::{SellKernel, SpmmKernel};
use liteform::sparse::io::{read_matrix_market, write_matrix_market};
use liteform::sparse::{CooMatrix, CsrMatrix, DenseMatrix, Pcg32, SellMatrix};

#[test]
fn banded_matrix_roundtrips_via_mtx() {
    let mut rng = Pcg32::seed_from_u64(17);
    let coo = liteform::sparse::gen::banded::<f64>(300, 300, 4, &mut rng);

    // Matrix Market round trip preserves the matrix exactly.
    let mut buf = Vec::new();
    write_matrix_market(&coo, &mut buf).unwrap();
    let back: CooMatrix<f64> = read_matrix_market(buf.as_slice()).unwrap();
    assert_eq!(back, coo);
}

#[test]
fn sell_kernel_in_the_ecosystem() {
    let mut rng = Pcg32::seed_from_u64(18);
    let coo = liteform::sparse::gen::power_law::<f64>(
        &liteform::sparse::gen::PowerLawConfig {
            rows: 500,
            cols: 500,
            target_nnz: 6000,
            exponent: 1.9,
            max_degree: Some(120),
        },
        &mut rng,
    );
    let csr = CsrMatrix::from_coo(&coo);
    let b = DenseMatrix::random(500, 48, &mut rng);
    let want = csr.spmm_reference(&b).unwrap();
    let got = SellKernel::new(SellMatrix::from_csr(&csr, 32).unwrap())
        .run(&b)
        .unwrap();
    assert!(got.approx_eq(&want, 1e-9));
}

#[test]
fn nan_values_are_caught_by_validation() {
    let coo = CooMatrix::from_triplets(3, 3, vec![(0, 0, f64::NAN), (1, 1, 1.0)]).unwrap();
    assert!(coo.validate_finite().is_err());
    // But the formats still carry them losslessly (IEEE semantics) —
    // validation is a choice, not an ambush.
    let csr = CsrMatrix::from_coo(&coo);
    assert!(csr.values()[0].is_nan());
}
