//! Cross-crate integration: every storage format and every kernel must
//! agree numerically with the sequential CSR reference on matrices from
//! every generator family.

use liteform::cell::{build_cell, CellConfig};
use liteform::kernels::{
    BcsrKernel, CellKernel, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, EllKernel,
    SpmmKernel, SputnikKernel, TacoKernel, TacoSchedule,
};
use liteform::sparse::gen::PatternFamily;
use liteform::sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32, SellMatrix};

fn matrices() -> Vec<(String, CsrMatrix<f64>)> {
    let mut rng = Pcg32::seed_from_u64(0xF00D);
    PatternFamily::ALL
        .iter()
        .map(|fam| {
            let coo = fam.generate::<f64>(180, 150, 2200, &mut rng);
            (fam.name().to_string(), CsrMatrix::from_coo(&coo))
        })
        .collect()
}

#[test]
fn all_formats_round_trip_through_csr() {
    for (name, csr) in matrices() {
        assert_eq!(CsrMatrix::from_coo(&csr.to_coo()), csr, "{name}: coo");
        assert_eq!(EllMatrix::from_csr(&csr).to_csr(), csr, "{name}: ell");
        assert_eq!(
            SellMatrix::from_csr(&csr, 32).unwrap().to_csr(),
            csr,
            "{name}: sell"
        );
        assert_eq!(
            BcsrMatrix::from_csr(&csr, 4, 4).unwrap().to_csr(),
            csr,
            "{name}: bcsr"
        );
        for p in [1, 3, 5] {
            let cell = build_cell(&csr, &CellConfig::with_partitions(p)).unwrap();
            assert_eq!(cell.to_csr(), csr, "{name}: cell p={p}");
        }
    }
}

#[test]
fn all_kernels_agree_with_reference() {
    let mut rng = Pcg32::seed_from_u64(0xBEEF);
    for (name, csr) in matrices() {
        let b = DenseMatrix::random(csr.cols(), 40, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        let check = |label: &str, got: DenseMatrix<f64>| {
            assert!(got.approx_eq(&want, 1e-9), "{name}/{label} wrong result");
        };
        check(
            "csr-scalar",
            CsrScalarKernel::new(csr.clone()).run(&b).unwrap(),
        );
        check(
            "csr-vector",
            CsrVectorKernel::new(csr.clone()).run(&b).unwrap(),
        );
        check(
            "dgsparse",
            DgSparseKernel::new(csr.clone()).run(&b).unwrap(),
        );
        check("sputnik", SputnikKernel::new(csr.clone()).run(&b).unwrap());
        check(
            "taco",
            TacoKernel::new(csr.clone(), TacoSchedule::default())
                .run(&b)
                .unwrap(),
        );
        check(
            "ell",
            EllKernel::new(EllMatrix::from_csr(&csr)).run(&b).unwrap(),
        );
        check(
            "bcsr",
            BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap())
                .run(&b)
                .unwrap(),
        );
        let cfg = CellConfig::with_partitions(3).with_max_widths(vec![8]);
        check(
            "cell",
            CellKernel::new(build_cell(&csr, &cfg).unwrap())
                .run(&b)
                .unwrap(),
        );
    }
}

#[test]
fn kernels_preserve_empty_and_single_entry_matrices() {
    let empty = CsrMatrix::<f64>::empty(10, 12);
    let single = {
        let coo = liteform::sparse::CooMatrix::from_triplets(10, 12, vec![(3, 7, 2.5)]).unwrap();
        CsrMatrix::from_coo(&coo)
    };
    let mut rng = Pcg32::seed_from_u64(5);
    let b = DenseMatrix::random(12, 8, &mut rng);
    for csr in [empty, single] {
        let want = csr.spmm_reference(&b).unwrap();
        let cell = build_cell(&csr, &CellConfig::default()).unwrap();
        let got = CellKernel::new(cell).run(&b).unwrap();
        assert!(got.approx_eq(&want, 1e-12));
    }
}
