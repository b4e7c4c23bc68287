//! Property suite for [`PreparedPlan::run_batched`]: a fused execute
//! over concatenated operands must scatter back outputs **bitwise
//! identical** to running each operand through a solo
//! [`PreparedPlan::run`], across the fuzzer's structure classes and
//! degenerate member widths (J=0, J=1), on both kernel paths
//! (single-partition CELL and fixed CSR — the single-writer regimes the
//! serving layer's determinism contract covers). A fixed-CSR verdict,
//! which holds no operand, must match them through
//! [`PreparedPlan::run_batched_on`].

use lf_cell::{build_cell, CellConfig};
use lf_sparse::gen::fuzz_case;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{PreparedPlan, PreprocessProfile};

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The two single-writer plan flavors under test.
fn plans(csr: &CsrMatrix<f64>, j: usize) -> Vec<(&'static str, PreparedPlan<f64>)> {
    let config = CellConfig::default(); // one partition: plain stores
    let cell = build_cell(csr, &config).expect("valid csr");
    vec![
        (
            "cell",
            PreparedPlan::from_cell(config, cell, PreprocessProfile::default()).with_tuned_j(j),
        ),
        (
            "csr",
            PreparedPlan::from_csr(csr.clone(), PreprocessProfile::default()).with_tuned_j(j),
        ),
    ]
}

#[test]
fn batched_results_are_bitwise_identical_to_solo_runs() {
    let mut checked = 0usize;
    for seed in 0..24u64 {
        let case = fuzz_case::<f64>(seed);
        if case.malformed {
            continue;
        }
        let cols = case.csr.cols();
        let mut rng = Pcg32::seed_from_u64(0xBA7C + seed);
        // Member widths mix the degenerate joiners (0, 1) with the
        // case's own width; five members of width j also push the fused
        // width well past narrow-J tuning.
        let widths = [case.j, 0, 1, case.j, 3];
        let bs: Vec<DenseMatrix<f64>> = widths
            .iter()
            .map(|&w| DenseMatrix::random(cols, w, &mut rng))
            .collect();
        let refs: Vec<&DenseMatrix<f64>> = bs.iter().collect();
        for (name, plan) in plans(&case.csr, case.j) {
            let batched = plan.run_batched(&refs).unwrap();
            assert_eq!(batched.len(), bs.len(), "{name}/{}", case.label);
            for (k, (b, got)) in bs.iter().zip(&batched).enumerate() {
                let solo = plan.run(b).unwrap();
                assert_eq!(got.shape(), solo.shape());
                assert_eq!(
                    bits(got),
                    bits(&solo),
                    "seed {seed} ({}) {name} member {k} (j={}) diverged from solo",
                    case.label,
                    b.cols()
                );
            }
            // And both agree with the sequential reference.
            for (b, got) in bs.iter().zip(&batched) {
                let want = case.csr.spmm_reference(b).unwrap();
                assert!(got.approx_eq(&want, 1e-9), "{name}/{}", case.label);
            }
        }
        checked += 1;
    }
    assert!(checked >= 15, "fuzzer must yield enough well-formed cases");
}

#[test]
fn fused_width_crosses_the_j_tile_boundary() {
    // 40+50+45+33 = 168 columns: the fused run spans two J_TILE=128
    // accumulator tiles while every solo run fits in one — the tiling
    // seam must not perturb a single bit.
    let case = fuzz_case::<f64>(1);
    assert!(!case.malformed);
    let cols = case.csr.cols();
    let mut rng = Pcg32::seed_from_u64(0x711e);
    let bs: Vec<DenseMatrix<f64>> = [40usize, 50, 45, 33]
        .iter()
        .map(|&w| DenseMatrix::random(cols, w, &mut rng))
        .collect();
    let refs: Vec<&DenseMatrix<f64>> = bs.iter().collect();
    for (name, plan) in plans(&case.csr, 168) {
        let batched = plan.run_batched(&refs).unwrap();
        for (b, got) in bs.iter().zip(&batched) {
            let solo = plan.run(b).unwrap();
            assert_eq!(bits(got), bits(&solo), "{name}: tile seam changed bits");
        }
    }
}

#[test]
fn batched_degenerate_shapes() {
    let case = fuzz_case::<f64>(2);
    assert!(!case.malformed);
    let cols = case.csr.cols();
    let mut rng = Pcg32::seed_from_u64(42);
    for (_, plan) in plans(&case.csr, 8) {
        // Empty member list and single-member fast path.
        assert!(plan.run_batched(&[]).unwrap().is_empty());
        let b = DenseMatrix::random(cols, 5, &mut rng);
        let one = plan.run_batched(&[&b]).unwrap();
        assert_eq!(bits(&one[0]), bits(&plan.run(&b).unwrap()));
        // All-zero-width members.
        let z = DenseMatrix::<f64>::zeros(cols, 0);
        let outs = plan.run_batched(&[&z, &z]).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].shape(), (case.csr.rows(), 0));
        // Mismatched member rows must be a typed error, not a panic.
        let bad = DenseMatrix::<f64>::zeros(cols + 1, 3);
        assert!(plan.run_batched(&[&b, &bad]).is_err());
    }
}

#[test]
fn verdicts_run_over_the_operand_they_are_handed() {
    let mut checked = 0usize;
    for seed in 0..24u64 {
        let case = fuzz_case::<f64>(seed);
        if case.malformed {
            continue;
        }
        let (csr, j) = (&case.csr, case.j);
        let mut rng = Pcg32::seed_from_u64(0x7E4D + seed);
        let bs: Vec<DenseMatrix<f64>> = [j, 0, 1, j]
            .iter()
            .map(|&w| DenseMatrix::random(csr.cols(), w, &mut rng))
            .collect();
        let refs: Vec<&DenseMatrix<f64>> = bs.iter().collect();
        let owned = PreparedPlan::from_csr(csr.clone(), PreprocessProfile::default())
            .with_tuned_j(j)
            .with_epoch(4);
        let want: Vec<Vec<u64>> = owned.run_batched(&refs).unwrap().iter().map(bits).collect();
        let verdict = PreparedPlan::csr_verdict(csr, PreprocessProfile::default()).with_tuned_j(j);
        let dropped = PreparedPlan::from_csr(csr.clone(), PreprocessProfile::default())
            .with_tuned_j(j)
            .with_epoch(4)
            .into_verdict();
        assert_eq!(dropped.epoch, 4, "into_verdict keeps the epoch");
        assert_eq!(dropped.tile_params(), owned.tile_params());
        for (name, plan) in [
            ("verdict", &verdict),
            ("dropped", &dropped),
            ("owned", &owned),
        ] {
            let got: Vec<Vec<u64>> = plan
                .run_batched_on(csr, &refs)
                .unwrap()
                .iter()
                .map(bits)
                .collect();
            assert_eq!(got, want, "seed {seed} ({}) {name}", case.label);
        }
        for plan in [&verdict, &dropped] {
            assert!(plan.is_verdict() && !plan.uses_cell());
            assert_eq!(plan.shape(), csr.shape());
            assert!(plan.format_bytes() > 0 && plan.format_bytes() < 128);
            // No operand of its own: the operand-free entry points refuse.
            assert!(plan.run(&bs[0]).is_err());
            assert!(plan.run_batched(&refs).is_err());
        }
        // A CELL plan runs over its buckets whatever operand it is handed.
        let (_, cell) = plans(csr, j).swap_remove(0);
        let zeroed = CsrMatrix::<f64>::empty(csr.rows(), csr.cols());
        let got: Vec<Vec<u64>> = cell
            .run_batched_on(&zeroed, &refs)
            .unwrap()
            .iter()
            .map(bits)
            .collect();
        let own: Vec<Vec<u64>> = cell.run_batched(&refs).unwrap().iter().map(bits).collect();
        assert_eq!(got, own, "seed {seed}: a CELL plan ignores the operand");
        // An operand of another shape is a typed error.
        let other = CsrMatrix::<f64>::empty(csr.rows() + 1, csr.cols());
        assert!(verdict.run_batched_on(&other, &refs).is_err());
        checked += 1;
    }
    assert!(checked >= 15, "fuzzer must yield enough well-formed cases");
}

#[test]
fn a_csr_plan_holding_a_copy_runs_over_the_handed_operand() {
    // Same shape, different matrix: both CSR forms compute the handed
    // operand's product, never the copy's.
    let a = fuzz_case::<f64>(1);
    assert!(!a.malformed);
    let mut rng = Pcg32::seed_from_u64(0xC0FF);
    let other = CsrMatrix::from_coo(&lf_sparse::gen::uniform_random(
        a.csr.rows(),
        a.csr.cols(),
        a.csr.nnz().max(1),
        &mut rng,
    ));
    let b = DenseMatrix::random(a.csr.cols(), 7, &mut rng);
    let plan = PreparedPlan::from_csr(a.csr.clone(), PreprocessProfile::default()).with_tuned_j(7);
    let got = plan.run_batched_on(&other, &[&b]).unwrap();
    assert_eq!(bits(&got[0]), bits(&other.spmm_reference(&b).unwrap()));
    assert_eq!(
        bits(&plan.run(&b).unwrap()),
        bits(&a.csr.spmm_reference(&b).unwrap())
    );
}
