//! Cache-correctness properties of the serving engine.
//!
//! The contract: serving from the cache changes *when* work happens,
//! never *what* is computed. For deterministic plans (single-partition,
//! natural widths — the engine's atomic-free regime, proven bitwise
//! reproducible in `lf-kernels`' engine suite) a cache-hit serve must be
//! **bit-identical** to a cold compose+run, including after a full
//! eviction/re-admission cycle. Multi-partition plans are held to
//! agreement within floating-point tolerance (written when their buckets
//! still flushed through atomics; CELL's row bands now make them
//! bitwise-equal to the reference too, which `lf-kernels`' `cell_bitwise`
//! suite asserts).

use lf_serve::{FixedCellPlanner, Planner, ServeConfig, ServeEngine};
use lf_sparse::gen::PatternFamily;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn random_case(seed: u64) -> (CsrMatrix<f64>, DenseMatrix<f64>) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let fam = PatternFamily::ALL[rng.usize_in(0, PatternFamily::ALL.len())];
    let rows = rng.usize_in(30, 300);
    let cols = rng.usize_in(30, 300);
    let nnz = rng.usize_in(rows, rows * 12);
    let csr = CsrMatrix::from_coo(&fam.generate(rows, cols, nnz, &mut rng));
    let j = rng.usize_in(1, 40);
    let b = DenseMatrix::random(cols, j, &mut rng);
    (csr, b)
}

#[test]
fn hit_is_bit_identical_to_cold_compose_and_run() {
    // Deterministic regime: p=1, natural widths — no folding, no
    // atomics, bitwise-reproducible execution.
    let planner = FixedCellPlanner::natural(1);
    let engine = ServeEngine::new(planner.clone(), ServeConfig::default());
    for seed in 0..24u64 {
        let (csr, b) = random_case(seed);
        // Cold oracle: compose+run outside the engine.
        let want = Planner::<f64>::prepare(&planner, &csr, b.cols())
            .unwrap()
            .run(&b)
            .unwrap();
        let miss = engine.serve(&csr, &b).unwrap();
        let hit = engine.serve(&csr, &b).unwrap();
        assert!(!miss.hit && hit.hit, "seed {seed}");
        assert_eq!(bits(&miss.result), bits(&want), "cold serve, seed {seed}");
        assert_eq!(bits(&hit.result), bits(&want), "hit serve, seed {seed}");
    }
    let s = engine.stats();
    assert_eq!((s.hits, s.misses), (24, 24));
}

#[test]
fn hit_matches_cold_run_under_atomics_within_tolerance() {
    // Multi-partition plans accumulate through atomics; order varies
    // run-to-run, so the property is tight numeric agreement.
    let planner = FixedCellPlanner::tuned(4);
    let engine = ServeEngine::new(planner, ServeConfig::default());
    for seed in 100..116u64 {
        let (csr, b) = random_case(seed);
        let want = csr.spmm_reference(&b).unwrap();
        let miss = engine.serve(&csr, &b).unwrap();
        let hit = engine.serve(&csr, &b).unwrap();
        assert!(!miss.hit && hit.hit, "seed {seed}");
        assert!(miss.result.approx_eq(&want, 1e-9), "seed {seed}");
        assert!(hit.result.approx_eq(&want, 1e-9), "seed {seed}");
    }
}

#[test]
fn eviction_and_readmission_cycle_preserves_results_bitwise() {
    let planner = FixedCellPlanner::natural(1);
    // Same-shape matrices so both plans have comparable footprints and a
    // ~one-plan budget forces B's admission to evict A.
    let fixed_case = |seed: u64| {
        let mut rng = Pcg32::seed_from_u64(seed);
        let csr: CsrMatrix<f64> =
            CsrMatrix::from_coo(&lf_sparse::gen::mixed_regions(200, 200, 3000, 4, &mut rng));
        let b = DenseMatrix::random(200, 8, &mut rng);
        (csr, b)
    };
    let (csr_a, b_a) = fixed_case(7);
    // Probe the plan footprint so the budget holds roughly one plan.
    let probe = ServeEngine::new(planner.clone(), ServeConfig::default());
    probe.serve(&csr_a, &b_a).unwrap();
    let plan_bytes = probe.stats().cached_bytes;
    assert!(plan_bytes > 0);

    let engine = ServeEngine::new(
        planner,
        ServeConfig {
            shards: 1,
            byte_budget: plan_bytes + plan_bytes / 4,
            ..ServeConfig::default()
        },
    );
    let (csr_b, b_b) = fixed_case(8);

    let first = engine.serve(&csr_a, &b_a).unwrap();
    assert!(!first.hit);
    let hit = engine.serve(&csr_a, &b_a).unwrap();
    assert!(hit.hit);
    assert_eq!(bits(&first.result), bits(&hit.result));

    // B's admission evicts A (budget fits ~one plan)...
    engine.serve(&csr_b, &b_b).unwrap();
    let s = engine.stats();
    assert!(s.evictions >= 1, "evictions: {}", s.evictions);

    // ...and A's re-admission recomposes to the exact same answer.
    let readmitted = engine.serve(&csr_a, &b_a).unwrap();
    assert!(!readmitted.hit, "A must have been evicted");
    assert_eq!(
        bits(&readmitted.result),
        bits(&first.result),
        "re-admitted plan must reproduce the original bits"
    );
    let rehit = engine.serve(&csr_a, &b_a).unwrap();
    assert!(rehit.hit);
    assert_eq!(bits(&rehit.result), bits(&first.result));
}

#[test]
fn hits_never_change_results_across_many_interleavings() {
    // Interleave three matrices through a cache big enough for all,
    // asserting every serve of the same (matrix, B) yields the same bits
    // as its first serve (deterministic regime).
    let engine = ServeEngine::new(FixedCellPlanner::natural(1), ServeConfig::default());
    let cases: Vec<_> = (50..53u64).map(random_case).collect();
    let first: Vec<Vec<u64>> = cases
        .iter()
        .map(|(csr, b)| bits(&engine.serve(csr, b).unwrap().result))
        .collect();
    let mut rng = Pcg32::seed_from_u64(1234);
    for _ in 0..30 {
        let i = rng.usize_in(0, cases.len());
        let (csr, b) = &cases[i];
        let out = engine.serve(csr, b).unwrap();
        assert!(out.hit);
        assert_eq!(bits(&out.result), first[i]);
    }
    let s = engine.stats();
    assert_eq!(s.misses, 3);
    assert_eq!(s.hits, 30);
    assert_eq!(s.requests(), 33);
}
