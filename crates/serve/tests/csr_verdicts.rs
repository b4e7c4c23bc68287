//! Fixed-CSR verdicts in the serving engine: a matrix the trained
//! selector keeps on CSR is cached as its decision alone — tile, tuned
//! width, features and epoch, no operand — and every execute runs over
//! the matrix the request carries. These suites hold the three things
//! that must follow: the RAM budget charges a verdict its own few bytes,
//! fused groups on a verdict keep their solo bits, and fixed-CSR records
//! an older engine wrote come back as verdicts.

use lf_serve::{
    Fingerprint, MatrixHandle, Placement, PlanStore, Planner, ServeConfig, ServeEngine, StoreConfig,
};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{LiteForm, ModelBundle, PreparedPlan, PreprocessProfile};
use std::fs;
use std::path::PathBuf;
use std::sync::Barrier;

const J: usize = 8;

/// The checked-in trained pipeline, the production planner.
fn pipeline() -> LiteForm {
    ModelBundle::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/liteform-models.json"
    ))
    .expect("checked-in model bundle must load")
    .into_liteform()
}

/// `k` matrices the trained selector keeps on fixed CSR at width `J`.
fn csr_selected(lf: &LiteForm, k: usize) -> Vec<CsrMatrix<f64>> {
    let found: Vec<CsrMatrix<f64>> = (0..64u64)
        .map(|seed| {
            let mut rng = Pcg32::seed_from_u64(0x5E1 + seed);
            CsrMatrix::from_coo(&mixed_regions(200, 200, 3000, 4, &mut rng))
        })
        .filter(|m| !lf.compose(m, J).uses_cell())
        .take(k)
        .collect();
    assert_eq!(found.len(), k, "the selector must keep {k} matrices on CSR");
    found
}

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_ledger_balances(e: &ServeEngine<f64, LiteForm>) {
    let s = e.stats();
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed,
        "{s:?}"
    );
}

#[test]
fn fixed_csr_entries_are_charged_their_real_size() {
    const K: usize = 6;
    let lf = pipeline();
    let mats = csr_selected(&lf, K);
    let verdict_bytes = PreparedPlan::csr_verdict(&mats[0], PreprocessProfile::default())
        .with_tuned_j(J)
        .format_bytes();
    for m in &mats {
        let plan = Planner::<f64>::prepare(&lf, m, J).unwrap();
        assert!(plan.is_verdict(), "the serving planner copies no operand");
        assert_eq!(plan.format_bytes(), verdict_bytes);
    }
    // One shard, with less room than the smallest operand: a plan that
    // held a copy of its matrix could never be cached here.
    let smallest = mats.iter().map(CsrMatrix::memory_bytes).min().unwrap();
    let e = ServeEngine::new(
        lf,
        ServeConfig {
            shards: 1,
            byte_budget: smallest - 1,
            ..ServeConfig::default()
        },
    );
    let mut rng = Pcg32::seed_from_u64(0xB0D);
    let bs: Vec<DenseMatrix<f64>> = mats
        .iter()
        .map(|m| DenseMatrix::random(m.cols(), J, &mut rng))
        .collect();
    for round in 0..2 {
        for (m, b) in mats.iter().zip(&bs) {
            let out = e.serve(m, b).unwrap();
            assert_eq!(out.hit, round == 1, "round {round}");
            assert_eq!(bits(&out.result), bits(&m.spmm_reference(b).unwrap()));
        }
    }
    let s = e.stats();
    assert_eq!((s.misses, s.hits), (K as u64, K as u64), "{s:?}");
    assert_eq!((s.evictions, s.oversized), (0, 0), "{s:?}");
    assert_eq!(s.cached_plans, K, "{s:?}");
    assert!(s.cached_bytes <= K * verdict_bytes, "{s:?}");
    assert_ledger_balances(&e);
}

#[test]
fn a_coalesced_group_on_a_verdict_matches_solo_runs() {
    // Eight barrier-synced requests on one CSR-selected handle: the
    // fused execute runs the verdict over the handle's matrix at the
    // summed width, and every member must keep its solo bits.
    let threads = 8usize;
    let lf = pipeline();
    let a = csr_selected(&lf, 1).remove(0);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let bs: Vec<DenseMatrix<f64>> = (0..threads)
        .map(|t| DenseMatrix::random(a.cols(), 6, &mut Pcg32::seed_from_u64(0xF00 + t as u64)))
        .collect();
    let batched = ServeEngine::new(
        lf.clone(),
        ServeConfig {
            batch_window_us: 100_000,
            max_batch_j: 256,
            ..ServeConfig::default()
        },
    );
    let solo = ServeEngine::new(lf, ServeConfig::default());
    let barrier = Barrier::new(threads);
    let outcomes: Vec<(usize, bool, Vec<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (batched, handle, b, barrier) = (&batched, &handle, &bs[t], &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let out = batched.serve_handle(handle, b).unwrap();
                    (t, out.batched, bits(&out.result))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (t, _, got) in &outcomes {
        let want = solo.serve_handle(&handle, &bs[*t]).unwrap();
        assert_eq!(got, &bits(&want.result), "thread {t}: fused bits diverged");
        assert_eq!(
            got,
            &bits(&a.spmm_reference(&bs[*t]).unwrap()),
            "thread {t}: not the reference bits"
        );
    }
    assert!(
        outcomes.iter().filter(|(_, batched, _)| *batched).count() >= 2,
        "the barrier storm must fuse at least one pair: {:?}",
        batched.stats()
    );
    let s = batched.stats();
    assert_eq!(s.hits + s.misses, threads as u64, "all clean: {s:?}");
    assert_ledger_balances(&batched);
}

#[test]
fn fixed_csr_records_warm_as_verdicts() {
    // Records an older engine wrote: fixed-CSR plans with their operand.
    let dir: PathBuf = std::env::temp_dir().join(format!("lf-verdict-warm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let lf = pipeline();
    let mats = csr_selected(&lf, 3);
    {
        let store: PlanStore<f64> = PlanStore::open(StoreConfig {
            dir: dir.clone(),
            disk_budget_bytes: 0,
            placement: Placement::CostAware,
        })
        .unwrap();
        for m in &mats {
            let plan =
                PreparedPlan::from_csr(m.clone(), PreprocessProfile::default()).with_tuned_j(J);
            store
                .put(&Fingerprint::of_csr(m), J, &plan, 1_000, 1)
                .unwrap();
        }
    }
    let e = ServeEngine::new(
        lf,
        ServeConfig {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        },
    );
    let verdict_bytes =
        PreparedPlan::csr_verdict(&mats[0], PreprocessProfile::default()).format_bytes();
    let s = e.stats();
    assert_eq!((s.warm_loaded, s.warm_rejected), (3, 0), "{s:?}");
    assert_eq!(
        s.cached_bytes,
        3 * verdict_bytes,
        "warmed without copies: {s:?}"
    );
    let mut rng = Pcg32::seed_from_u64(0xA4A);
    for m in &mats {
        let b = DenseMatrix::random(m.cols(), J, &mut rng);
        let out = e.serve(m, &b).unwrap();
        assert!(out.hit && out.compose.is_none(), "a warm hit");
        assert_eq!(bits(&out.result), bits(&m.spmm_reference(&b).unwrap()));
    }
    // A snapshot writes CELL plans only: the verdicts leave no record.
    assert_eq!(e.snapshot().unwrap(), 0);
    assert_ledger_balances(&e);
    drop(e);
    let _ = fs::remove_dir_all(&dir);
}
