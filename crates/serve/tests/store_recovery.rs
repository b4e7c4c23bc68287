//! Crash-recovery tier for the tiered plan store (DESIGN.md §13).
//!
//! The contract under test: **after any crash, restart, or on-disk
//! corruption, the engine never serves wrong bytes.** Every result
//! served through a warmed, promoted, or recovered plan must be
//! bitwise identical to a fresh compose; records that fail strict
//! validation are skipped, counted, and recomposed — never served.
//!
//! The kill-point scenarios (mid-demotion, mid-warm, demotions queued) are
//! driven by seeded `lf_check::chaos` injection and compile only with
//! `--features chaos`; the rest of the suite runs in tier 1. The chaos
//! plan is process-global, so every test here serializes on one gate.

use lf_serve::Fingerprint;
use lf_serve::{
    FixedCellPlanner, Placement, PlanStore, Planner, ServeConfig, ServeEngine, StoreConfig,
};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{LfError, LfResult, PreparedPlan, PreprocessProfile};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes every test in this binary: the chaos plan (and nothing
/// else) is process-global, and the cheapest correct thing is to never
/// run two scenarios concurrently.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn matrix(seed: u64) -> CsrMatrix<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    CsrMatrix::from_coo(&mixed_regions(128, 128, 2500, 4, &mut rng))
}

/// Bytes of a v4 record header covered by its CRC: magic, version, the
/// seven fingerprint words, `j`, `cost_ns` and the blob length.
const HEADER_BODY: usize = 86;

/// A fresh scratch directory under the target-adjacent temp root.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lf-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    }
}

fn engine(config: ServeConfig) -> ServeEngine<f64, FixedCellPlanner> {
    ServeEngine::new(FixedCellPlanner::tuned(4), config)
}

/// Size of one cached plan for these matrices, measured once.
fn plan_bytes() -> usize {
    let probe = engine(ServeConfig::default());
    let mut rng = Pcg32::seed_from_u64(0x5123);
    let b = DenseMatrix::random(128, 8, &mut rng);
    probe.serve(&matrix(900), &b).unwrap();
    probe.stats().cached_bytes
}

/// Assert the record `dir` holds for `(a, j = 8)` — read through a fresh
/// store handle, so it passes full validation — is bitwise the plan a
/// fresh compose builds.
///
/// Multi-partition CELL buckets flush through atomics in pool scheduling
/// order, so two runs of one plan agree only to rounding: this suite
/// checks its bitwise guarantees on plans, and served products against
/// the reference at 1e-9.
fn assert_stored_plan_is_fresh(dir: &Path, a: &CsrMatrix<f64>, what: &str) {
    let store: PlanStore<f64> = PlanStore::open(StoreConfig {
        dir: dir.to_path_buf(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .unwrap();
    let (stored, _) = store
        .get(&Fingerprint::of_csr(a), 8)
        .unwrap()
        .unwrap_or_else(|| panic!("{what}: no record on disk"));
    let fresh = Planner::<f64>::prepare(&FixedCellPlanner::tuned(4), a, 8).unwrap();
    assert!(stored.cell().is_some(), "{what}: a CELL plan");
    assert_eq!(
        stored.cell(),
        fresh.cell(),
        "{what}: stored plan differs from a fresh compose"
    );
}

/// Assert a served product matches the reference.
fn assert_reference(got: &DenseMatrix<f64>, a: &CsrMatrix<f64>, b: &DenseMatrix<f64>, what: &str) {
    let want = a.spmm_reference(b).unwrap();
    assert!(got.approx_eq(&want, 1e-9), "{what}: wrong product");
}

#[test]
fn snapshot_then_restart_serves_identical_bits_from_a_warm_cache() {
    let _g = locked();
    let dir = scratch("restart");
    let mut rng = Pcg32::seed_from_u64(0xA11CE);
    let b = DenseMatrix::random(128, 8, &mut rng);

    let seeds = [1u64, 2, 3, 4];
    {
        let a_engine = engine(store_config(&dir));
        for &s in &seeds {
            assert!(!a_engine.serve(&matrix(s), &b).unwrap().hit);
        }
        let written = a_engine.snapshot().unwrap();
        assert_eq!(written, seeds.len(), "every cached plan is snapshot");
        assert!(a_engine.stats().store_bytes > 0);
    } // process "dies" here

    let b_engine = engine(store_config(&dir));
    let s = b_engine.stats();
    assert_eq!(
        s.warm_loaded as usize,
        seeds.len(),
        "restart warms every snapshot record: {s:?}"
    );
    assert_eq!(s.warm_rejected, 0, "{s:?}");
    for &seed in &seeds {
        let a = matrix(seed);
        let out = b_engine.serve(&a, &b).unwrap();
        assert!(out.hit, "warmed plan must hit without recomposing");
        assert!(out.compose.is_none());
        assert_reference(&out.result, &a, &b, &format!("seed {seed}"));
    }
    let s = b_engine.stats();
    assert_eq!(s.hits as usize, seeds.len());
    assert_eq!(s.misses, 0, "no request recomposed after warm: {s:?}");
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed
    );
    // Write the warmed plans back: each is bitwise the plan its own
    // cold compose builds.
    assert_eq!(b_engine.snapshot().unwrap(), seeds.len());
    for &seed in &seeds {
        assert_stored_plan_is_fresh(&dir, &matrix(seed), &format!("seed {seed}"));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn demoted_then_promoted_plan_is_bitwise_identical_to_its_pre_demotion_self() {
    let _g = locked();
    let dir = scratch("demote-promote");
    let plan_bytes = plan_bytes();
    // One shard, room for ~1.5 plans: the second matrix demotes the
    // first to disk; re-requesting the first promotes it back.
    let e = engine(ServeConfig {
        shards: 1,
        byte_budget: plan_bytes + plan_bytes / 2,
        ..store_config(&dir)
    });
    let mut rng = Pcg32::seed_from_u64(0xBEEF);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let (m1, m2) = (matrix(10), matrix(11));

    assert!(!e.serve(&m1, &b).unwrap().hit);
    assert!(!e.serve(&m2, &b).unwrap().hit);
    e.flush_demotions();
    let s = e.stats();
    assert!(s.evictions >= 1, "{s:?}");
    assert_eq!(s.demotions, s.evictions, "every eviction demoted: {s:?}");
    assert_eq!(s.evicted_bytes, 0, "no bytes dropped on the floor: {s:?}");

    let after = e.serve(&m1, &b).unwrap();
    assert!(after.hit, "promotion counts as a hit");
    assert!(after.compose.is_none(), "promotion does not recompose");
    assert_reference(&after.result, &m1, &b, "promoted plan");
    let s = e.stats();
    assert_eq!(s.disk_hits, 1, "{s:?}");
    assert_eq!(s.promotions, 1, "{s:?}");
    assert_eq!(s.warm_rejected, 0, "{s:?}");
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed
    );
    // The promoted plan, written back, is bitwise its pre-demotion self.
    e.snapshot().unwrap();
    assert_stored_plan_is_fresh(&dir, &m1, "demote→promote round trip");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn plans_over_stored_zeros_promote_from_disk() {
    let _g = locked();
    let dir = scratch("stored-zeros");
    let plan_bytes = plan_bytes();
    let e = engine(ServeConfig {
        shards: 1,
        byte_budget: plan_bytes + plan_bytes / 2,
        ..store_config(&dir)
    });
    // A valid CSR may store explicit zeros; the plan keeps them, so the
    // store's fingerprint re-check must see them again after decoding.
    let base = matrix(12);
    let values = base
        .values()
        .iter()
        .enumerate()
        .map(|(k, &v)| if k % 5 == 0 { 0.0 } else { v })
        .collect();
    let m1 = CsrMatrix::from_raw(
        base.rows(),
        base.cols(),
        base.row_ptr().to_vec(),
        base.col_ind().to_vec(),
        values,
    )
    .unwrap();
    let mut rng = Pcg32::seed_from_u64(0x2E205);
    let b = DenseMatrix::random(128, 8, &mut rng);

    assert!(!e.serve(&m1, &b).unwrap().hit);
    assert!(!e.serve(&matrix(13), &b).unwrap().hit);
    e.flush_demotions();
    assert!(e.stats().demotions >= 1, "{:?}", e.stats());

    let after = e.serve(&m1, &b).unwrap();
    let s = e.stats();
    assert_eq!(s.warm_rejected, 0, "a valid record was rejected: {s:?}");
    assert_eq!(s.disk_hits, 1, "{s:?}");
    assert!(
        after.hit && after.compose.is_none(),
        "promoted, not recomposed"
    );
    let want = m1.spmm_reference(&b).unwrap();
    let bits = |m: &DenseMatrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&after.result), bits(&want), "promoted plan diverged");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn without_a_store_evicted_bytes_are_counted_as_dropped() {
    let _g = locked();
    let plan_bytes = plan_bytes();
    let e = engine(ServeConfig {
        shards: 1,
        byte_budget: plan_bytes + plan_bytes / 2,
        ..ServeConfig::default() // no store_dir
    });
    let mut rng = Pcg32::seed_from_u64(0xD00F);
    let b = DenseMatrix::random(128, 8, &mut rng);
    e.serve(&matrix(20), &b).unwrap();
    e.serve(&matrix(21), &b).unwrap();
    let s = e.stats();
    assert!(s.evictions >= 1, "{s:?}");
    assert_eq!(s.demotions, 0, "no disk tier to demote to: {s:?}");
    assert!(
        s.evicted_bytes as usize >= plan_bytes / 2,
        "dropped bytes must be charged: {s:?}"
    );
    assert_eq!(s.store_bytes, 0);
}

/// Plans fixed CSR for one matrix and CELL for every other. The CSR plan
/// is handed back holding a copy of its operand; the engine caches its
/// verdict.
struct SplitPlanner {
    csr: Fingerprint,
}

impl Planner<f64> for SplitPlanner {
    fn prepare(&self, a: &CsrMatrix<f64>, j: usize) -> LfResult<PreparedPlan<f64>> {
        if Fingerprint::of_csr(a) == self.csr {
            Ok(PreparedPlan::from_csr(a.clone(), PreprocessProfile::default()).with_tuned_j(j))
        } else {
            Planner::<f64>::prepare(&FixedCellPlanner::tuned(4), a, j)
        }
    }
}

#[test]
fn evicted_csr_plans_are_dropped_and_cell_plans_demoted() {
    let _g = locked();
    for (placement, name) in [
        (Placement::CostAware, "csr-dropped-cost"),
        (Placement::LruBytes, "csr-dropped-lru"),
    ] {
        csr_plans_are_dropped_under(placement, &scratch(name));
    }
}

fn csr_plans_are_dropped_under(placement: Placement, dir: &Path) {
    let config = || ServeConfig {
        placement,
        ..store_config(dir)
    };
    let (c, l) = (matrix(14), matrix(15));
    let (fc, fl) = (Fingerprint::of_csr(&c), Fingerprint::of_csr(&l));
    let planner = || SplitPlanner { csr: fc };
    let cell_plan = planner().prepare(&l, 8).unwrap();
    assert!(cell_plan.uses_cell());
    // One shard with room for the CELL plan alone: each admission evicts
    // the other plan.
    let e = ServeEngine::new(
        planner(),
        ServeConfig {
            shards: 1,
            byte_budget: cell_plan.format_bytes(),
            ..config()
        },
    );
    let mut rng = Pcg32::seed_from_u64(0xC5C5);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let bits = |m: &DenseMatrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let reference = |a: &CsrMatrix<f64>| bits(&a.spmm_reference(&b).unwrap());
    let on_disk = |fp: &Fingerprint| {
        let store: PlanStore<f64> = PlanStore::open(StoreConfig {
            dir: dir.to_path_buf(),
            disk_budget_bytes: 0,
            placement,
        })
        .unwrap();
        store.get(fp, 8).unwrap().is_some()
    };

    assert!(!e.serve(&c, &b).unwrap().hit);
    // The CSR plan is charged as its verdict: a few bytes, no operand.
    let csr_bytes = e.stats().cached_bytes;
    assert!(csr_bytes > 0 && csr_bytes < c.memory_bytes() / 100);
    assert!(!e.serve(&l, &b).unwrap().hit); // evicts the CSR plan
    e.flush_demotions();
    let s = e.stats();
    assert_eq!((s.evictions, s.demotions), (1, 0), "{s:?}");
    assert_eq!(s.evicted_bytes as usize, csr_bytes, "{s:?}");
    assert!(!on_disk(&fc), "an evicted CSR plan leaves no record");

    // The CSR key's next serve recomposes; it evicts the CELL plan.
    let again = e.serve(&c, &b).unwrap();
    assert!(
        !again.hit && again.compose.is_some(),
        "a miss, not a disk hit"
    );
    assert_eq!(bits(&again.result), reference(&c), "recomposed CSR plan");
    e.flush_demotions();
    let s = e.stats();
    assert_eq!((s.evictions, s.demotions), (2, 1), "{s:?}");
    assert_eq!(s.evicted_bytes as usize, csr_bytes, "{s:?}");
    assert!(on_disk(&fl), "an evicted CELL plan is demoted");

    // The CELL key comes back from disk; its admission drops the CSR plan.
    let back = e.serve(&l, &b).unwrap();
    assert!(back.hit && back.compose.is_none(), "a disk hit");
    assert_eq!(bits(&back.result), reference(&l), "promoted CELL plan");
    e.flush_demotions();
    let s = e.stats();
    assert_eq!((s.disk_hits, s.promotions), (1, 1), "{s:?}");
    assert_eq!((s.evictions, s.demotions), (3, 1), "{s:?}");
    assert_eq!(s.evicted_bytes as usize, 2 * csr_bytes, "{s:?}");
    assert!(!on_disk(&fc), "still no CSR record");

    // A snapshot writes the RAM tier's CELL plans: the resident CSR
    // verdict is skipped.
    assert!(!e.serve(&c, &b).unwrap().hit);
    assert_eq!(e.snapshot().unwrap(), 0);
    assert!(!on_disk(&fc), "snapshot writes no CSR record");
    let s = e.stats();
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed
    );
    drop(e);

    // A reopen warms the CELL record; the CSR key recomposes.
    let e = ServeEngine::new(planner(), config());
    assert_eq!(e.stats().warm_loaded, 1, "{:?}", e.stats());
    let out = e.serve(&l, &b).unwrap();
    assert!(
        out.hit && out.compose.is_none(),
        "warm CELL plan: a warm hit"
    );
    assert_eq!(bits(&out.result), reference(&l), "warm CELL plan");
    let out = e.serve(&c, &b).unwrap();
    assert!(!out.hit && out.compose.is_some(), "CSR plan: a miss");
    assert_eq!(bits(&out.result), reference(&c), "recomposed CSR plan");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn corrupted_records_are_rejected_counted_and_recomposed_never_served() {
    let _g = locked();
    let mut rng = Pcg32::seed_from_u64(0xC0FE);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let a = matrix(30);
    let want = a.spmm_reference(&b).unwrap();

    // Three corruption modes, each against a fresh snapshot.
    enum Mode {
        FlipPayload,
        Truncate,
        FlipHeader,
    }
    for (i, mode) in [Mode::FlipPayload, Mode::Truncate, Mode::FlipHeader]
        .into_iter()
        .enumerate()
    {
        let dir = scratch(&format!("corrupt-{i}"));
        {
            let writer = engine(store_config(&dir));
            writer.serve(&a, &b).unwrap();
            assert_eq!(writer.snapshot().unwrap(), 1);
        }
        let record = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "lfp"))
            .expect("snapshot wrote a record");
        let mut bytes = fs::read(&record).unwrap();
        let mid = bytes.len() / 2;
        match mode {
            Mode::FlipPayload => bytes[mid] ^= 0x10,
            Mode::Truncate => bytes.truncate(bytes.len() / 3),
            Mode::FlipHeader => bytes[0] ^= 0xff,
        }
        fs::write(&record, &bytes).unwrap();

        let reader = engine(store_config(&dir));
        let s = reader.stats();
        assert_eq!(s.warm_loaded, 0, "mode {i}: corrupt record warmed: {s:?}");
        assert_eq!(
            s.warm_rejected, 1,
            "mode {i}: rejection must be counted: {s:?}"
        );
        assert!(
            !record.exists(),
            "mode {i}: rejected record must be deleted"
        );
        // The matrix still serves — by fresh compose, with right bits.
        let out = reader.serve(&a, &b).unwrap();
        assert!(!out.hit, "mode {i}: nothing cached to hit");
        assert!(out.result.approx_eq(&want, 1e-9), "mode {i}: wrong bytes");
        let s = reader.stats();
        assert_eq!(s.disk_hits, 0, "mode {i}: {s:?}");
        assert_eq!(
            s.requests(),
            s.hits + s.misses + s.rejected + s.degraded + s.failed
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn records_from_an_older_store_version_are_refused_and_deleted() {
    let _g = locked();
    let dir = scratch("old-version");
    let mut rng = Pcg32::seed_from_u64(0x0D3E);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let a = matrix(31);
    {
        let writer = engine(store_config(&dir));
        writer.serve(&a, &b).unwrap();
        assert_eq!(writer.snapshot().unwrap(), 1);
    }
    let record = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "lfp"))
        .expect("snapshot wrote a record");
    // Rewrite the version field (after the 4-byte magic) to 3 and
    // re-seal the header CRC (over the 86 header bytes before it), so
    // the version is the record's only defect: a v3 record, whose CRC
    // covered the whole record.
    let mut bytes = fs::read(&record).unwrap();
    assert_eq!(&bytes[..4], b"LFPR");
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 4);
    bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
    let crc = liteform_core::codec::crc32(&bytes[..HEADER_BODY]);
    bytes[HEADER_BODY..HEADER_BODY + 4].copy_from_slice(&crc.to_le_bytes());
    fs::write(&record, &bytes).unwrap();

    let reader = engine(store_config(&dir));
    let s = reader.stats();
    assert_eq!(s.warm_loaded, 0, "a v3 record must not warm: {s:?}");
    assert!(!record.exists(), "the refused record is deleted");
    let out = reader.serve(&a, &b).unwrap();
    assert!(!out.hit, "nothing may be served from the v3 record");
    let s = reader.stats();
    assert_eq!(s.disk_hits, 0, "{s:?}");
    let bits = |m: &DenseMatrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&out.result),
        bits(&a.spmm_reference(&b).unwrap()),
        "the recomposed plan serves the reference bits"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_fingerprint_records_are_rejected_at_the_store() {
    let _g = locked();
    let dir = scratch("stale-fp");
    let store: PlanStore<f64> = PlanStore::open(StoreConfig {
        dir: dir.clone(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .unwrap();
    // A plan for matrix X filed under matrix Y's fingerprint: both CRCs
    // pass (the bytes are honest), but the fingerprint re-check must
    // catch the mismatch — this is the "stale record after the matrix
    // changed" case.
    let x = matrix(40);
    let y = matrix(41);
    let plan = PreparedPlan::from_csr(x, PreprocessProfile::default()).with_tuned_j(8);
    let fp_y = Fingerprint::of_csr(&y);
    store.put(&fp_y, 8, &plan, 1_000, 0).unwrap();
    let err = store.get(&fp_y, 8).unwrap_err();
    assert!(matches!(err, LfError::PlanDecode(_)), "{err}");
    assert!(err.to_string().contains("stale fingerprint"), "{err}");
    // Rejection is terminal: the record is gone, the next get misses.
    assert!(store.get(&fp_y, 8).unwrap().is_none());
    assert_eq!(store.records(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn disk_budget_evicts_by_placement_score() {
    let _g = locked();
    let dir = scratch("disk-budget");
    let plan = PreparedPlan::from_csr(matrix(50), PreprocessProfile::default()).with_tuned_j(8);
    let one_record = {
        let probe: PlanStore<f64> = PlanStore::open(StoreConfig {
            dir: dir.clone(),
            disk_budget_bytes: 0,
            placement: Placement::CostAware,
        })
        .unwrap();
        let fp = Fingerprint::of_csr(&matrix(50));
        probe.put(&fp, 8, &plan, 1, 0).unwrap();
        let b = probe.bytes() as usize;
        let _ = fs::remove_dir_all(&dir);
        b
    };
    let store: PlanStore<f64> = PlanStore::open(StoreConfig {
        dir: dir.clone(),
        disk_budget_bytes: one_record * 2 + one_record / 2,
        placement: Placement::CostAware,
    })
    .unwrap();
    // Three equal-size records with very different recompose value: the
    // cheap one must be the eviction victim.
    let m = matrix(50);
    let fp_a = Fingerprint::of_csr(&matrix(51));
    let fp_b = Fingerprint::of_csr(&matrix(52));
    let fp_c = Fingerprint::of_csr(&matrix(53));
    let plan = PreparedPlan::from_csr(m, PreprocessProfile::default()).with_tuned_j(8);
    store.put(&fp_a, 8, &plan, 50_000_000, 9).unwrap(); // hot + dear
    store.put(&fp_b, 8, &plan, 10, 0).unwrap(); // cheap throwaway
    store.put(&fp_c, 8, &plan, 40_000_000, 5).unwrap(); // forces eviction
    assert_eq!(store.records(), 2, "budget holds two records");
    assert!(store.bytes() as usize <= one_record * 2 + one_record / 2);
    // fp_b (cheap to recompose) was sacrificed; the dear ones survive.
    // Note get() runs the fingerprint re-check, which *fails* here by
    // construction (shared plan) — use the index instead.
    let kept: Vec<_> = store.warm_order().into_iter().map(|(k, _)| k.0).collect();
    assert!(kept.contains(&fp_a), "hot record evicted");
    assert!(kept.contains(&fp_c), "dear record evicted");
    assert!(!kept.contains(&fp_b), "cheap record must be the victim");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_puts_never_collide_on_temp_files() {
    let _g = locked();
    let dir = scratch("concurrent-puts");
    let store: PlanStore<f64> = PlanStore::open(StoreConfig {
        dir: dir.clone(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .unwrap();
    // Two writers put the same 200 small records: every record path is
    // written by both, concurrently, so only the per-write temp names
    // keep one writer from renaming the other's temp file away.
    const PER_THREAD: u64 = 200;
    let small = |seed: u64| {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::<f64>::from_coo(&mixed_regions(32, 32, 96, 2, &mut rng))
    };
    let errors: Vec<String> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let store = &store;
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .filter_map(|i| {
                            let m = small(0xC0_0000 + i);
                            let fp = Fingerprint::of_csr(&m);
                            let plan = PreparedPlan::from_csr(m, PreprocessProfile::default())
                                .with_tuned_j(8);
                            store.put(&fp, 8, &plan, 1_000, 0).err()
                        })
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(
        errors.is_empty(),
        "{} puts failed: {:?}",
        errors.len(),
        errors.first()
    );
    assert_eq!(store.records(), PER_THREAD as usize);
    drop(store);

    // Every record is on disk and passes full validation on warm.
    let e = engine(store_config(&dir));
    let s = e.stats();
    assert_eq!(s.warm_loaded, PER_THREAD, "{s:?}");
    assert_eq!(s.warm_rejected, 0, "{s:?}");
    let stray = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
    assert!(!stray, "no temp file outlives its write");
    drop(e);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_record_larger_than_the_disk_budget_is_refused_not_wiped_in() {
    let _g = locked();
    let dir = scratch("oversized-record");
    let open = |budget: usize| -> PlanStore<f64> {
        PlanStore::open(StoreConfig {
            dir: dir.clone(),
            disk_budget_bytes: budget,
            placement: Placement::CostAware,
        })
        .unwrap()
    };
    let small = |seed: u64| {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::<f64>::from_coo(&mixed_regions(32, 32, 96, 2, &mut rng))
    };
    let resident = {
        let store = open(0);
        for seed in [1u64, 2] {
            let m = small(seed);
            let fp = Fingerprint::of_csr(&m);
            let plan = PreparedPlan::from_csr(m, PreprocessProfile::default()).with_tuned_j(8);
            store.put(&fp, 8, &plan, 1_000, 0).unwrap();
        }
        store.bytes() as usize
    };
    // Room for the two small records, far less than one large one.
    let budget = resident + resident / 2;
    let store = open(budget);
    let big = matrix(55);
    let fp = Fingerprint::of_csr(&big);
    let plan = PreparedPlan::from_csr(big, PreprocessProfile::default()).with_tuned_j(8);
    let err = store.put(&fp, 8, &plan, 1_000, 0).unwrap_err();
    assert!(matches!(err, LfError::ResourceExhausted { .. }), "{err}");
    assert!(err.to_string().contains("disk budget"), "{err}");
    assert_eq!(store.records(), 2, "existing records survive");
    assert!(store.bytes() as usize <= budget);
    assert!(store.get(&fp, 8).unwrap().is_none());
    drop(store);

    let _ = fs::remove_dir_all(&dir);

    // Through the engine, every refused demotion counts as dropped bytes.
    let e = engine(ServeConfig {
        shards: 1,
        byte_budget: plan_bytes() * 3 / 2,
        disk_budget_bytes: budget,
        ..store_config(&dir)
    });
    let mut rng = Pcg32::seed_from_u64(0x0B16);
    let b = DenseMatrix::random(128, 8, &mut rng);
    for seed in 56..59u64 {
        e.serve(&matrix(seed), &b).unwrap();
    }
    e.flush_demotions();
    let s = e.stats();
    assert!(s.evictions >= 2, "{s:?}");
    assert_eq!(s.demotions, 0, "{s:?}");
    assert!(s.evicted_bytes > 0, "{s:?}");
    assert_eq!(s.store_bytes, 0, "{s:?}");
    drop(e);
    let _ = fs::remove_dir_all(&dir);
}

/// The record file a store writes for `(fp, j)`.
fn record_path(dir: &Path, fp: &Fingerprint, j: usize) -> PathBuf {
    dir.join(format!("p{:016x}-{j}.lfp", fp.digest()))
}

/// A store over `dir` with no disk budget and cost-aware placement.
fn open_store(dir: &Path) -> PlanStore<f64> {
    PlanStore::open(StoreConfig {
        dir: dir.to_path_buf(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .unwrap()
}

#[test]
fn a_v4_record_keeps_its_exact_layout_and_bytes() {
    let _g = locked();
    let dir = scratch("golden-v4");
    let m = CsrMatrix::<f64>::from_raw(
        4,
        5,
        vec![0, 2, 3, 3, 5],
        vec![0, 3, 1, 2, 4],
        vec![1.0, -2.0, 0.5, 4.0, 8.0],
    )
    .unwrap();
    let fp = Fingerprint::of_csr(&m);
    let plan = PreparedPlan::from_csr(m, PreprocessProfile::default()).with_tuned_j(8);
    let store = open_store(&dir);
    store.put(&fp, 8, &plan, 0x0123_4567, 0).unwrap();
    let bytes = fs::read(record_path(&dir, &fp, 8)).unwrap();

    // magic | version | fingerprint 7×u64 | j | cost_ns | blob_len |
    // header CRC over the 86 bytes before it | codec blob.
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert_eq!(&bytes[..4], b"LFPR");
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 4);
    let key = [
        fp.rows as u64,
        fp.cols as u64,
        fp.nnz as u64,
        fp.row_structure,
        fp.col_structure,
        fp.values,
        fp.epoch,
        8,
        0x0123_4567,
    ];
    for (k, want) in key.into_iter().enumerate() {
        assert_eq!(word(6 + 8 * k), want, "header word {k}");
    }
    let blob = liteform_core::codec::encode_plan(&plan).unwrap();
    assert_eq!(word(78), blob.len() as u64, "blob length");
    let header_crc = u32::from_le_bytes(bytes[HEADER_BODY..HEADER_BODY + 4].try_into().unwrap());
    assert_eq!(
        header_crc,
        liteform_core::codec::crc32(&bytes[..HEADER_BODY]),
        "the header CRC covers the header only"
    );
    assert_eq!(
        &bytes[HEADER_BODY + 4..],
        &blob[..],
        "the blob follows as encoded"
    );
    // Pinned: the header bytes (fingerprint hashes included) and the
    // record length must never move. The tile inside the blob follows
    // host calibration, so the blob is compared to its encoding above.
    assert_eq!((bytes.len(), header_crc), (263, 0x11d3_cb53));
    let (loaded, meta) = store.get(&fp, 8).unwrap().expect("the record loads");
    assert_eq!(loaded.reconstruct_csr(), plan.reconstruct_csr());
    assert_eq!((meta.bytes, meta.cost_ns, meta.uses), (263, 0x0123_4567, 1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_v4_header_and_blob_bytes_are_rejected_counted_and_deleted() {
    let _g = locked();
    let mut rng = Pcg32::seed_from_u64(0xF11B);
    let b = DenseMatrix::random(128, 8, &mut rng);
    let a = matrix(32);
    // Offsets into the record: a fingerprint hash, `j`, the blob
    // length, the header CRC itself, the blob's first byte, mid-blob,
    // and the blob's own CRC.
    let offsets = |len: usize| {
        [
            30,
            64,
            80,
            HEADER_BODY + 1,
            HEADER_BODY + 4,
            (HEADER_BODY + len) / 2,
            len - 2,
        ]
    };
    for case in 0..7 {
        let dir = scratch(&format!("flip-v4-{case}"));
        {
            let writer = engine(store_config(&dir));
            writer.serve(&a, &b).unwrap();
            assert_eq!(writer.snapshot().unwrap(), 1);
        }
        let record = record_path(&dir, &Fingerprint::of_csr(&a), 8);
        let mut bytes = fs::read(&record).unwrap();
        let at = offsets(bytes.len())[case];
        bytes[at] ^= 0x08;
        fs::write(&record, &bytes).unwrap();

        let reader = engine(store_config(&dir));
        let s = reader.stats();
        assert_eq!(
            s.warm_loaded, 0,
            "byte {at}: a flipped record warmed: {s:?}"
        );
        assert_eq!(s.warm_rejected, 1, "byte {at}: not counted: {s:?}");
        assert!(!record.exists(), "byte {at}: the record must be deleted");
        let out = reader.serve(&a, &b).unwrap();
        assert!(!out.hit, "byte {at}: nothing cached to hit");
        assert_reference(&out.result, &a, &b, &format!("byte {at}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Copy every file of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap().flatten() {
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The record files in `dir`, sorted.
fn record_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".lfp"))
        .collect();
    names.sort();
    names
}

/// What a warm left behind at the store level: the keys settled as
/// loaded, in order; the rejections; every record's metadata in warm
/// order (the recency ticks record the settle order); the files.
type WarmTrace = (
    Vec<Fingerprint>,
    usize,
    Vec<((Fingerprint, usize), lf_serve::RecordMeta)>,
    Vec<String>,
);

#[test]
fn wave_parallel_warm_matches_one_at_a_time_loading() {
    let _g = locked();
    let dir = scratch("warm-waves");
    let waves = lf_sim::parallel::default_workers();
    // Records of distinct sizes and costs, so the warm order is fixed.
    let n = 3 * waves + 2;
    let mats: Vec<CsrMatrix<f64>> = (0..n)
        .map(|k| {
            let mut rng = Pcg32::seed_from_u64(80 + k as u64);
            CsrMatrix::from_coo(&mixed_regions(128, 128, 1500 + 150 * k, 4, &mut rng))
        })
        .collect();
    let plans: Vec<PreparedPlan<f64>> = mats
        .iter()
        .map(|m| Planner::<f64>::prepare(&FixedCellPlanner::tuned(4), m, 8).unwrap())
        .collect();
    let fps: Vec<Fingerprint> = mats.iter().map(Fingerprint::of_csr).collect();
    {
        let store = open_store(&dir);
        for (k, (fp, plan)) in fps.iter().zip(&plans).enumerate() {
            assert!(plan.uses_cell());
            store
                .put(fp, 8, plan, (n - k) as u64 * 1_000_000, 0)
                .unwrap();
        }
    }
    // Matrix indices in the order a restart warms them.
    let warm_order = open_store(&dir).warm_order();
    let order: Vec<usize> = warm_order
        .iter()
        .map(|((fp, _), _)| fps.iter().position(|f| f == fp).unwrap())
        .collect();
    let sizes: std::collections::BTreeSet<u64> =
        warm_order.iter().map(|(_, meta)| meta.bytes).collect();
    assert_eq!(sizes.len(), n, "distinct record sizes");
    // The record at warm position 1 is corrupt (mid-wave, before the
    // cut). The budget holds the valid plans at positions 0..=2·waves,
    // so the cut falls right after position 2·waves (the first of its
    // wave); position 2·waves + 1, corrupt too, shares that wave past
    // the cut: it is decoded and refused, never settled.
    let (bad_early, bad_late) = (order[1], order[2 * waves + 1]);
    for k in [bad_early, bad_late] {
        let path = record_path(&dir, &fps[k], 8);
        let mut bytes = fs::read(&path).unwrap();
        let mid = (HEADER_BODY + bytes.len()) / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
    }
    let admitted: Vec<usize> = order[..=2 * waves]
        .iter()
        .copied()
        .filter(|&k| k != bad_early)
        .collect();
    let budget: usize = admitted.iter().map(|&k| plans[k].format_bytes()).sum();

    // One at a time: `get` in warm order until the budget is loaded.
    let one_at_a_time = |dir: &Path| -> WarmTrace {
        let store = open_store(dir);
        let (mut loaded, mut rejected, mut bytes) = (Vec::new(), 0, 0);
        for ((fp, j), _) in store.warm_order() {
            if bytes >= budget {
                break;
            }
            match store.get(&fp, j) {
                Ok(Some((plan, _))) => {
                    loaded.push(fp);
                    bytes += plan.format_bytes();
                }
                Ok(None) => {}
                Err(_) => rejected += 1,
            }
        }
        (loaded, rejected, store.warm_order(), record_files(dir))
    };
    // In waves: `warm_loads`, settled in order, as the engine warms.
    let in_waves = |dir: &Path| -> WarmTrace {
        let store = open_store(dir);
        let (mut loaded, mut rejected, mut bytes) = (Vec::new(), 0, 0);
        let mut loads = store.warm_loads();
        while bytes < budget {
            let Some(((fp, j), load)) = loads.next() else {
                break;
            };
            match store.settle(&fp, j, load) {
                Ok(Some((plan, _))) => {
                    loaded.push(fp);
                    bytes += plan.format_bytes();
                }
                Ok(None) => {}
                Err(_) => rejected += 1,
            }
        }
        (loaded, rejected, store.warm_order(), record_files(dir))
    };
    let (seq_dir, wave_dir, engine_dir) = (
        scratch("warm-waves-seq"),
        scratch("warm-waves-par"),
        scratch("warm-waves-engine"),
    );
    for d in [&seq_dir, &wave_dir, &engine_dir] {
        copy_dir(&dir, d);
    }
    let want = one_at_a_time(&seq_dir);
    let got = in_waves(&wave_dir);
    let admitted_fps: Vec<Fingerprint> = admitted.iter().map(|&k| fps[k]).collect();
    assert_eq!(want.0, admitted_fps, "the reference loads up to the cut");
    assert_eq!(want.1, 1, "the reference rejects the early corrupt record");
    assert_eq!(got.0, want.0, "same records admitted, in the same order");
    assert_eq!(got.1, want.1, "same rejections");
    assert_eq!(got.2, want.2, "same metadata: uses and recency ticks");
    assert_eq!(got.3, want.3, "same files left on disk");
    let late = record_path(&wave_dir, &fps[bad_late], 8);
    assert!(
        late.exists(),
        "a corrupt record past the cut is not deleted"
    );
    assert!(!record_path(&wave_dir, &fps[bad_early], 8).exists());

    // The engine's warm gives the same counts and RAM contents.
    let e = engine(ServeConfig {
        shards: 1,
        byte_budget: budget,
        ..store_config(&engine_dir)
    });
    let s = e.stats();
    assert_eq!(s.warm_loaded as usize, want.0.len(), "{s:?}");
    assert_eq!(s.warm_rejected as usize, want.1, "{s:?}");
    assert_eq!(s.cached_bytes, budget, "{s:?}");
    assert_eq!(record_files(&engine_dir), want.3, "same files left on disk");
    let mut rng = Pcg32::seed_from_u64(0x3A4E);
    let b = DenseMatrix::random(128, 8, &mut rng);
    for &k in &admitted {
        let out = e.serve(&mats[k], &b).unwrap();
        assert!(out.hit, "record {k} was warmed into RAM");
        assert_reference(&out.result, &mats[k], &b, &format!("warmed record {k}"));
    }
    assert_eq!(e.stats().disk_hits, 0, "every warmed plan is a RAM hit");
    drop(e);
    for d in [&dir, &seq_dir, &wave_dir, &engine_dir] {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn a_store_holds_only_records_and_a_restart_ranks_them_by_size() {
    let _g = locked();
    let dir = scratch("records-only");
    let mats: Vec<CsrMatrix<f64>> = (0..5)
        .map(|k| {
            let mut rng = Pcg32::seed_from_u64(0x0DD0 + k as u64);
            CsrMatrix::from_coo(&mixed_regions(128, 128, 1500 + 300 * k, 4, &mut rng))
        })
        .collect();
    let fps: Vec<Fingerprint> = mats.iter().map(Fingerprint::of_csr).collect();
    {
        // Distinct sizes, costs and uses: the bigger a record, the dearer
        // and the more used, so use counts and costs that outlived a
        // restart would turn the cost-aware warm order around.
        let store = open_store(&dir);
        for (k, (m, fp)) in mats.iter().zip(&fps).take(4).enumerate() {
            let plan = Planner::<f64>::prepare(&FixedCellPlanner::tuned(4), m, 8).unwrap();
            let (cost_ns, uses) = ((k as u64 + 1) * 10_000_000, 3 * k as u64);
            store.put(fp, 8, &plan, cost_ns, uses).unwrap();
        }
        store.remove(&fps[0], 8);
    }
    {
        let e = engine(store_config(&dir));
        assert_eq!(e.stats().warm_loaded, 3);
        let mut rng = Pcg32::seed_from_u64(0x0DD5);
        let b = DenseMatrix::random(128, 8, &mut rng);
        e.serve(&mats[4], &b).unwrap();
        assert_eq!(e.snapshot().unwrap(), 4);
    }
    let files: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(record_files(&dir).len(), 4, "{files:?}");
    assert_eq!(files.len(), 4, "the store holds only records: {files:?}");

    // A restart knows each record's size and nothing else: cost-aware
    // placement warms the smallest first.
    let mut want: Vec<((Fingerprint, usize), lf_serve::RecordMeta)> = fps[1..]
        .iter()
        .map(|fp| {
            let bytes = fs::metadata(record_path(&dir, fp, 8)).unwrap().len();
            let meta = lf_serve::RecordMeta {
                bytes,
                ..Default::default()
            };
            ((*fp, 8), meta)
        })
        .collect();
    want.sort_by_key(|(_, meta)| meta.bytes);
    assert!(
        want.windows(2).all(|w| w[0].1.bytes < w[1].1.bytes),
        "distinct record sizes"
    );
    assert_eq!(open_store(&dir).warm_order(), want);

    // A file that is not a record is ignored at open and left alone.
    let leftover = dir.join("manifest.lfm");
    fs::write(&leftover, b"LFPM: not a record").unwrap();
    let store = open_store(&dir);
    assert_eq!(store.records(), 4);
    assert_eq!(store.warm_order(), want);
    assert!(leftover.exists());
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Kill-point scenarios (chaos feature): a seeded fault tears the write
// at each durability boundary; recovery must come up clean and serve
// only right bytes.
// ---------------------------------------------------------------------

#[cfg(feature = "chaos")]
mod kill_points {
    use super::*;
    use lf_check::chaos::{self, ChaosPlan, ChaosSite};

    fn always(site: ChaosSite) -> ChaosPlan {
        ChaosPlan::disabled(0x5EED_4111).with_rate(site, 1000)
    }

    #[test]
    fn kill_mid_demotion_recovers_with_no_wrong_bytes() {
        let _g = locked();
        let dir = scratch("kill-demote");
        let plan_bytes = plan_bytes();
        let mut rng = Pcg32::seed_from_u64(0x1D1E);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (m1, m2) = (matrix(60), matrix(61));

        chaos::install(always(ChaosSite::DemoteTorn));
        {
            let e = engine(ServeConfig {
                shards: 1,
                byte_budget: plan_bytes + plan_bytes / 2,
                ..store_config(&dir)
            });
            e.serve(&m1, &b).unwrap();
            e.serve(&m2, &b).unwrap(); // evicts m1 → demotion tears
            e.flush_demotions();
            let s = e.stats();
            assert!(s.evictions >= 1, "{s:?}");
            assert_eq!(s.demotions, 0, "every demotion write was torn: {s:?}");
            assert!(s.evicted_bytes > 0, "torn demotions drop bytes: {s:?}");
        } // "kill"
        chaos::reset();

        // The torn temp file is on disk; recovery must sweep it and
        // never surface it as a record.
        let torn: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(!torn.is_empty(), "scenario must actually tear a write");

        let e = engine(store_config(&dir));
        let s = e.stats();
        assert_eq!(
            s.warm_rejected, 0,
            "torn temps are swept, not records: {s:?}"
        );
        let no_tmp = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .all(|e| !e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(no_tmp, "recovery sweeps torn temp files");
        let out = e.serve(&m1, &b).unwrap();
        assert_reference(&out.result, &m1, &b, "recovered engine");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_with_demotions_queued_loses_them_and_nothing_else() {
        let _g = locked();
        let dir = scratch("kill-queued");
        let plan_bytes = plan_bytes();
        let mut rng = Pcg32::seed_from_u64(0x4D4E);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (m1, m2) = (matrix(63), matrix(64));
        let bits =
            |m: &DenseMatrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let assert_bitwise = |got: &DenseMatrix<f64>, a: &CsrMatrix<f64>, what: &str| {
            assert_eq!(bits(got), bits(&a.spmm_reference(&b).unwrap()), "{what}");
        };

        chaos::install(always(ChaosSite::DemoteQueuedKill));
        {
            let e = engine(ServeConfig {
                shards: 1,
                byte_budget: plan_bytes + plan_bytes / 2,
                ..store_config(&dir)
            });
            e.serve(&m1, &b).unwrap();
            // Evicts m1 into the queue; the writer "dies" before writing it.
            e.serve(&m2, &b).unwrap();
            // m1 is still promotable from the queue, and its admission
            // evicts m2, which the full queue writes synchronously.
            let out = e.serve(&m1, &b).unwrap();
            assert!(out.hit, "queued plan must promote");
            assert_bitwise(&out.result, &m1, "queued promotion");
            e.flush_demotions(); // returns: no writer left to wait on
            let s = e.stats();
            assert_eq!((s.evictions, s.demotions), (2, 1), "{s:?}");
        } // "kill": the queued demotion of m1 is lost
        chaos::reset();
        assert!(chaos::injected(ChaosSite::DemoteQueuedKill) >= 1);

        let e = engine(store_config(&dir));
        let s = e.stats();
        assert_eq!(s.warm_rejected, 0, "{s:?}");
        assert_eq!(
            s.warm_loaded, 1,
            "only the written demotion survives: {s:?}"
        );
        let no_tmp = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .all(|e| !e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(no_tmp, "a kill with demotions queued leaves no temp file");
        let lost = e.serve(&m1, &b).unwrap();
        assert!(!lost.hit, "the queued demotion died with the process");
        assert_bitwise(&lost.result, &m1, "recomposed after the kill");
        let kept = e.serve(&m2, &b).unwrap();
        assert!(kept.hit, "the written demotion warmed");
        assert_bitwise(&kept.result, &m2, "warmed after the kill");
        drop(e);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_warm_leaves_a_partial_but_correct_cache() {
        let _g = locked();
        let dir = scratch("kill-warm");
        let mut rng = Pcg32::seed_from_u64(0x3D3E);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let seeds = [70u64, 71, 72];
        {
            let e = engine(store_config(&dir));
            for &s in &seeds {
                e.serve(&matrix(s), &b).unwrap();
            }
            assert_eq!(e.snapshot().unwrap(), seeds.len());
        }

        // Warm aborts immediately — the engine comes up cold.
        chaos::install(always(ChaosSite::WarmAbort));
        let e = engine(store_config(&dir));
        chaos::reset();
        let s = e.stats();
        assert_eq!(s.warm_loaded, 0, "warm was aborted: {s:?}");

        // Every request still lands on the right bytes: the disk tier
        // answers on the miss path (promotion), not just at warm.
        for &seed in &seeds {
            let out = e.serve(&matrix(seed), &b).unwrap();
            assert!(out.hit, "seed {seed}: disk promotion must hit");
            let what = format!("seed {seed}: promoted plan");
            assert_reference(&out.result, &matrix(seed), &b, &what);
            assert_stored_plan_is_fresh(&dir, &matrix(seed), &what);
        }
        let s = e.stats();
        assert_eq!(s.disk_hits as usize, seeds.len(), "{s:?}");
        assert_eq!(
            s.requests(),
            s.hits + s.misses + s.rejected + s.degraded + s.failed
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
