//! Integration suite for same-fingerprint request coalescing
//! (DESIGN.md §11): concurrent requests on one matrix fuse into a
//! single wide execute, while every joiner keeps its own result bits,
//! its own ledger class, its own deadline, and its own rescue.

use lf_serve::{FixedCellPlanner, MatrixHandle, Planner, ServeConfig, ServeEngine};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{LfError, LfResult, PreparedPlan, PreprocessProfile};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn matrix(seed: u64, n: usize, nnz: usize) -> CsrMatrix<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    CsrMatrix::from_coo(&mixed_regions(n, n, nnz, 4, &mut rng))
}

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn batching_config(window_us: u64, max_batch_j: usize) -> ServeConfig {
    ServeConfig {
        batch_window_us: window_us,
        max_batch_j,
        ..ServeConfig::default()
    }
}

#[test]
fn coalesced_results_are_bitwise_identical_to_solo_serving() {
    // Eight barrier-synced same-handle requests against a batching
    // engine; a second engine with the window off serves the identical
    // operands solo. Single-partition CELL plans are single-writer, so
    // the fused execute must reproduce every solo bit.
    let n = 160;
    let threads = 8usize;
    let a = matrix(11, n, 3000);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let bs: Vec<DenseMatrix<f64>> = (0..threads)
        .map(|t| {
            let mut rng = Pcg32::seed_from_u64(0xB17 + t as u64);
            DenseMatrix::random(n, 6, &mut rng)
        })
        .collect();

    let batched = ServeEngine::new(FixedCellPlanner::natural(1), batching_config(100_000, 256));
    let solo = ServeEngine::new(FixedCellPlanner::natural(1), ServeConfig::default());
    let barrier = Barrier::new(threads);
    let outcomes: Vec<(usize, bool, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (batched, handle, b, barrier) = (&batched, &handle, &bs[t], &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let out = batched.serve_handle(handle, b).unwrap();
                    (t, out.batched, bits(&out.result))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, _, got) in &outcomes {
        let want = solo.serve_handle(&handle, &bs[*t]).unwrap();
        assert_eq!(
            got,
            &bits(&want.result),
            "thread {t}: batched bits diverged"
        );
    }
    let s = batched.stats();
    assert_eq!(s.requests(), threads as u64);
    assert_eq!(s.hits + s.misses, threads as u64, "all clean: {s:?}");
    assert!(s.batches >= 1, "the barrier storm must fuse: {s:?}");
    assert!(
        s.batched_requests >= 2 * s.batches,
        "every batch covers at least two members: {s:?}"
    );
    assert!(s.batch_wait_s > 0.0, "window wait must be metered: {s:?}");
    assert!(
        outcomes.iter().filter(|(_, batched, _)| *batched).count() >= 2,
        "at least one fused pair must report batched outcomes"
    );
}

#[test]
fn fused_multi_partition_members_are_bitwise_identical_to_solo_serving() {
    // Four column partitions flag every bucket `needs_atomic` in the GPU
    // model, yet the CPU row bands give each output row one writer that
    // sums in ascending column order. So a fused member must reproduce
    // its solo bits — and the reference's — even though the fused J=48
    // plan is tuned (bucket widths and all) at a different width than
    // the solo J=6 one.
    let n = 160;
    let threads = 8usize;
    let a = matrix(15, n, 3000);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let bs: Vec<DenseMatrix<f64>> = (0..threads)
        .map(|t| {
            let mut rng = Pcg32::seed_from_u64(0xC17 + t as u64);
            DenseMatrix::random(n, 6, &mut rng)
        })
        .collect();

    let batched = ServeEngine::new(FixedCellPlanner::tuned(4), batching_config(400_000, 48));
    let solo = ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default());
    let barrier = Barrier::new(threads);
    let outcomes: Vec<(usize, bool, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (batched, handle, b, barrier) = (&batched, &handle, &bs[t], &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let out = batched.serve_handle(handle, b).unwrap();
                    (t, out.batched, bits(&out.result))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
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
    let s = batched.stats();
    assert_eq!(s.hits + s.misses, threads as u64, "all clean: {s:?}");
    assert!(
        outcomes.iter().filter(|(_, batched, _)| *batched).count() >= 2,
        "the barrier storm must fuse at least one pair: {s:?}"
    );
}

#[test]
fn zero_and_one_width_joiners_ride_along() {
    // J=0 and J=1 members are legal joiners: they cost (almost) nothing
    // in the fused operand and must come back with exactly their own
    // column count. The window is generous and uncapped so all three
    // requests land in one group.
    let n = 96;
    let a = matrix(12, n, 1500);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let widths = [8usize, 0, 1];
    let engine = ServeEngine::new(FixedCellPlanner::natural(1), batching_config(400_000, 256));
    let barrier = Barrier::new(widths.len());
    let results: Vec<(usize, DenseMatrix<f64>, DenseMatrix<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = widths
            .iter()
            .enumerate()
            .map(|(t, &w)| {
                let (engine, handle, barrier) = (&engine, &handle, &barrier);
                let a = &a;
                scope.spawn(move || {
                    let mut rng = Pcg32::seed_from_u64(0x10 + t as u64);
                    let b = DenseMatrix::random(n, w, &mut rng);
                    let want = a.spmm_reference(&b).unwrap();
                    barrier.wait();
                    let out = engine.serve_handle(handle, &b).unwrap();
                    (w, out.result, want)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (w, got, want) in &results {
        assert_eq!(got.cols(), *w, "member got exactly its own columns back");
        assert!(got.approx_eq(want, 1e-9), "width-{w} member wrong");
    }
    let s = engine.stats();
    assert_eq!(s.requests(), widths.len() as u64);
    assert_eq!(s.hits + s.misses, widths.len() as u64, "all clean: {s:?}");
}

/// A planner whose plan panics on every execute (an out-of-bounds
/// column index the kernels trip over), forcing the fused-panic path.
struct BrokenPlanner;

impl Planner<f64> for BrokenPlanner {
    fn prepare(&self, csr: &CsrMatrix<f64>, _j: usize) -> LfResult<PreparedPlan<f64>> {
        let config = lf_cell::CellConfig::default();
        let cell = lf_cell::CellMatrix::from_parts(
            csr.rows(),
            csr.cols(),
            1,
            vec![lf_cell::Partition {
                col_range: (0, csr.cols()),
                buckets: vec![lf_cell::Bucket {
                    width: 1,
                    row_ind: vec![0],
                    col_ind: vec![csr.cols() as lf_sparse::Index], // out of bounds
                    values: vec![1.0],
                    rows_per_block: 1,
                    needs_atomic: false,
                    has_folded: false,
                }],
            }],
            config.clone(),
        );
        Ok(PreparedPlan::from_cell(
            config,
            cell,
            PreprocessProfile::default(),
        ))
    }

    fn name(&self) -> &'static str {
        "broken"
    }
}

#[test]
fn fused_panic_rescues_every_member_individually() {
    // The fused execute panics mid-batch: the fused plan is quarantined
    // and every member — not just the leader — is rescued with its OWN
    // reference result, each counted as its own degraded request.
    let n = 96;
    let threads = 4usize;
    let a = matrix(13, n, 1500);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let engine = ServeEngine::new(BrokenPlanner, batching_config(300_000, 256));
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (engine, handle, barrier, a) = (&engine, &handle, &barrier, &a);
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(0xD0 + t as u64);
                let b = DenseMatrix::random(n, 4, &mut rng);
                let want = a.spmm_reference(&b).unwrap();
                barrier.wait();
                let out = engine.serve_handle(handle, &b).unwrap();
                assert!(out.degraded, "thread {t}: rescue must be degraded");
                assert!(
                    out.result.approx_eq(&want, 1e-9),
                    "thread {t}: rescue must be this member's own product"
                );
            });
        }
    });
    let s = engine.stats();
    assert_eq!(s.requests(), threads as u64);
    assert_eq!(
        s.degraded, threads as u64,
        "each member is its own rescue: {s:?}"
    );
    assert!(
        s.quarantined >= 1,
        "the panicking fused plan is quarantined: {s:?}"
    );
    assert_eq!(s.cached_plans, 0, "no poisoned plan survives: {s:?}");
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed,
        "ledger identity: {s:?}"
    );
}

/// Wraps a real planner and records every width it is asked to compose.
struct RecordingPlanner {
    inner: FixedCellPlanner,
    widths: Arc<Mutex<Vec<usize>>>,
}

impl Planner<f64> for RecordingPlanner {
    fn prepare(&self, csr: &CsrMatrix<f64>, j: usize) -> LfResult<PreparedPlan<f64>> {
        self.widths.lock().unwrap().push(j);
        Planner::<f64>::prepare(&self.inner, csr, j)
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

#[test]
fn fused_execute_rekeys_and_retunes_the_plan_at_the_fused_width() {
    // Satellite regression: a fused run over eight J=8 members is a
    // J=64 execute. The coalescer must resolve a plan *keyed and tuned*
    // at 64, never reuse one tuned for 8 — and the fused-width plan it
    // caches must be a first-class citizen a direct J=64 request hits.
    let n = 160;
    let threads = 8usize;
    let a = matrix(14, n, 3000);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let widths = Arc::new(Mutex::new(Vec::new()));
    let planner = RecordingPlanner {
        inner: FixedCellPlanner::tuned(4),
        widths: Arc::clone(&widths),
    };
    // max_batch_j equals the exact fused width, so the leader closes the
    // moment the eighth member joins (no full-window sleep).
    let engine = ServeEngine::new(planner, batching_config(400_000, 64));
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (engine, handle, barrier) = (&engine, &handle, &barrier);
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(0xA0 + t as u64);
                let b = DenseMatrix::random(n, 8, &mut rng);
                barrier.wait();
                engine.serve_handle(handle, &b).unwrap();
            });
        }
    });
    {
        let seen = widths.lock().unwrap();
        assert!(
            seen.contains(&64),
            "the fused execute must compose at the fused width, got {seen:?}"
        );
        assert!(
            !seen.contains(&8) || seen.iter().filter(|&&w| w == 8).count() < threads,
            "members must not each compose at their narrow width: {seen:?}"
        );
    }
    // A direct J=64 request reuses the fused-width plan: same key space.
    let mut rng = Pcg32::seed_from_u64(0xFEED);
    let wide = DenseMatrix::random(n, 64, &mut rng);
    let out = engine.serve_handle(&handle, &wide).unwrap();
    assert!(out.hit, "the fused-width plan is a first-class cache entry");
    assert!(!out.batched, "a request at the width cap never coalesces");
    // A solo J=8 request does NOT hit the J=64 plan: distinct keys.
    let narrow = DenseMatrix::random(n, 8, &mut rng);
    let before = widths.lock().unwrap().len();
    let out = engine.serve_handle(&handle, &narrow).unwrap();
    assert!(
        !out.hit,
        "a narrow request must not reuse the fused-width plan"
    );
    assert_eq!(
        widths.lock().unwrap()[before..],
        [8],
        "the narrow request composes at its own width"
    );
}

/// Records every width it is asked to compose, then sleeps past the
/// members' deadlines before composing.
struct SlowPlanner {
    inner: FixedCellPlanner,
    delay: Duration,
    widths: Arc<Mutex<Vec<usize>>>,
}

impl Planner<f64> for SlowPlanner {
    fn prepare(&self, csr: &CsrMatrix<f64>, j: usize) -> LfResult<PreparedPlan<f64>> {
        self.widths.lock().unwrap().push(j);
        std::thread::sleep(self.delay);
        Planner::<f64>::prepare(&self.inner, csr, j)
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

#[test]
fn fused_compose_runs_under_the_group_token() {
    // Both members' deadlines fire while the leader composes the fused
    // plan. The compose runs under the group token, as a solo compose
    // runs under its request's token: each member fails on its own
    // deadline, and the late plan is dropped rather than cached.
    let n = 128;
    let handle = MatrixHandle::new(matrix(17, n, 2000)).unwrap();
    let widths = Arc::new(Mutex::new(Vec::new()));
    let planner = SlowPlanner {
        inner: FixedCellPlanner::tuned(4),
        delay: Duration::from_millis(700),
        widths: Arc::clone(&widths),
    };
    // Two J=4 members fill the J=8 cap, closing the window at once.
    let engine = ServeEngine::new(
        planner,
        ServeConfig {
            deadline_ms: Some(500),
            ..batching_config(200_000, 8)
        },
    );
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (engine, handle, barrier) = (&engine, &handle, &barrier);
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(0xF0 + t);
                let b = DenseMatrix::random(n, 4, &mut rng);
                barrier.wait();
                let err = engine.serve_handle(handle, &b).unwrap_err();
                assert!(
                    matches!(err, LfError::DeadlineExceeded { .. }),
                    "member {t}: {err}"
                );
            });
        }
    });
    assert_eq!(
        *widths.lock().unwrap(),
        [8],
        "one fused compose; the dissolved joiner fails before composing"
    );
    let s = engine.stats();
    assert_eq!(s.failed, 2, "{s:?}");
    assert_eq!(
        s.cached_plans, 0,
        "a plan composed past every deadline is not cached: {s:?}"
    );
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed,
        "ledger identity: {s:?}"
    );
}

#[test]
fn joiner_without_deadline_budget_for_the_window_goes_solo() {
    // A 10 ms deadline cannot afford a 50 ms admission window (plus a
    // fused run): the request must skip the coalescer and serve solo
    // immediately instead of joining a batch it would fail out of.
    let n = 128;
    let a = matrix(15, n, 2000);
    let engine = ServeEngine::new(
        FixedCellPlanner::tuned(4),
        ServeConfig {
            deadline_ms: Some(500),
            ..batching_config(1_000_000, 256)
        },
    );
    let mut rng = Pcg32::seed_from_u64(0xCAFE);
    let b = DenseMatrix::random(n, 6, &mut rng);
    // 500 ms deadline < 2 × 1 s window: solo, and comfortably in budget.
    let out = engine.serve(&a, &b).unwrap();
    assert!(!out.batched, "tight-deadline requests must not coalesce");
    let s = engine.stats();
    assert_eq!(s.batch_wait_s, 0.0, "no window wait was paid: {s:?}");
    assert_eq!((s.batches, s.batched_requests), (0, 0));
}

#[test]
fn lonely_leader_dissolves_and_the_window_wait_stays_on_its_clock() {
    // Satellite regression for `serve_wall_s`: a leader nobody joins
    // dissolves to a solo run, but the 30 ms it parked in the admission
    // window happened to *this* request — its wall clock (and the
    // engine's batch_wait_s meter) must include the wait, or latency
    // percentiles understate every coalesced request.
    let n = 128;
    let a = matrix(16, n, 2000);
    let engine = ServeEngine::new(FixedCellPlanner::tuned(4), batching_config(30_000, 256));
    let mut rng = Pcg32::seed_from_u64(0xBEE);
    let b = DenseMatrix::random(n, 6, &mut rng);
    let out = engine.serve(&a, &b).unwrap();
    assert!(!out.batched, "a lonely leader dissolves to solo");
    assert!(
        out.serve_wall_s >= 0.030,
        "the window wait is on the request's clock: {}",
        out.serve_wall_s
    );
    let s = engine.stats();
    assert!(s.batch_wait_s >= 0.030, "the wait is metered: {s:?}");
    assert_eq!((s.batches, s.batched_requests), (0, 0), "dissolved: {s:?}");
    assert_eq!(s.misses, 1, "the solo retry classifies normally: {s:?}");
}
