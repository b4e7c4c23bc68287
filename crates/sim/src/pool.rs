//! A persistent worker-thread pool for the kernels' numeric path.
//!
//! The original execution layer spawned and joined fresh OS threads on
//! every `parallel_for` call — `CellKernel::run` paid that cost once per
//! bucket, so a p=32 CELL build crossed hundreds of spawn/join barriers
//! per multiply. This pool spawns its workers once (lazily, on first
//! use) and reuses them for every subsequent parallel region: a dispatch
//! is a mutex-protected slot publish plus a condvar wake, two orders of
//! magnitude cheaper than thread creation.
//!
//! Design:
//!
//! * [`ThreadPool::broadcast`] runs one closure on the calling thread
//!   *and* on up to `helpers` pool workers; every participant pulls
//!   chunks from the caller's shared atomic counter, so work distribution
//!   is dynamic self-scheduling.
//! * The job slot holds a type-erased pointer to the caller's closure.
//!   The caller never returns before every joined worker has exited the
//!   closure (a per-job active-count latch), which is what makes the
//!   borrowed, non-`'static` closure sound.
//! * Concurrent or nested `broadcast` calls are permitted: a new job
//!   simply replaces the slot. A job that loses the slot before workers
//!   joined still completes — the submitting thread always executes the
//!   closure itself, so progress never depends on a pool worker.
//! * Panics are contained: a worker catches an unwinding body and hands
//!   the payload to the submitter (re-raised after the region joins), and
//!   the submitter's own unwind still unpublishes the job and waits for
//!   joined workers via a drop guard, so the borrowed closure can never
//!   dangle and the pool keeps all its threads.
//! * The global pool ([`global`]) lives for the process. Locally
//!   constructed pools (tests) shut their workers down on drop.
//!
//! The broadcast protocol (publish / slot win / latch / unpublish /
//! `wait_idle` / panic re-raise) is built on [`crate::sync`], so a
//! `--features check` build runs it under the `lf-check` model checker:
//! `tests/model_pool.rs` explores its thread interleavings exhaustively
//! (bounded), including panicking bodies, and proves the `Job::alive`
//! liveness witness is never violated. `ThreadPool::broadcast_reverted`
//! (feature-gated) re-creates the pre-review protocol without the drop
//! guard, whose submitter-panic use-after-free the checker re-discovers.

use crate::sync::{thread, AtomicBool, AtomicUsize, Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};

/// Lock a mutex, ignoring poison: pool state stays consistent across
/// panics by construction (no invariants are broken mid-update), and the
/// cleanup paths below must not double-panic while already unwinding.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased pointer to a caller-owned `dyn Fn() + Sync` closure.
///
/// Sound to send across threads because the submitting thread keeps the
/// closure alive until the job's active-count latch reaches zero.
struct RawFn(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the pointer
// is only dereferenced while the owning `broadcast` frame is blocked in
// `wait_idle`, so the borrow outlives every use.
unsafe impl Send for RawFn {}
// SAFETY: the pointee is `Sync`, so concurrent shared calls through the
// pointer are safe for the same lifetime argument as `Send` above.
unsafe impl Sync for RawFn {}

/// One published parallel region.
struct Job {
    body: RawFn,
    /// Worker slots left; a worker joins only after winning one.
    slots: AtomicUsize,
    /// Workers currently inside `body` (latch for the submitter).
    active: Mutex<usize>,
    idle: Condvar,
    /// First panic payload caught on a worker, re-raised by the submitter
    /// once the region has joined.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Liveness witness for the borrowed closure: `true` while the
    /// submitting frame guarantees the `body` pointee is alive. The
    /// fixed protocol clears it only *after* unpublish + `wait_idle`, so
    /// a worker can assert it right before dereferencing `body` — under
    /// the model checker this turns the use-after-free of a broken
    /// protocol (e.g. [`ThreadPool::broadcast_reverted`]) into a
    /// deterministic failure instead of silent UB.
    alive: AtomicBool,
}

impl Job {
    fn new(body: RawFn, helpers: usize) -> Arc<Job> {
        Arc::new(Job {
            body,
            slots: AtomicUsize::new(helpers),
            active: Mutex::new(0),
            idle: Condvar::new(),
            panic: Mutex::new(None),
            alive: AtomicBool::new(true),
        })
    }

    fn wait_idle(&self) {
        let mut active = lock_unpoisoned(&self.active);
        while *active > 0 {
            active = self
                .idle
                .wait(active)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Panic-safe completion of a published broadcast.
///
/// Runs the unpublish + `wait_idle` steps on drop, so they execute even
/// while the submitter's closure is unwinding — otherwise a late-waking
/// worker could dereference the lifetime-erased body pointer after the
/// submitting stack frame (closure, chunk counter) is dead.
struct BroadcastGuard<'a> {
    shared: &'a Shared,
    job: &'a Arc<Job>,
}

impl Drop for BroadcastGuard<'_> {
    fn drop(&mut self) {
        {
            // Unpublish so late-waking workers cannot join, then wait for
            // the ones that did join to leave the closure.
            let mut st = lock_unpoisoned(&self.shared.state);
            if st
                .job
                .as_ref()
                .is_some_and(|current| Arc::ptr_eq(current, self.job))
            {
                st.job = None;
            }
        }
        self.job.wait_idle();
        // Only now is the borrowed closure allowed to die: no worker can
        // join (unpublished) and none is inside the body (idle latch).
        self.job.alive.store(false, Ordering::Release);
        // Re-raise a worker-side panic on the submitting thread — unless
        // the submitter's own body already panicked, in which case that
        // unwind (currently in flight) takes precedence.
        if !std::thread::panicking() {
            let payload = lock_unpoisoned(&self.job.panic).take();
            if let Some(payload) = payload {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

struct PoolState {
    /// Bumped on every publish so parked workers can tell jobs apart.
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    /// Worker threads this pool has spawned.
    spawned: StdAtomicUsize,
}

/// Process-wide count of pool worker threads ever spawned (all pools).
///
/// Observability hook for the serving layer: a correctly shared pool
/// spawns its workers once, so this counter must stay flat while a
/// `ServeEngine` handles arbitrarily many concurrent requests. The
/// stress suite asserts exactly that (no pool-per-request churn).
static WORKERS_SPAWNED: StdAtomicUsize = StdAtomicUsize::new(0);

/// Total pool worker threads spawned since process start.
pub fn workers_spawned_total() -> usize {
    WORKERS_SPAWNED.load(Ordering::Relaxed)
}

/// A pool of parked worker threads executing broadcast parallel regions.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` parked workers (0 is allowed: every
    /// broadcast then runs entirely on the calling thread).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            spawned: StdAtomicUsize::new(0),
        });
        WORKERS_SPAWNED.fetch_add(threads, Ordering::Relaxed);
        let handles = (0..threads)
            .map(|_| {
                shared.spawned.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                thread::spawn_named("lf-pool-worker", move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of pool worker threads (excluding callers).
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Worker threads this pool has spawned over its lifetime. Unlike
    /// [`workers_spawned_total`], other pools in the process do not
    /// move it.
    pub fn workers_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Publish `job` as the pool's current work and wake the workers.
    fn publish(&self, job: &Arc<Job>) {
        let mut st = lock_unpoisoned(&self.shared.state);
        st.epoch += 1;
        st.job = Some(Arc::clone(job));
        drop(st);
        self.shared.work_ready.notify_all();
    }

    /// Run `body` on the calling thread and on up to `helpers` pool
    /// workers, returning once every participant has exited `body`.
    ///
    /// `body` must be safe to execute concurrently with itself; callers
    /// coordinate actual work division (typically via a shared atomic
    /// chunk counter).
    pub fn broadcast(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        let helpers = helpers.min(self.handles.len());
        if helpers == 0 {
            body();
            return;
        }
        // SAFETY: the transmute only erases the borrow's lifetime so the
        // job can live in the slot; it is sound because `BroadcastGuard`
        // (dropped before this frame returns or finishes unwinding)
        // unpublishes the job and drains the active latch, so no worker
        // holds or can acquire the pointer once the borrow ends.
        let body_ptr: *const (dyn Fn() + Sync) =
            unsafe { std::mem::transmute(body as *const (dyn Fn() + Sync)) };
        let job = Job::new(RawFn(body_ptr), helpers);
        self.publish(&job);
        // From here on the cleanup (unpublish + wait_idle) must run even
        // if `body` unwinds, so it lives in a drop guard.
        let guard = BroadcastGuard {
            shared: &self.shared,
            job: &job,
        };
        // The submitter always participates, so the region completes even
        // if every worker is busy elsewhere.
        body();
        // Unpublish, wait for joined workers, re-raise any worker panic.
        drop(guard);
    }

    /// The pre-review broadcast protocol, kept (feature-gated) as the
    /// model checker's seeded bug: the unpublish + `wait_idle` epilogue
    /// runs straight-line after `body()` instead of in a drop guard, so
    /// a submitter-side panic skips both and a late-waking worker
    /// dereferences the dead frame's closure — the exact use-after-free
    /// the PR-2 review caught. `tests/model_pool.rs` asserts the checker
    /// re-discovers it.
    #[cfg(feature = "check")]
    pub fn broadcast_reverted(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        let helpers = helpers.min(self.handles.len());
        if helpers == 0 {
            body();
            return;
        }
        // SAFETY: same lifetime erasure as `broadcast` — except the
        // reverted protocol does NOT keep the promise on the panic path,
        // which is precisely the bug the model checker must find (the
        // `alive` witness turns the dangling dereference into an
        // assertion failure instead of UB).
        let body_ptr: *const (dyn Fn() + Sync) =
            unsafe { std::mem::transmute(body as *const (dyn Fn() + Sync)) };
        let job = Job::new(RawFn(body_ptr), helpers);
        self.publish(&job);
        // Models the submitting stack frame dying on unwind: after this
        // drop runs during a panic, the body pointer dangles — without
        // the job having been unpublished or drained.
        struct FrameSentinel<'a> {
            job: &'a Arc<Job>,
        }
        impl Drop for FrameSentinel<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.job.alive.store(false, Ordering::Release);
                }
            }
        }
        let sentinel = FrameSentinel { job: &job };
        body();
        drop(sentinel);
        // Buggy epilogue: correct on the happy path, skipped on unwind.
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            if st
                .job
                .as_ref()
                .is_some_and(|current| Arc::ptr_eq(current, &job))
            {
                st.job = None;
            }
        }
        job.wait_idle();
        job.alive.store(false, Ordering::Release);
        let payload = lock_unpoisoned(&job.panic).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Seeded bug for the cancellation/reuse window, kept feature-gated
    /// for the model checker: a broadcast whose epilogue *skips*
    /// `wait_idle` on the theory that a cancelled region's workers "will
    /// exit on their own anyway", so waiting is wasted latency before the
    /// next request can reuse the pool.
    ///
    /// The theory is wrong: a worker that won the slot just before the
    /// unpublish may not have *entered* the body yet (or may still be
    /// inside it) when this frame returns and its borrowed closure plus
    /// chunk counter die. `tests/model_pool.rs` asserts the checker finds
    /// the schedule where one of the two [`Job::alive`] witness checks
    /// fires. The real [`ThreadPool::broadcast`] always drains: a
    /// cancelled region is distinguished from a completed one only by
    /// its counter value, never by its join protocol.
    #[cfg(feature = "check")]
    pub fn broadcast_cancelled_no_drain(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        let helpers = helpers.min(self.handles.len());
        if helpers == 0 {
            body();
            return;
        }
        // SAFETY: same lifetime erasure as `broadcast` — except this
        // variant deliberately breaks the promise by returning without
        // draining, which is the bug under test (the `alive` witness
        // turns the dangling window into an assertion failure).
        let body_ptr: *const (dyn Fn() + Sync) =
            unsafe { std::mem::transmute(body as *const (dyn Fn() + Sync)) };
        let job = Job::new(RawFn(body_ptr), helpers);
        self.publish(&job);
        // Models a body that observed cancellation and exited after zero
        // chunks — the exact situation that makes skipping the drain
        // tempting.
        body();
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            if st
                .job
                .as_ref()
                .is_some_and(|current| Arc::ptr_eq(current, &job))
            {
                st.job = None;
            }
        }
        // Buggy epilogue: no `wait_idle`. The frame (and with it the
        // borrowed closure) dies at return, modeled by clearing the
        // liveness witness.
        job.alive.store(false, Ordering::Release);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock_unpoisoned(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if let Some(job) = st.job.as_ref() {
                        // Win a helper slot; losers keep waiting for the
                        // next epoch.
                        if job
                            .slots
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                                s.checked_sub(1)
                            })
                            .is_ok()
                        {
                            let job = Arc::clone(job);
                            // Count in while still holding the pool lock:
                            // the submitter unpublishes under this lock,
                            // so it cannot observe the latch before this
                            // increment.
                            *lock_unpoisoned(&job.active) += 1;
                            break job;
                        }
                    }
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The liveness witness must hold between the slot win above and
        // the dereference below; a violation means the protocol let the
        // submitting frame die first. Deliberately outside the
        // catch_unwind: this is a worker-loop invariant, not a body
        // panic, and must propagate (the model checker records it).
        assert!(
            job.alive.load(Ordering::Acquire),
            "pool protocol use-after-free: worker joined a job whose submitting \
             frame already died (the body pointer would dangle)"
        );
        // SAFETY: the submitter blocks in `wait_idle` until our decrement
        // below (its drop guard runs that wait even while the submitter's
        // own body call unwinds), so the pointee is alive for the whole
        // call. An unwinding body is caught here: skipping the decrement
        // would hang the submitter forever and kill this worker thread.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (&*job.body.0)() }));
        if let Err(payload) = result {
            // First panic wins; the submitter re-raises it after joining.
            lock_unpoisoned(&job.panic).get_or_insert(payload);
        }
        // Second witness check, covering the other half of the window: a
        // submitter must not drop the frame while this worker is *inside*
        // the body. The correct protocol guarantees it — the submitter's
        // `wait_idle` cannot return before the decrement below — so a
        // violation here means a drain was skipped (e.g. the
        // "cancelled regions drain themselves" shortcut of
        // [`ThreadPool::broadcast_cancelled_no_drain`]).
        assert!(
            job.alive.load(Ordering::Acquire),
            "pool protocol use-after-free: submitting frame died while a worker \
             was still inside the body (wait_idle was skipped)"
        );
        let mut active = lock_unpoisoned(&job.active);
        *active -= 1;
        if *active == 0 {
            job.idle.notify_all();
        }
    }
}

/// Worker count for the process-wide pool: one per available core beyond
/// the caller, but at least 3 so concurrency paths (atomics, disjoint
/// writes) are genuinely exercised even on single-core hosts.
/// Overridable with `LF_POOL_WORKERS`.
fn global_pool_threads() -> usize {
    if let Ok(v) = std::env::var("LF_POOL_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(1)
        .max(3)
}

/// The process-wide pool, spawned on first use and never torn down.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(global_pool_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn broadcast_runs_on_caller_and_helpers() {
        let pool = ThreadPool::new(3);
        let runs = AtomicU64::new(0);
        pool.broadcast(3, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        let r = runs.load(Ordering::Relaxed);
        assert!((1..=4).contains(&r), "runs={r}");
    }

    #[test]
    fn zero_thread_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let runs = AtomicU64::new(0);
        pool.broadcast(8, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sequential_broadcasts_reuse_workers() {
        let pool = ThreadPool::new(2);
        for _ in 0..100 {
            let counter = StdAtomicUsize::new(0);
            let total = 1000usize;
            pool.broadcast(2, &|| loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
            });
            assert!(counter.load(Ordering::Relaxed) >= total);
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn nested_broadcast_completes() {
        let pool = ThreadPool::new(2);
        let hits = AtomicU64::new(0);
        pool.broadcast(2, &|| {
            // A nested region must complete even with all workers busy.
            let inner = AtomicU64::new(0);
            global().broadcast(1, &|| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
            assert!(inner.load(Ordering::Relaxed) >= 1);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn submitter_panic_unwinds_cleanly_and_pool_survives() {
        // A panicking body on the submitting thread must still unpublish
        // the job and wait for joined workers (the drop guard), so no
        // worker can dereference the dead stack frame. Iterate to stress
        // the late-waking-worker window.
        let pool = ThreadPool::new(2);
        for _ in 0..50 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.broadcast(2, &|| {
                    if std::thread::current().name() != Some("lf-pool-worker") {
                        panic!("submitter body panic");
                    }
                });
            }));
            assert!(caught.is_err(), "submitter panic must propagate");
        }
        let runs = AtomicU64::new(0);
        pool.broadcast(2, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert!(runs.load(Ordering::Relaxed) >= 1);
        drop(pool); // must still join cleanly
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let entered = StdAtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(2, &|| {
                if std::thread::current().name() == Some("lf-pool-worker") {
                    entered.fetch_add(1, Ordering::Relaxed);
                    panic!("worker body panic");
                }
                // Submitter: hold the region open until a worker joined,
                // so the panic deterministically lands inside this job.
                while entered.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
            });
        }));
        assert!(
            caught.is_err(),
            "worker panic must surface to the submitter"
        );
        // The worker caught the unwind and keeps serving jobs; the
        // submitter is not hung in wait_idle.
        let runs = AtomicU64::new(0);
        pool.broadcast(2, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert!(runs.load(Ordering::Relaxed) >= 1);
        drop(pool); // must still join cleanly
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        pool.broadcast(4, &|| {});
        drop(pool); // must not hang
    }

    #[test]
    fn spawn_counter_tracks_new_pools() {
        // Exact counts come from the pool's own counter: a pool another
        // test spawns concurrently moves only the process-wide total,
        // which can therefore only be bounded from below here.
        let before = workers_spawned_total();
        let pool = ThreadPool::new(2);
        assert_eq!(pool.workers_spawned(), 2);
        assert!(workers_spawned_total() >= before + 2);
        // Reusing the pool spawns nothing.
        pool.broadcast(2, &|| {});
        pool.broadcast(2, &|| {});
        assert_eq!(pool.workers_spawned(), 2);
    }

    #[test]
    fn global_pool_is_stable() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 3);
    }
}
