//! Data-parallel primitives for the kernels' numeric path.
//!
//! All entry points dispatch onto the persistent [`crate::pool`] worker
//! pool (spawned once per process, sized by `LF_POOL_WORKERS`) with
//! atomic-counter dynamic chunked self-scheduling.
//!
//! The primitives:
//!
//! * [`parallel_for`] — run `body(i)` for `i in 0..n`;
//! * [`parallel_for_init`] — like `parallel_for`, but each participating
//!   worker first builds a private mutable state (scratch buffers,
//!   accumulators) that is reused across all chunks it processes, which
//!   is how kernels keep their inner loops allocation-free;
//! * [`parallel_ranges`] — run `body(range)` over the same chunks,
//!   each handed over whole, for kernels whose inner loop takes a run
//!   of rows;
//! * [`parallel_map`] / [`parallel_map_init`] — collect `f(i)` in index
//!   order through disjoint in-place writes (no per-slot locks);
//! * [`DisjointSlice`] — a shared view of a `&mut [T]` that hands out
//!   non-overlapping `&mut` subslices to concurrent writers, the safe
//!   alternative to per-element atomics for single-writer outputs.
//!
//! All `parallel_for*` regions are **cooperatively cancellable**: if the
//! submitting thread has a [`crate::cancel::CancelToken`] installed (via
//! [`crate::cancel::with_token`]), the region checks it between chunks
//! and returns early once it fires — the caller must then discard the
//! partial output. `parallel_map*` regions shield themselves from
//! cancellation (their `set_len` requires every slot initialized).

use crate::cancel;
use crate::pool;
use crate::shadow::ShadowRegion;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: one per available core, at least 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunk size for dynamic self-scheduling: ~16 chunks per worker keeps
/// scheduling overhead low while preserving balance.
fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 16)).max(1)
}

/// Run `body(i)` for every `i in 0..n` using up to `workers` concurrent
/// executors. `body` must be safe to call concurrently for distinct `i`.
pub fn parallel_for<F>(n: usize, workers: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_init(n, workers, || (), |(), i| body(i));
}

/// Run `body(&mut state, i)` for every `i in 0..n`, where each
/// participating executor builds one private `state = init()` lazily on
/// its first chunk and reuses it for all subsequent chunks.
///
/// This is the engine's allocation-amortization primitive: a kernel pays
/// for its scratch buffers once per worker per region instead of once
/// per row.
///
/// If the submitting thread has a [`cancel::CancelToken`] installed, the
/// region checks it before each chunk claim and returns early once it
/// fires; some indices are then never visited and the caller must treat
/// the output as garbage.
pub fn parallel_for_init<S, I, F>(n: usize, workers: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    chunked(n, workers, init, |state, range| {
        for i in range {
            body(state, i);
        }
    });
}

/// Run `body(range)` over consecutive, disjoint ranges that cover
/// `0..n`: the chunks [`parallel_for`] would claim, each handed over
/// whole, so a kernel can enter its inner loop once per chunk instead
/// of once per index. Cancellation as for [`parallel_for_init`].
pub fn parallel_ranges<F>(n: usize, workers: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    chunked(n, workers, || (), |(), range| body(range));
}

/// The self-scheduling core of [`parallel_for_init`] and
/// [`parallel_ranges`]: executors claim `chunk_size` ranges off one
/// atomic counter and run `body` on each.
fn chunked<S, I, F>(n: usize, workers: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    // Captured once at region entry on the submitting thread; pool
    // workers see it through the executor closure, never a thread-local.
    let token = cancel::current();
    let is_cancelled = || token.as_ref().is_some_and(|t| t.is_cancelled());
    let workers = workers.max(1).min(n);
    if workers == 1 {
        let check_every = chunk_size(n, 1);
        let mut state = init();
        for start in (0..n).step_by(check_every) {
            if is_cancelled() {
                return;
            }
            body(&mut state, start..n.min(start + check_every));
        }
        return;
    }
    let chunk = chunk_size(n, workers);
    let counter = AtomicUsize::new(0);
    let executor = || {
        // Lazy init: an executor that never wins a chunk never pays.
        let mut state: Option<S> = None;
        loop {
            if is_cancelled() {
                break;
            }
            let start = counter.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let state = state.get_or_insert_with(&init);
            body(state, start..n.min(start + chunk));
        }
    };
    pool::global().broadcast(workers - 1, &executor);
}

/// Parallel map over `0..n` collecting results in index order.
///
/// Results are written straight into the output buffer through disjoint
/// raw-pointer writes — each index is produced by exactly one executor —
/// replacing the earlier `Mutex`-per-slot workaround (uncontended, but a
/// lock plus a cache-line bounce per element).
pub fn parallel_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_init(n, workers, || (), |(), i| f(i))
}

/// [`parallel_map`] with per-worker reusable state (see
/// [`parallel_for_init`]).
///
/// Map regions run [`cancel::shielded`]: the `set_len` below requires
/// every slot initialized, so a cancellation-skipped chunk would expose
/// uninitialized memory. Deadline-bound callers cancel *between* maps,
/// never inside one.
pub fn parallel_map_init<S, T, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    let base = SendPtr(out.as_mut_ptr());
    // Debug builds verify the exactly-once claim per slot through the
    // shadow interval map (release: no-op ZST).
    let shadow = ShadowRegion::new(n);
    cancel::shielded(|| {
        parallel_for_init(n, workers, init, |state, i| {
            shadow.claim_exclusive(i, 1);
            // SAFETY: `i` is produced exactly once by the parallel_for
            // contract (checked by the shadow claim above in debug
            // builds), and `i < n <= capacity`, so writes are in-bounds
            // and disjoint. Written slots are only exposed via `set_len`
            // below, after all writers joined. A panic mid-region leaks
            // (never drops) partially written elements — safe, just not
            // tidy.
            unsafe { base.write_at(i, f(state, i)) };
        });
    });
    // SAFETY: all n slots were initialized above (the region is shielded
    // from cancellation, so no chunk was skipped).
    unsafe { out.set_len(n) };
    out
}

/// Raw-pointer wrapper so disjoint writers can share one output buffer.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used through `write_at`, whose contract
// requires in-bounds, exactly-once-per-slot writes; with `T: Send` such
// disjoint cross-thread writes are sound, and the buffer owner outlives
// the region (the pool's broadcast joins before `set_len`).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: `&SendPtr` exposes no aliasing reads — shared access only
// forwards to the disjoint `write_at` writes justified above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// `i` must be in-bounds and written by exactly one thread.
    unsafe fn write_at(&self, i: usize, value: T) {
        self.0.add(i).write(value);
    }
}

/// A shared view over a `&mut [T]` that concurrent workers carve
/// **non-overlapping** mutable subslices out of.
///
/// This is the plain-store fast path for kernels whose output rows have
/// a single writer (CSR/ELL/SELL rows, non-atomic CELL buckets): instead
/// of routing every scalar through an atomic CAS, a worker takes its
/// row's subslice once and uses ordinary loads/stores.
///
/// Debug builds register every `slice_mut` range in a [`ShadowRegion`]:
/// two overlapping carves — the race `unsafe` callers promise away —
/// panic at the second claim instead of corrupting the output.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    shadow: ShadowRegion,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: access is only through `slice_mut`, whose contract requires
// callers to hand out disjoint ranges; T: Send makes cross-thread
// mutation of disjoint elements sound.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
// SAFETY: `&DisjointSlice` only hands out writers via `slice_mut` under
// the same disjointness contract, so shared references add no aliasing
// beyond what the `Send` argument above already covers.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap an exclusively borrowed slice.
    pub fn new(data: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            shadow: ShadowRegion::new(data.len()),
            _borrow: PhantomData,
        }
    }

    /// Total length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow `[start, start + len)` mutably.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no two calls for overlapping
    /// ranges are made over this view's lifetime (debug builds enforce
    /// this through the shadow map, treating every carve as live until
    /// the view drops). The range itself is bounds-checked.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(
            start <= self.len && len <= self.len - start,
            "disjoint slice range {start}+{len} out of bounds (len {})",
            self.len
        );
        // Register the carve before creating the aliasing-sensitive
        // reference: an overlapping claim panics here (debug builds),
        // before any store can race.
        self.shadow.claim_exclusive(start, len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(n, 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_iterations() {
        parallel_for(0, 8, |_| panic!("must not run"));
    }

    #[test]
    fn single_worker_sequential() {
        let sum = AtomicU64::new(0);
        parallel_for(100, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let v = parallel_map(1000, 8, |i| i * i);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * i);
        }
    }

    #[test]
    fn parallel_map_non_default_types() {
        // The old implementation required Default + Clone; the disjoint
        // write path must not.
        struct NoDefault(String);
        let v = parallel_map(100, 4, |i| NoDefault(format!("x{i}")));
        assert_eq!(v[42].0, "x42");
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn parallel_map_init_reuses_state() {
        // Each worker's scratch grows monotonically: states are reused,
        // never rebuilt per item.
        let v = parallel_map_init(500, 4, Vec::<usize>::new, |scratch, i| {
            scratch.push(i);
            (i, scratch.len())
        });
        assert_eq!(v.len(), 500);
        for (i, &(idx, uses)) in v.iter().enumerate() {
            assert_eq!(idx, i);
            assert!(uses >= 1);
        }
        // Total scratch uses across items equals n, and at least one
        // state must have served many items (chunks are reused).
        let max_uses = v.iter().map(|&(_, u)| u).max().unwrap();
        assert!(max_uses > 1, "scratch must be reused across items");
    }

    #[test]
    fn parallel_for_init_builds_at_most_one_state_per_worker() {
        let inits = AtomicU64::new(0);
        parallel_for_init(
            10_000,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), _| {},
        );
        let built = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&built), "states built: {built}");
    }

    #[test]
    fn workers_clamped_to_n() {
        // More workers than items must not deadlock or double-run.
        let hits: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        parallel_for(3, 64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn disjoint_slice_concurrent_row_writes() {
        let rows = 64;
        let width = 33;
        let mut data = vec![0u64; rows * width];
        {
            let view = DisjointSlice::new(&mut data);
            parallel_for(rows, 8, |r| {
                // SAFETY: each r is visited once; rows are disjoint.
                let row = unsafe { view.slice_mut(r * width, width) };
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = (r * width + c) as u64;
                }
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_bounds_checked() {
        let mut data = vec![0u8; 8];
        let view = DisjointSlice::new(&mut data);
        // SAFETY: deliberately out of bounds — the call must panic at
        // the shadow-region check before any write happens.
        let _ = unsafe { view.slice_mut(6, 4) };
    }

    /// Seeded bug: a split whose halves overlap by two elements. The
    /// shadow race detector must reject the second carve before any
    /// aliasing write happens.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "single-writer")]
    fn disjoint_slice_overlapping_split_detected() {
        let mut data = vec![0u32; 16];
        let view = DisjointSlice::new(&mut data);
        // SAFETY: in-bounds first claim; held only to provoke the
        // overlap below.
        let _lo = unsafe { view.slice_mut(0, 10) };
        // SAFETY: deliberately overlaps [8,10) — the shadow detector
        // must panic before the aliased writer is returned.
        let _hi = unsafe { view.slice_mut(8, 8) }; // [8,10) double-claimed
    }

    /// Seeded bug: an out-of-bounds claim against the shadow region
    /// directly (the `SendPtr`-style raw-write path has no slice bounds
    /// check of its own — the shadow map is the safety net).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn shadow_claim_out_of_bounds_detected() {
        let region = crate::shadow::ShadowRegion::new(8);
        region.claim_exclusive(6, 4);
    }

    #[test]
    fn body_panic_propagates_instead_of_hanging() {
        // An assert/index panic inside a region body must become a test
        // failure on the submitting thread — not a pool hang or UB — and
        // the engine must stay usable afterwards.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for(1000, 4, |i| {
                if i == 567 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(caught.is_err(), "body panic must propagate");
        let hits = AtomicU64::new(0);
        parallel_for(100, 4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pre_cancelled_region_runs_no_bodies() {
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        for workers in [1, 8] {
            let hits = AtomicU64::new(0);
            crate::cancel::with_token(&token, || {
                parallel_for(10_000, workers, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                0,
                "workers={workers}: a fired token must stop the region before any chunk"
            );
        }
    }

    #[test]
    fn cancel_mid_region_stops_early() {
        for workers in [1, 8] {
            let n = 200_000;
            let token = crate::cancel::CancelToken::new();
            let hits = AtomicU64::new(0);
            crate::cancel::with_token(&token, || {
                parallel_for(n, workers, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    token.cancel();
                });
            });
            let h = hits.load(Ordering::Relaxed);
            // In-flight chunks finish; everything else is skipped.
            assert!(
                (1..n as u64).contains(&h),
                "workers={workers}: cancelled region ran {h} of {n} bodies"
            );
        }
    }

    #[test]
    fn uninstalled_token_region_completes() {
        // A cancelled token that is NOT installed has no effect.
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let hits = AtomicU64::new(0);
        parallel_for(1000, 4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn parallel_map_is_shielded_from_cancellation() {
        // A fired token must NOT make a map skip slots: set_len demands
        // every element initialized, so maps mask the token entirely.
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let v = crate::cancel::with_token(&token, || parallel_map(5_000, 8, |i| i * 3));
        assert_eq!(v.len(), 5_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    /// Seeded chaos for the cancel/reuse window: cancel a region from a
    /// racing thread at a pseudo-random point, and the moment `broadcast`
    /// returns, (a) no late-waking worker may run the dead region's body,
    /// and (b) an immediately following region must get full coverage.
    /// This is the execution-level counterpart of the model-checked
    /// `broadcast_cancelled_no_drain` seeded bug: the pool must drain
    /// cancelled regions exactly like completed ones before the job slot
    /// is reused.
    #[test]
    fn cancelled_region_drains_before_slot_reuse() {
        // Baseline the global pool's own spawn count, after starting it:
        // the process-wide total also moves when this is the pool's first
        // use or when other tests spawn private pools concurrently.
        let global = pool::global();
        let spawned_before = global.workers_spawned();
        for seed in [0x5eed_0001u64, 0xdead_beef, 0xc0ff_ee11] {
            let mut s = seed;
            let mut next = move || {
                // splitmix64 step — deterministic per seed.
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for _ in 0..40 {
                let n = 50_000;
                let token = crate::cancel::CancelToken::new();
                let returned = std::sync::atomic::AtomicBool::new(false);
                let late = AtomicU64::new(0);
                let spins = next() % 3_000;
                std::thread::scope(|sc| {
                    let t = token.clone();
                    sc.spawn(move || {
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                        t.cancel();
                    });
                    crate::cancel::with_token(&token, || {
                        parallel_for(n, 8, |_| {
                            if returned.load(Ordering::Relaxed) {
                                late.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    });
                    // `parallel_for` returned: the region must be fully
                    // drained, cancelled or not.
                    returned.store(true, Ordering::Relaxed);
                });
                assert_eq!(
                    late.load(Ordering::Relaxed),
                    0,
                    "seed {seed:#x}: a body ran after the cancelled region returned"
                );
                // Immediate slot reuse: the next (uncancelled) region
                // must cover every index exactly once.
                let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
                parallel_for(hits.len(), 8, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "seed {seed:#x}: region after a cancelled one lost coverage"
                );
            }
        }
        assert_eq!(
            global.workers_spawned(),
            spawned_before,
            "cancellation churn must not respawn pool workers"
        );
    }

    #[test]
    fn nested_parallel_for_completes() {
        // A body that itself opens a parallel region must not deadlock
        // the pool.
        let total = AtomicU64::new(0);
        parallel_for(8, 4, |_| {
            parallel_for(8, 4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }
}
