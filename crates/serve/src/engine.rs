//! The concurrent serving engine: ingress, routing, the group path, and
//! update orchestration, hardened against hostile inputs, panics, and
//! deadline overruns. Where a plan lives is the plan cache's concern
//! (`cache.rs`); registered matrices are [`MatrixHandle`]s.
//!
//! Request path (`serve` / `serve_handle`):
//!
//! 1. **validate** the payload (strict CSR structure, NaN/Inf policy) —
//!    malformed matrices are rejected with a typed
//!    [`LfError::InvalidInput`] *before* fingerprinting, so they never
//!    touch the cache or the hit/miss ledger;
//! 2. **admit** under the backpressure gate (`max_inflight`) and arm the
//!    per-request deadline as a cooperative
//!    [`lf_sim::cancel::CancelToken`] — parallel regions under this
//!    request check it between chunks, so an oversized request times out
//!    cleanly instead of wedging pool workers;
//! 3. fingerprint the matrix (skipped for handles, which carry theirs);
//! 4. **route** it: into the coalescer's admission window when batching
//!    is on and the request can afford the wait (DESIGN.md §11),
//!    otherwise straight on as a **group of one**;
//! 5. **serve the group** — one code path for both: resolve the plan
//!    for `(fingerprint, Σj)` (RAM hit, disk promotion, or a compose run
//!    outside any lock and admitted under the byte budget), execute it
//!    once over the request's own matrix under the group's cancel
//!    token, then settle each member by its own token.
//!
//! Failures are contained per member (DESIGN.md §10): a panicking
//! *execution* quarantines the cached plan (poisoned, evicted exactly
//! once, never re-served) and rescues each member with the baseline
//! reference CSR result; a panicking *composition* fails the request
//! with a typed error unless the planner itself degrades (see
//! [`crate::planner::ResilientPlanner`]). Every request lands in exactly
//! one ledger class, so
//! `requests == hits + misses + rejected + degraded + failed` holds
//! exactly — the chaos tier asserts this identity under fault injection.
//!
//! Execution itself runs on the process-wide `lf_sim` worker pool —
//! every request shares the one pool the kernels already dispatch to, so
//! serving N concurrent requests spawns no threads beyond the pool's
//! (asserted by the stress suite via
//! `lf_sim::pool::workers_spawned_total`). A store-backed engine adds
//! exactly one thread of its own, the demotion writer (`cache.rs`).
//!
//! Two requests that miss on the same key simultaneously both compose
//! (no cross-request blocking); the first insert wins and the loser's
//! plan serves only its own request, then drops. This trades a bounded
//! amount of duplicate cold work for a lock-free compose path.

use crate::batch::{Admission, BatchBoard, Member, Resolution, ResolveGuard};
use crate::cache::{Key, PlanCache, PlanSlot};
pub use crate::config::ServeConfig;
use crate::fingerprint::Fingerprint;
pub use crate::handle::{AppliedDelta, MatrixHandle};
use crate::planner::Planner;
use crate::stats::bump;
pub use crate::stats::{ServeOutcome, ServeStats, UpdateOutcome};
use lf_sim::atomicf::AtomicScalar;
use lf_sim::cancel::{self, CancelToken};
use lf_sparse::{CsrMatrix, DenseMatrix, EdgeUpdate, SparseError};
use liteform_core::{panic_detail, LfError, LfResult, PreparedPlan, PreprocessProfile, StageStats};
use std::iter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request ledger, coalescer, and cold-path counters; the plan
/// cache keeps its own.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batch_wait_ns: AtomicU64,
    inflight: AtomicUsize,
    cold_wall_ns: AtomicU64,
    cold_alloc_calls: AtomicU64,
    cold_alloc_bytes: AtomicU64,
    serve_wall_ns: AtomicU64,
}

/// RAII admission permit: holds one in-flight slot, released on drop
/// (even if the request unwinds).
struct InflightPermit<'a> {
    gauge: &'a AtomicUsize,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The requests one execute serves. A solo request is a group of one; a
/// coalesced group adds the joiners that entered its admission window.
/// Member 0 is the calling thread's own request.
struct Group<'a, T> {
    fp: &'a Fingerprint,
    csr: &'a CsrMatrix<T>,
    /// Member 0's dense operand.
    b: &'a DenseMatrix<T>,
    /// Member 0's deadline token.
    token: Option<&'a CancelToken>,
    /// Members 1.., each parked on its join slot.
    joiners: &'a [Member<T>],
}

impl<T> Group<'_, T> {
    /// The group's cancel scope: member 0's own token for a group of
    /// one, otherwise the *conjunction* of every member's token — no
    /// single deadline may kill work the others still want, but once
    /// every deadline has fired nobody wants the result. `None` (run
    /// shielded) when any member is deadline-free.
    fn token(&self) -> Option<CancelToken> {
        if self.joiners.is_empty() {
            return self.token.cloned();
        }
        let tokens: Option<Vec<CancelToken>> = iter::once(self.token)
            .chain(self.joiners.iter().map(|m| m.token.as_ref()))
            .map(|t| t.cloned())
            .collect();
        tokens.map(CancelToken::all_of)
    }
}

/// Run `f` under `token`, or shielded from any ambient token when there
/// is none — work a deadline-free member wants must run to completion.
fn scoped<R>(token: Option<&CancelToken>, f: impl FnOnce() -> R) -> R {
    match token {
        Some(t) => cancel::with_token(t, f),
        None => cancel::shielded(f),
    }
}

/// A thread-safe SpMM server: plans composed once per `(matrix, j)`,
/// cached under a byte budget, executed on the shared worker pool, with
/// per-request fault isolation (see the module docs).
pub struct ServeEngine<T: AtomicScalar, P> {
    planner: P,
    config: ServeConfig,
    /// Where plans live: the RAM shards and the disk tier.
    pub(crate) cache: PlanCache<T>,
    counters: Counters,
    /// Open admission windows for same-fingerprint coalescing.
    coalescer: BatchBoard<T>,
}

impl<T: AtomicScalar, P: Planner<T>> ServeEngine<T, P> {
    /// Build an engine over a planner. When the config names a
    /// `store_dir`, the disk tier is opened (stray temp files from a
    /// crash are swept) and the RAM cache is **warmed** from it:
    /// records load in placement-score order, each strictly
    /// re-validated — framing CRC, plan-blob CRC, structural bounds,
    /// fingerprint re-check — until the RAM byte budget is reached.
    /// A store directory that cannot be opened degrades the engine to
    /// RAM-only rather than failing construction. With a store, the
    /// engine also starts one named demotion writer thread; dropping the
    /// engine drains its queue and joins it.
    pub fn new(planner: P, config: ServeConfig) -> Self {
        ServeEngine {
            planner,
            cache: PlanCache::open(&config),
            config,
            counters: Counters::default(),
            coalescer: BatchBoard::new(),
        }
    }

    /// Persist every currently cached RAM CELL plan to the disk tier —
    /// the snapshot a restart warms from. Queued demotions are drained
    /// first ([`flush_demotions`](Self::flush_demotions)). Returns the
    /// number of RAM plans written, or `Ok(0)` without a store. Poisoned
    /// slots are skipped (a quarantined plan must never resurrect
    /// through a snapshot), and so are fixed-CSR verdicts: they hold no
    /// operand, and recomposing one is cheaper than reading a record.
    pub fn snapshot(&self) -> LfResult<usize> {
        self.cache.snapshot()
    }

    /// Block until every demotion queued so far has reached the disk
    /// tier. Evicted plans are written by a background writer, so the
    /// `demotions` and `evicted_bytes` counters (and `store_bytes`)
    /// trail the evictions that cause them until a flush. Dropping the
    /// engine flushes too; a process killed before that may lose queued
    /// demotions, never a whole record. A no-op without a store.
    pub fn flush_demotions(&self) {
        self.cache.flush_demotions();
    }

    /// The planner behind the engine.
    pub fn planner(&self) -> &P {
        &self.planner
    }

    /// Serve a raw CSR payload: validates it (rejecting malformed input
    /// with a typed error before the fingerprinter, the cache, or any
    /// counter other than `rejected` is touched), fingerprints it, then
    /// runs the cached or freshly composed plan against `b`.
    pub fn serve(&self, csr: &CsrMatrix<T>, b: &DenseMatrix<T>) -> LfResult<ServeOutcome<T>> {
        let checked = if self.config.reject_nonfinite {
            csr.validate_finite()
        } else {
            csr.validate()
        };
        if let Err(e) = checked {
            bump(&self.counters.rejected, 1);
            return Err(e.into());
        }
        let fp = Fingerprint::of_csr(csr);
        self.serve_keyed(&fp, csr, b)
    }

    /// Serve a registered handle: skips validation (done at
    /// registration) and fingerprinting entirely. The request runs
    /// against one consistent `(fingerprint, payload)` snapshot, so a
    /// concurrent [`apply_updates`](Self::apply_updates) can never pair
    /// this request's result with the wrong generation — an in-flight
    /// request pinned to the old epoch completes on the old payload
    /// (the `Arc` keeps it alive) and lands in its ledger class
    /// normally.
    pub fn serve_handle(
        &self,
        h: &MatrixHandle<T>,
        b: &DenseMatrix<T>,
    ) -> LfResult<ServeOutcome<T>> {
        let (fp, csr) = h.current();
        let out = self.serve_keyed(&fp, &csr, b);
        // Publish-time epoch re-check (the mutation-side mirror of the
        // deadline re-check at the classification point): if the handle
        // moved on while this request ran, any plan the request
        // admitted under the snapshot key is already stale — and may
        // have been admitted *after* the updater's sweep passed. Sweep
        // the snapshot key again so the stale entry cannot outlive the
        // race. (The served result itself is fine: it answers the
        // snapshot the caller handed in.)
        if h.epoch() != fp.epoch {
            self.cache.retire_epoch(&fp);
        }
        out
    }

    /// Pre-compose a handle's plan for width `j` (admission-warming).
    /// Returns `Ok(true)` if a plan was composed, `Ok(false)` on an
    /// existing cached plan or a degraded compose (degraded plans are
    /// never cached). Warming is not a request: it touches no ledger
    /// class.
    pub fn warm(&self, h: &MatrixHandle<T>, j: usize) -> LfResult<bool> {
        let (fp, csr) = h.current();
        let key = (fp, j);
        if self.cache.lookup(&key).is_some() {
            return Ok(false);
        }
        let slot = self.compose_guarded(Self::digest(&key), &csr, j, fp.epoch)?;
        if slot.plan.degraded {
            return Ok(false);
        }
        self.cache.admit(key, slot, 0);
        if h.epoch() != fp.epoch {
            self.cache.retire_epoch(&fp);
            return Ok(false);
        }
        Ok(true)
    }

    /// Apply an edge-delta batch to a registered handle **and** bring
    /// both cache tiers to the new epoch (DESIGN.md §15):
    ///
    /// 1. the handle commits the batch atomically
    ///    ([`MatrixHandle::apply_updates`]) — from this instant every
    ///    lookup misses the old generation, because the epoch is part of
    ///    the cache key;
    /// 2. unless churn crossed [`lf_cost::churn_threshold`], cached CELL
    ///    plans for the retired fingerprint are **migrated**: their CELL
    ///    payload is incrementally re-bucketed into a successor
    ///    ([`lf_cell::updated_cell`] — bitwise-identical to a rebuild,
    ///    each byte copied once) and re-admitted under the new key, so
    ///    the next serve hits instead of recomposing;
    /// 3. stale plans are retired RAM-first, then disk
    ///    ([`Self::sweep_stale`]) — counted in
    ///    [`ServeStats::stale_evicted`].
    ///
    /// Failures leave nothing half-applied: a rejected batch (typed
    /// [`SparseError`]) changes neither the handle nor the caches; a
    /// failed migration just skips the plan (the sweep still retires the
    /// stale copy and the next serve recomposes); an aborted sweep
    /// leaves the retired fingerprint on the handle's list for the next
    /// sweep to retry. In-flight requests pinned to the old epoch
    /// complete on the old payload and are accounted normally.
    pub fn apply_updates(
        &self,
        h: &MatrixHandle<T>,
        updates: &[EdgeUpdate<T>],
    ) -> LfResult<UpdateOutcome> {
        let delta = h.apply_updates(updates)?;
        let migrated = if delta.rebuild {
            0
        } else {
            self.migrate_plans(&delta)
        };
        let swept = self.sweep_stale(h);
        Ok(UpdateOutcome {
            epoch: delta.fingerprint.epoch,
            fingerprint: delta.fingerprint,
            touched_rows: delta.touched_rows,
            rebuild: delta.rebuild,
            migrated,
            swept,
        })
    }

    /// Migrate every cached CELL plan keyed by the retired fingerprint
    /// to the new epoch via incremental maintenance. CSR-kernel and
    /// poisoned plans are skipped (swept and recomposed on demand); a
    /// panicking or failing migration skips that plan the same way.
    /// Returns how many plans were re-admitted under the new key.
    fn migrate_plans(&self, delta: &AppliedDelta<T>) -> usize {
        let mut migrated = 0usize;
        for (j, slot) in self.cache.plans_for(&delta.old_fingerprint) {
            let (Some(config), Some(cell)) = (slot.plan.cell_config(), slot.plan.cell()) else {
                continue;
            };
            let rebucketed = catch_unwind(AssertUnwindSafe(|| {
                lf_cell::updated_cell(cell, &delta.csr, &delta.touched)
            }));
            let Ok(Ok(cell)) = rebucketed else { continue };
            let plan = PreparedPlan::from_cell(config.clone(), cell, slot.plan.profile)
                .with_tuned_j(slot.plan.tuned_j)
                .with_epoch(delta.fingerprint.epoch);
            if self
                .cache
                .admit((delta.fingerprint, j), PlanSlot::new(plan, slot.cost_ns), 0)
            {
                migrated += 1;
            }
        }
        migrated
    }

    /// Retire every stale-epoch plan for the handle's retired
    /// fingerprints — RAM first (so a promotion can't resurrect what RAM
    /// just dropped), then disk. Returns `true` when every retired
    /// fingerprint was confirmed clean in both tiers (and forgotten);
    /// `false` means a sweep was aborted and the fingerprint stays on
    /// the handle's retired list for the next sweep — stale entries are
    /// unreachable meanwhile (the epoch is part of every key), just not
    /// yet reclaimed.
    pub fn sweep_stale(&self, h: &MatrixHandle<T>) -> bool {
        let retired = h.retired();
        let done = self.cache.retire_epochs(&retired);
        h.clear_retired(&done);
        done.len() == retired.len()
    }

    /// Stable per-`(matrix, j)` key for planner failure memory.
    fn digest(key: &Key) -> u64 {
        key.0.digest() ^ (key.1 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Claim an in-flight slot or reject with [`LfError::Overloaded`].
    fn try_admit(&self) -> LfResult<InflightPermit<'_>> {
        let max = self.config.max_inflight;
        let inflight = self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        if max != 0 && inflight >= max {
            self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
            return Err(LfError::Overloaded {
                inflight,
                max_inflight: max,
            });
        }
        Ok(InflightPermit {
            gauge: &self.counters.inflight,
        })
    }

    fn serve_keyed(
        &self,
        fp: &Fingerprint,
        csr: &CsrMatrix<T>,
        b: &DenseMatrix<T>,
    ) -> LfResult<ServeOutcome<T>> {
        let t0 = Instant::now();
        if csr.cols() != b.rows() {
            bump(&self.counters.rejected, 1);
            return Err(LfError::InvalidInput(SparseError::DimensionMismatch {
                op: "serve",
                lhs: csr.shape(),
                rhs: b.shape(),
            }));
        }
        let _permit = match self.try_admit() {
            Ok(p) => p,
            Err(e) => {
                bump(&self.counters.rejected, 1);
                return Err(e);
            }
        };
        let token = self
            .config
            .deadline_ms
            .map(|ms| CancelToken::with_deadline(t0 + Duration::from_millis(ms)));
        let settled = self.serve_routed(fp, csr, b, token.as_ref());
        let serve_wall_s = t0.elapsed().as_secs_f64();
        bump(&self.counters.serve_wall_ns, (serve_wall_s * 1e9) as u64);
        // The single classification point: exactly one ledger class per
        // admitted request, keeping the stats identity exact.
        match settled {
            Ok(mut out) => {
                if token.as_ref().is_some_and(|t| t.is_cancelled()) {
                    // Publish-time re-check: the group may have finished
                    // a shielded final chunk (reference rescue, an
                    // execute other members still wanted) after this
                    // request's deadline fired. A fired deadline is
                    // always `DeadlineExceeded` — never late output.
                    bump(&self.counters.failed, 1);
                    return Err(LfError::DeadlineExceeded { stage: "publish" });
                }
                let class = if out.degraded {
                    &self.counters.degraded
                } else if out.hit {
                    &self.counters.hits
                } else {
                    &self.counters.misses
                };
                bump(class, 1);
                out.serve_wall_s = serve_wall_s;
                Ok(out)
            }
            Err(e) => {
                bump(&self.counters.failed, 1);
                Err(e)
            }
        }
    }

    /// Route an admitted request: through the coalescer when batching is
    /// on and the request can afford the window; otherwise — or when the
    /// coalescer did not serve it — as a group of one with no window.
    fn serve_routed(
        &self,
        fp: &Fingerprint,
        csr: &CsrMatrix<T>,
        b: &DenseMatrix<T>,
        token: Option<&CancelToken>,
    ) -> Resolution<T> {
        if self.batch_eligible(token) {
            if let Some(settled) = self.serve_coalesced(fp, csr, b, token) {
                return settled;
            }
        }
        self.serve_group(&Group {
            fp,
            csr,
            b,
            token,
            joiners: &[],
        })
    }

    /// Whether an admitted request may enter the coalescing window.
    /// A late joiner whose remaining deadline budget cannot cover the
    /// window *plus* a fused run of comparable scale runs as a group of one
    /// instead of joining (and then failing out of) a batch.
    fn batch_eligible(&self, token: Option<&CancelToken>) -> bool {
        let window = self.config.batch_window_us;
        if window == 0 {
            return false;
        }
        match token {
            None => true,
            Some(t) => {
                if t.is_cancelled() {
                    return false;
                }
                match t.deadline() {
                    None => true,
                    Some(d) => {
                        let budget = Duration::from_micros(window.saturating_mul(2));
                        Instant::now()
                            .checked_add(budget)
                            .is_some_and(|need| need < d)
                    }
                }
            }
        }
    }

    /// Serve the request through the coalescer. `None` means it was not
    /// served there — no room under the width cap, nobody joined its
    /// window, or its group dissolved — and the caller serves it as a
    /// group of one.
    fn serve_coalesced(
        &self,
        fp: &Fingerprint,
        csr: &CsrMatrix<T>,
        b: &DenseMatrix<T>,
        token: Option<&CancelToken>,
    ) -> Option<Resolution<T>> {
        /// Liveness backstop for a member waiting on its leader — never
        /// reached in normal operation (a `ResolveGuard` releases
        /// members even when the leader unwinds).
        const JOIN_BACKSTOP: Duration = Duration::from_secs(60);
        let t_enter = Instant::now();
        let max_j = self.config.max_batch_j.max(1);
        if b.cols() >= max_j {
            // Wide enough to fill a whole batch alone: nothing to fuse.
            return None;
        }
        let settled = match self.coalescer.admit(fp, b, token, max_j) {
            Admission::Full => return None,
            Admission::Joined(slot) => slot.wait(JOIN_BACKSTOP),
            Admission::Leader(group) => {
                let window = Duration::from_micros(self.config.batch_window_us);
                group.await_window(window, max_j);
                let joiners = self.coalescer.close(fp, &group);
                // Whatever happens below — including a panic unwinding
                // through this frame — no joiner may be left waiting.
                let _guard = ResolveGuard::new(&joiners);
                // Nobody joined: the leader runs as a group of one
                // outside the coalescer; the window wait stays on its
                // own clock.
                (!joiners.is_empty()).then(|| {
                    self.serve_group(&Group {
                        fp,
                        csr,
                        b,
                        token,
                        joiners: &joiners,
                    })
                })
            }
        };
        bump(
            &self.counters.batch_wait_ns,
            t_enter.elapsed().as_nanos() as u64,
        );
        settled
    }

    /// Serve one group: resolve its plan and execute it once, both under
    /// the group token, then settle every member by its **own** token.
    /// Returns member 0's resolution; joiners are settled through their
    /// slots. The execute runs over `g.csr`, member 0's own matrix: every
    /// member shares its fingerprint, and a fixed-CSR verdict holds no
    /// operand of its own.
    ///
    /// The plan is resolved at the fused width `Σ jᵢ`, so a plan tuned
    /// for one member's narrow `j` never serves a wide execute. A member
    /// whose deadline fired gets `DeadlineExceeded`, never late output.
    /// After an execute panic the plan is quarantined once and each
    /// member is rescued on its own: the shielded reference kernel,
    /// then a re-check of the member's token. A typed kernel error fails
    /// a group of one; a larger group dissolves into groups of one.
    fn serve_group(&self, g: &Group<'_, T>) -> Resolution<T> {
        let bs: Vec<&DenseMatrix<T>> = iter::once(g.b)
            .chain(g.joiners.iter().map(|m| &m.b))
            .collect();
        let key = (*g.fp, bs.iter().map(|b| b.cols()).sum());
        let digest = Self::digest(&key);
        let token = g.token();
        // A failed compose fails member 0 with its typed error, exactly as
        // a solo compose would; the coalescer's guard dissolves the
        // joiners.
        let (slot, hit, compose) =
            scoped(token.as_ref(), || self.resolve_plan(&key, g.csr, digest))?;
        let run = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::ExecutePanic) {
                    panic!("chaos: injected execute panic");
                }
            }
            scoped(token.as_ref(), || slot.plan.run_batched_on(g.csr, &bs))
        }));
        let batched = !g.joiners.is_empty();
        let mut panicked = None;
        let results = match run {
            Ok(Ok(results)) => results,
            Ok(Err(e)) if !batched => return Err(e.into()),
            Ok(Err(_)) => {
                // A typed kernel error — impossible for members that
                // passed ingress validation (widths and rows are
                // checked), but if it ever happens the group dissolves.
                for m in g.joiners {
                    m.slot.dissolve();
                }
                return self.serve_group(&Group { joiners: &[], ..*g });
            }
            Err(payload) => {
                panicked = Some(panic_detail(payload.as_ref()));
                self.cache.quarantine(&key, &slot);
                self.planner.record_failure(digest);
                Vec::new()
            }
        };
        if batched {
            bump(&self.counters.batches, 1);
            bump(&self.counters.batched_requests, bs.len() as u64);
        }
        let expired = |t: Option<&CancelToken>| t.is_some_and(CancelToken::is_cancelled);
        let late = || Err(LfError::DeadlineExceeded { stage: "execute" });
        // A member with no result of its own (the execute panicked)
        // takes the last rung of the ladder, shielded so the rescue
        // cannot be cancelled into partial output.
        let settle = |b: &DenseMatrix<T>, t, result: Option<DenseMatrix<T>>, compose| {
            if expired(t) {
                return late();
            }
            let (result, degraded) = match result {
                Some(result) => (result, slot.plan.degraded),
                None => match catch_unwind(AssertUnwindSafe(|| {
                    cancel::shielded(|| g.csr.spmm_reference(b))
                })) {
                    Ok(Ok(_)) if expired(t) => return late(),
                    Ok(Ok(result)) => (result, true),
                    _ => {
                        return Err(LfError::ExecutePanicked {
                            detail: panicked.clone().unwrap_or_default(),
                        })
                    }
                },
            };
            Ok(ServeOutcome {
                result,
                hit,
                degraded,
                fingerprint: *g.fp,
                compose,
                serve_wall_s: 0.0,
                batched,
            })
        };
        let mut results = results.into_iter();
        let own = settle(g.b, g.token, results.next(), compose);
        for m in g.joiners {
            m.slot
                .resolve(settle(&m.b, m.token.as_ref(), results.next(), None));
        }
        own
    }

    /// Resolve the plan for `key` — the one place a request finds its
    /// plan: RAM lookup, then disk promotion (a hit either way), then a
    /// fresh compose admitted to the cache. Degraded plans are served
    /// but never cached: the cache must only amortize *intended*
    /// compositions. Returns the plan, whether it was cached, and the
    /// compose profile when one ran.
    fn resolve_plan(
        &self,
        key: &Key,
        csr: &CsrMatrix<T>,
        digest: u64,
    ) -> LfResult<(Arc<PlanSlot<T>>, bool, Option<PreprocessProfile>)> {
        if let Some(slot) = self.cache.lookup(key).or_else(|| self.cache.promote(key)) {
            return Ok((slot, true, None));
        }
        let slot = self.compose_guarded(digest, csr, key.1, key.0.epoch)?;
        if !slot.plan.degraded {
            self.cache.admit(*key, Arc::clone(&slot), 0);
        }
        let profile = slot.plan.profile;
        Ok((slot, false, Some(profile)))
    }

    /// Compose on the calling thread (no locks held) under
    /// `catch_unwind`, recording the cold cost. A fixed-CSR plan is
    /// returned as its verdict: a planner that hands back a copy of
    /// `csr` has it dropped here, so no cached plan holds the operand
    /// its requests already carry. Allocation counters are
    /// process-wide, so concurrent misses attribute each other's traffic
    /// to both — the totals stay an upper bound per request and exact in
    /// aggregate intent (see `lf-sim`'s allocator docs).
    fn compose_guarded(
        &self,
        digest: u64,
        csr: &CsrMatrix<T>,
        j: usize,
        epoch: u64,
    ) -> LfResult<Arc<PlanSlot<T>>> {
        if cancel::cancelled() {
            return Err(LfError::DeadlineExceeded { stage: "compose" });
        }
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            StageStats::measure(|| self.planner.prepare_keyed(digest, csr, j))
        }));
        match attempt {
            Ok((outcome, stats)) => {
                bump(&self.counters.cold_wall_ns, (stats.wall_s * 1e9) as u64);
                bump(&self.counters.cold_alloc_calls, stats.alloc_calls);
                bump(&self.counters.cold_alloc_bytes, stats.alloc_bytes);
                // Stamp the operand's epoch: the disk tier refuses any
                // record whose key and blob epochs disagree, so a plan
                // composed for a mutated handle must carry its
                // generation from birth.
                let plan = outcome?.with_epoch(epoch).into_verdict();
                if cancel::cancelled() {
                    // The deadline fired during composition: the plan is
                    // intact but the request is over budget. Fail fast;
                    // the plan is dropped, not cached.
                    return Err(LfError::DeadlineExceeded { stage: "compose" });
                }
                Ok(PlanSlot::new(plan, (stats.wall_s * 1e9) as u64))
            }
            Err(payload) => {
                // A panic the planner did not contain itself (a
                // ResilientPlanner would have): feed the breaker and
                // fail the request with the typed panic error.
                self.planner.record_failure(digest);
                Err(LfError::ComposePanicked {
                    detail: panic_detail(payload.as_ref()),
                })
            }
        }
    }

    /// Drop every cached plan (counters are preserved).
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// Counter snapshot plus current cache occupancy.
    pub fn stats(&self) -> ServeStats {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut s = ServeStats {
            hits: load(&c.hits),
            misses: load(&c.misses),
            rejected: load(&c.rejected),
            degraded: load(&c.degraded),
            failed: load(&c.failed),
            batches: load(&c.batches),
            batched_requests: load(&c.batched_requests),
            batch_wait_s: load(&c.batch_wait_ns) as f64 / 1e9,
            cold_compose: StageStats {
                wall_s: load(&c.cold_wall_ns) as f64 / 1e9,
                alloc_calls: load(&c.cold_alloc_calls),
                alloc_bytes: load(&c.cold_alloc_bytes),
            },
            serve: StageStats {
                wall_s: load(&c.serve_wall_ns) as f64 / 1e9,
                alloc_calls: 0,
                alloc_bytes: 0,
            },
            ..ServeStats::default()
        };
        self.cache.report(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::FixedCellPlanner;
    use lf_sparse::gen::mixed_regions;
    use lf_sparse::Pcg32;

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&mixed_regions(128, 128, 2500, 4, &mut rng))
    }

    fn engine() -> ServeEngine<f64, FixedCellPlanner> {
        ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default())
    }

    fn assert_ledger_balances(s: &ServeStats) {
        assert_eq!(
            s.requests(),
            s.hits + s.misses + s.rejected + s.degraded + s.failed
        );
    }

    #[test]
    fn miss_then_hit_with_correct_results() {
        let e = engine();
        let a = matrix(1);
        let mut rng = Pcg32::seed_from_u64(99);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();

        let cold = e.serve(&a, &b).unwrap();
        assert!(!cold.hit);
        assert!(!cold.degraded);
        assert!(cold.compose.is_some());
        assert!(cold.result.approx_eq(&want, 1e-9));

        let warm = e.serve(&a, &b).unwrap();
        assert!(warm.hit);
        assert!(warm.compose.is_none());
        assert!(warm.result.approx_eq(&want, 1e-9));

        let s = e.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.rejected, s.degraded, s.failed), (0, 0, 0));
        assert_ledger_balances(&s);
        assert_eq!(s.cached_plans, 1);
        assert!(s.cached_bytes > 0);
        assert!(s.cold_compose.wall_s >= 0.0);
        assert!(s.cold_compose.alloc_bytes > 0);
    }

    #[test]
    fn handle_skips_fingerprinting_and_hits() {
        let e = engine();
        let h = MatrixHandle::new(matrix(3)).unwrap();
        let mut rng = Pcg32::seed_from_u64(97);
        let b = DenseMatrix::random(128, 8, &mut rng);
        assert!(e.warm(&h, 8).unwrap(), "first warm composes");
        assert!(!e.warm(&h, 8).unwrap(), "second warm is a no-op");
        let out = e.serve_handle(&h, &b).unwrap();
        assert!(out.hit, "warmed handle must hit");
        // Payload and handle share the cache entry.
        assert!(e.serve(&h.csr(), &b).unwrap().hit);
    }

    #[test]
    fn dimension_mismatch_is_a_counted_rejection_not_a_cache_entry() {
        let e = engine();
        let a = matrix(40);
        let b = DenseMatrix::<f64>::zeros(64, 8); // wrong inner dim
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::InvalidInput(_)));
        assert!(err.is_rejection());
        let s = e.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.requests(), 1, "rejections are requests too");
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(s.cached_plans, 0);
        assert_ledger_balances(&s);
    }

    #[test]
    fn zero_deadline_fails_typed_before_composing() {
        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                deadline_ms: Some(0),
                ..ServeConfig::default()
            },
        );
        let a = matrix(41);
        let mut rng = Pcg32::seed_from_u64(90);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::DeadlineExceeded { .. }), "{err}");
        let s = e.stats();
        assert_eq!(s.failed, 1);
        assert_eq!(s.cached_plans, 0, "no partial work is cached");
        assert_ledger_balances(&s);
    }

    #[test]
    fn admission_gate_rejects_beyond_max_inflight() {
        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                max_inflight: 1,
                ..ServeConfig::default()
            },
        );
        // Hold the only slot, then serve: the gate must reject.
        let permit = e.try_admit().unwrap();
        let a = matrix(42);
        let mut rng = Pcg32::seed_from_u64(89);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::Overloaded { .. }), "{err}");
        assert!(err.is_rejection());
        assert_eq!(e.stats().rejected, 1);
        // Releasing the permit reopens the gate.
        drop(permit);
        assert!(!e.serve(&a, &b).unwrap().hit);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn nonfinite_payloads_follow_the_policy() {
        let values = vec![1.0, f64::NAN, 2.0];
        let a = CsrMatrix::from_raw_unchecked(2, 2, vec![0, 2, 3], vec![0, 1, 0], values);
        let b = DenseMatrix::<f64>::zeros(2, 4);

        let strict = engine();
        let err = strict.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::InvalidInput(_)), "{err}");
        let s = strict.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!((s.hits, s.misses), (0, 0), "no cache or miss counters");
        assert_eq!(s.cached_plans, 0);

        let lenient = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                reject_nonfinite: false,
                ..ServeConfig::default()
            },
        );
        let out = lenient.serve(&a, &b).unwrap();
        assert!(!out.hit, "lenient policy serves non-finite payloads");
    }

    #[test]
    fn malformed_payload_rejected_before_fingerprint_or_cache() {
        // Satellite bugfix regression: an invalid CSR must produce a
        // typed rejection without touching the cache or miss counters.
        let a = CsrMatrix::<f64>::from_raw_unchecked(
            2,
            2,
            vec![0, 3, 2], // non-monotone row_ptr
            vec![0, 1],
            vec![1.0, 2.0],
        );
        let b = DenseMatrix::<f64>::zeros(2, 4);
        let e = engine();
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::InvalidInput(_)), "{err}");
        let s = e.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!((s.hits, s.misses, s.cached_plans), (0, 0, 0));
        assert_ledger_balances(&s);
    }

    #[test]
    fn a_csr_hit_computes_over_the_requests_own_operand() {
        // A's fixed-CSR verdict is cached under A's key; B (same shape)
        // arrives under A's fingerprint, as after a collision. The hit
        // must compute B's product: a verdict holds no matrix of its own.
        let e = engine();
        let (a, b_mat) = (matrix(60), matrix(61));
        let fa = Fingerprint::of_csr(&a);
        let verdict = PreparedPlan::from_csr(a.clone(), PreprocessProfile::default())
            .with_tuned_j(8)
            .into_verdict();
        assert!(e.cache.admit((fa, 8), PlanSlot::new(verdict, 0), 0));
        let mut rng = Pcg32::seed_from_u64(61);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let out = e.serve_keyed(&fa, &b_mat, &b).unwrap();
        assert!(out.hit && out.compose.is_none(), "served from A's entry");
        let want = b_mat.spmm_reference(&b).unwrap();
        let bits =
            |m: &DenseMatrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.result), bits(&want), "B's product, not A's");
        assert_ne!(bits(&out.result), bits(&a.spmm_reference(&b).unwrap()));
        assert_ledger_balances(&e.stats());
    }

    /// A planner whose plan always panics on execute: its single bucket
    /// stores a column index equal to `cols`, so the kernel's `B`-row
    /// gather is out of bounds. The shape is honest, so ingress
    /// validation and the plan shape check both pass.
    struct BrokenPlanner;

    impl Planner<f64> for BrokenPlanner {
        fn prepare(
            &self,
            csr: &CsrMatrix<f64>,
            _j: usize,
        ) -> liteform_core::LfResult<PreparedPlan<f64>> {
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
    fn deadline_firing_mid_rescue_is_deadline_exceeded_not_late_output() {
        // Satellite regression: the plan panics immediately, and the
        // shielded reference rescue — the request's *final chunk* — runs
        // to completion long after the 5 ms deadline fires (~100 MFLOP
        // on one thread). Before the post-rescue token re-check, the
        // stale rescue result was published as a degraded success; a
        // fired deadline must always be `DeadlineExceeded`.
        let e = ServeEngine::new(
            BrokenPlanner,
            ServeConfig {
                deadline_ms: Some(5),
                ..ServeConfig::default()
            },
        );
        let mut rng = Pcg32::seed_from_u64(7);
        let a: CsrMatrix<f64> =
            CsrMatrix::from_coo(&mixed_regions(1024, 1024, 400_000, 4, &mut rng));
        let b = DenseMatrix::random(1024, 128, &mut rng);
        // Everything before the execute runs outside the deadline: the
        // handle is validated and fingerprinted at registration, and
        // `warm` composes and caches the broken plan (paying the
        // one-time calibration and pool start), so the request goes
        // straight from its cache hit to the panic and the quarantine.
        let h = MatrixHandle::new(a).unwrap();
        assert!(e.warm(&h, b.cols()).unwrap(), "the broken plan is cached");
        let err = e.serve_handle(&h, &b).unwrap_err();
        assert!(matches!(err, LfError::DeadlineExceeded { .. }), "{err}");
        let s = e.stats();
        assert_eq!(s.failed, 1, "a fired deadline is failed, not degraded");
        assert_eq!(s.degraded, 0, "the rescue result was discarded");
        assert_eq!(s.quarantined, 1, "the panicking plan was quarantined");
        assert_ledger_balances(&s);
    }
}
