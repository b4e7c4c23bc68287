#![warn(missing_docs)]

//! # lf-serve
//!
//! A thread-safe SpMM **serving engine** over the LiteForm composer.
//!
//! The paper's whole argument (§6.4, Figures 8–9) is that composition
//! overhead must be *amortized across repeated multiplications on the
//! same matrix* — one compose, many executions. Up to now every
//! `LiteForm::spmm` call re-ran feature extraction, model inference,
//! width search and CELL construction from scratch. This crate adds the
//! amortization path as a long-lived service:
//!
//! * [`Fingerprint`] — cheap matrix identity (dims + nnz +
//!   row-pointer/column-index/value hashes, one O(nnz) pass);
//! * [`Planner`] — a plan source: the trained [`LiteForm`] pipeline,
//!   which serves a fixed-CSR verdict or CELL at one partition,
//!   whichever a CPU cost prices cheaper (the partition predictor's
//!   `p > 1` plans never paid on this engine);
//!   [`FixedCellPlanner`] and [`PinnedLiteForm`] for pinned partition
//!   counts; or [`ResilientPlanner`] wrapping any of them with a
//!   per-matrix circuit breaker and graceful degradation to the
//!   baseline CSR format;
//! * [`ServeEngine`] — concurrent requests ([`MatrixHandle`] or CSR
//!   payload, dense `B`) served through one path: a solo request is a
//!   group of one, a coalesced batch a larger group, and each group
//!   resolves one plan, executes it once, and settles every member by
//!   its own deadline; plus a disjoint outcome ledger
//!   (hit/miss/rejected/degraded/failed, [`ServeStats`]);
//! * the plan cache behind it — a sharded LRU of [`PreparedPlan`]s
//!   keyed by `(fingerprint, j)` under a configurable byte budget, with
//!   an optional crash-safe disk tier ([`PlanStore`]) that evicted CELL
//!   plans demote to and restarts warm from;
//! * **fault isolation** (DESIGN.md §10) — strict input validation with
//!   typed [`LfError`](liteform_core::LfError) rejections, per-request
//!   `catch_unwind` containment, poisoned-plan quarantine, cooperative
//!   deadlines, and a `max_inflight` admission gate;
//! * execution on the **shared** `lf_sim` worker pool — no
//!   pool-per-request churn (asserted by the stress suite).
//!
//! ```
//! use lf_serve::{FixedCellPlanner, ServeConfig, ServeEngine};
//! use lf_sparse::{gen::mixed_regions, CsrMatrix, DenseMatrix, Pcg32};
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let a: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(256, 256, 4000, 4, &mut rng));
//! let b = DenseMatrix::random(256, 32, &mut rng);
//!
//! let engine = ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default());
//! let cold = engine.serve(&a, &b).unwrap();   // composes
//! let warm = engine.serve(&a, &b).unwrap();   // cache hit
//! assert!(!cold.hit && warm.hit);
//! assert_eq!(engine.stats().requests(), 2);
//! ```
//!
//! [`LiteForm`]: liteform_core::LiteForm
//! [`PreparedPlan`]: liteform_core::PreparedPlan

pub(crate) mod batch;
pub(crate) mod cache;
mod config;
pub mod engine;
pub mod fingerprint;
mod handle;
pub mod planner;
mod stats;
pub mod store;

/// Lock a serving mutex, recovering the guard if a panicking holder
/// poisoned it. Sound for every lock in this crate: each update to the
/// data they guard leaves it valid at every step (a panic mid-request is
/// contained per request, DESIGN.md §10, and must not wedge the engine).
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Wait on a condition variable with a guard from [`lock`], recovering
/// the guard the same way if the lock was poisoned meanwhile.
pub(crate) fn wait<'a, T>(
    cv: &std::sync::Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use engine::{
    AppliedDelta, MatrixHandle, ServeConfig, ServeEngine, ServeOutcome, ServeStats, UpdateOutcome,
};
pub use fingerprint::Fingerprint;
pub use planner::{FixedCellPlanner, PinnedLiteForm, Planner, ResilientPlanner};
pub use store::{is_stale_epoch, Placement, PlanStore, RecordMeta, StoreConfig, WarmLoads};
