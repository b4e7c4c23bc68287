//! What the engine reports: each request's and each update's outcome,
//! and the counter snapshot whose ledger classes they land in.

use crate::fingerprint::Fingerprint;
use lf_sparse::DenseMatrix;
use liteform_core::{PreprocessProfile, StageStats};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Add `by` to a relaxed event counter.
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// What [`ServeEngine::apply_updates`](crate::ServeEngine::apply_updates) did: the committed delta's new
/// identity plus the cache maintenance that followed it.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// The handle's epoch after the batch.
    pub epoch: u64,
    /// The handle's fingerprint after the batch.
    pub fingerprint: Fingerprint,
    /// Distinct rows the batch touched.
    pub touched_rows: usize,
    /// `true` when churn crossed the measured crossover and cached plans
    /// were dropped for lazy recomposition instead of migrated.
    pub rebuild: bool,
    /// Cached plans incrementally migrated to the new epoch (0 when
    /// `rebuild` is set, or when nothing was cached).
    pub migrated: usize,
    /// Whether every retired fingerprint was confirmed swept from both
    /// tiers (`false` only under injected sweep faults; the handle
    /// retries on its next sweep).
    pub swept: bool,
}

/// One served request's result and accounting.
#[derive(Debug)]
pub struct ServeOutcome<T> {
    /// The product `C = A · B`.
    pub result: DenseMatrix<T>,
    /// Whether the plan came from the cache.
    pub hit: bool,
    /// Whether the result came from the degradation ladder (a degraded
    /// fallback plan, or the reference-CSR rescue after an execution
    /// panic). Degraded results are exact; only the format is baseline.
    pub degraded: bool,
    /// The request's cache key fingerprint.
    pub fingerprint: Fingerprint,
    /// Composition instrumentation — `Some` exactly when this request
    /// composed a plan (cache misses, including degraded composes; for
    /// a coalesced request, only the batch leader's compose).
    pub compose: Option<PreprocessProfile>,
    /// End-to-end wall seconds for this request (lookup + compose if
    /// cold + execution; for coalesced requests this *includes* the
    /// admission-window wait and the scatter copy, so latency
    /// percentiles over it never understate batched requests).
    pub serve_wall_s: f64,
    /// Whether this request was resolved by a fused (coalesced) execute
    /// shared with other same-fingerprint requests.
    pub batched: bool,
}

/// Counter snapshot, [`StageStats`]-style: wall clock plus allocation
/// counters where the engine measures them.
///
/// The five request classes are disjoint and exhaustive — every call to
/// `serve`/`serve_handle` bumps exactly one of `hits`, `misses`,
/// `rejected`, `degraded`, `failed`, so
/// [`ServeStats::requests`]` == hits + misses + rejected + degraded +
/// failed` holds exactly at every quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests answered from the cache (and executed cleanly).
    pub hits: u64,
    /// Requests that composed a plan (and executed cleanly).
    pub misses: u64,
    /// Requests rejected at ingress: invalid payload, dimension
    /// mismatch, or the admission gate ([`LfError::is_rejection`](liteform_core::LfError::is_rejection)).
    pub rejected: u64,
    /// Requests answered through the degradation ladder: the result is
    /// exact but came from a baseline-format fallback.
    pub degraded: u64,
    /// Requests that failed after admission with a typed error
    /// (deadline exceeded, contained panic with no fallback, compose
    /// failure).
    pub failed: u64,
    /// Plans evicted to make room under the byte budget.
    pub evictions: u64,
    /// Bytes of evicted plans that were **dropped outright** — no disk
    /// tier, the store write failed, the plan was poisoned, or it was a
    /// fixed-CSR verdict (cheaper to recompose than to read back). With
    /// `demotions`, this splits every eviction by what happened to the
    /// bytes.
    pub evicted_bytes: u64,
    /// Evicted plans successfully demoted to the disk tier (a later
    /// miss can promote them back instead of recomposing).
    pub demotions: u64,
    /// RAM misses answered by a validated disk-tier record. Disk hits
    /// land in the `hits` ledger class; this counter splits them out.
    pub disk_hits: u64,
    /// Disk-tier records re-admitted into the RAM cache (a disk hit
    /// whose plan also fit its shard's budget slice).
    pub promotions: u64,
    /// Plans loaded into RAM by startup cache warming from the disk
    /// tier (each strictly re-validated first).
    pub warm_loaded: u64,
    /// Persisted records rejected by strict validation — bad framing,
    /// checksum mismatch, version drift, stale fingerprint — at warm or
    /// promotion time. Rejected records are deleted and recomposed on
    /// demand; they are **never served**. Retired-**epoch** rejections
    /// are split out into `stale_evicted`.
    pub warm_rejected: u64,
    /// Stale-epoch plans retired across both cache tiers: RAM entries
    /// swept after an update batch (or by the publish-time epoch
    /// re-check), disk records deleted by the epoch sweep, and disk
    /// records *refused* by read-side validation because their epoch was
    /// retired. Evicted, never corrupted: none of these were served.
    pub stale_evicted: u64,
    /// Plans too large for their shard's budget slice (served, never
    /// admitted).
    pub oversized: u64,
    /// Cached plans poisoned by an execution panic and evicted by the
    /// quarantine protocol (exactly once per plan).
    pub quarantined: u64,
    /// Fused executes performed by the coalescer (each covering ≥ 2
    /// member requests).
    pub batches: u64,
    /// Requests resolved by a fused execute — including members that
    /// failed on their own deadline and members rescued per-request
    /// after a fused panic. Requests whose window dissolved back to a
    /// solo run are not counted.
    pub batched_requests: u64,
    /// Accumulated wall seconds request threads spent inside the
    /// coalescer (admission-window wait through scatter). Already part
    /// of `serve`; split out for visibility.
    pub batch_wait_s: f64,
    /// Accumulated cold-compose cost across all misses (wall + allocs,
    /// via the `lf-sim` counting allocator).
    pub cold_compose: StageStats,
    /// Accumulated end-to-end serve wall time across all admitted
    /// requests (allocation fields unused).
    pub serve: StageStats,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// Bytes currently charged against the budget.
    pub cached_bytes: usize,
    /// Bytes currently held by the disk tier's record files (0 when the
    /// store is disabled).
    pub store_bytes: usize,
}

impl ServeStats {
    /// Total requests, over all five disjoint outcome classes.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.rejected + self.degraded + self.failed
    }

    /// Fraction of cleanly executed plan requests answered from the
    /// cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            return 0.0;
        }
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}
