//! Serving-layer configuration.

use crate::store::Placement;
use serde::{Deserialize, Serialize};

/// Serving-layer tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of independent cache shards (lock granularity). Clamped to
    /// ≥ 1.
    pub shards: usize,
    /// Whole-cache byte budget for retained plan memory
    /// ([`PreparedPlan::format_bytes`](liteform_core::PreparedPlan::format_bytes)).
    /// Split evenly across shards; a plan larger than its shard's slice
    /// is served but never admitted.
    pub byte_budget: usize,
    /// Per-request deadline in milliseconds (`None` = unbounded). The
    /// deadline is cooperative: parallel regions notice it between
    /// chunks, the request fails with [`LfError::DeadlineExceeded`](liteform_core::LfError::DeadlineExceeded), and
    /// partial results are discarded, never served.
    pub deadline_ms: Option<u64>,
    /// Admission gate: requests beyond this many already in flight are
    /// rejected with [`LfError::Overloaded`](liteform_core::LfError::Overloaded) (`0` = unlimited).
    pub max_inflight: usize,
    /// Reject payloads containing NaN/Inf values at ingress (`true`,
    /// the default). With `false`, only structural validation runs and
    /// non-finite values propagate into results IEEE-style.
    pub reject_nonfinite: bool,
    /// Same-fingerprint request coalescing: requests arriving within
    /// this admission window (microseconds) fuse into one wide SpMM,
    /// amortizing the sparse index-stream traversal across all of them
    /// (`0` disables coalescing — the default). The window wait counts
    /// against each member's deadline and `serve_wall_s`. See
    /// DESIGN.md §11.
    pub batch_window_us: u64,
    /// Cap on the fused dense width: a batch stops admitting members
    /// once the sum of their B widths would exceed this many columns
    /// (reaching it closes the window early). A request at least this
    /// wide on its own always runs solo. Ignored when coalescing is off.
    pub max_batch_j: usize,
    /// Directory for the disk tier of the plan cache (`None` disables
    /// it — the default). With a store, RAM-evicted CELL plans are
    /// demoted to disk instead of dropped (fixed-CSR verdicts, cheaper to
    /// recompose than to read back, are still dropped), RAM misses check
    /// disk before composing, and engine construction **warms** the cache from the
    /// directory (every record strictly re-validated; failures are
    /// counted in `warm_rejected` and never served). See DESIGN.md §13.
    pub store_dir: Option<String>,
    /// Byte budget for the disk tier's record files (`0` = unbounded).
    /// Exceeding it evicts records by the placement policy's score.
    pub disk_budget_bytes: usize,
    /// Which placement policy ranks disk-tier records for retention.
    pub placement: Placement,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            byte_budget: 256 << 20,
            deadline_ms: None,
            max_inflight: 0,
            reject_nonfinite: true,
            batch_window_us: 0,
            max_batch_j: 256,
            store_dir: None,
            disk_budget_bytes: 0,
            placement: Placement::CostAware,
        }
    }
}
