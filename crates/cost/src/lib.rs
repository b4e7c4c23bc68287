#![warn(missing_docs)]

//! # lf-cost
//!
//! LiteForm's SpMM cost model and search algorithms (§5.3):
//!
//! * [`model`] — Eq. 5–7: a bucket `x` of width `W` with `I⁽¹⁾` bucket
//!   rows and `|set(Ind)|` distinct columns costs
//!   `cost(x) = 2·I⁽¹⁾·W + |set(Ind)|·J + I⁽¹⁾·J`
//!   (the `Atomic = I⁽¹⁾/I⁽²⁾` weight of Eq. 6 folds the third term to
//!   `I⁽¹⁾·J`, covering folded rows and multi-partition writes);
//! * [`search`] — Algorithm 3 (`BuildBuckets`): a doubling binary search
//!   over the partition's maximum bucket width driven by the cost model,
//!   plus the exhaustive reference used to validate it;
//! * [`partition`] — the ground-truth partition-count tuner that sweeps
//!   candidate `P` on the simulator (used to label Table 6 training data
//!   and as SparseTIR-style "optimal" tuning in the baselines).

pub mod model;
pub mod partition;
pub mod search;
pub mod tile;
pub mod update;

pub use model::{bucket_cost, partition_cost, BucketSketch, PartitionSketch};
pub use partition::{optimal_partitions, PARTITION_CANDIDATES};
pub use search::{build_buckets, exhaustive_best_width, tune_width};
pub use tile::{
    plan_tile, predict_stream_ns, search_tile, tile_cache_stats, RowStream, TileFeatures,
};
pub use update::{churn_cache_stats, churn_threshold, should_rebuild};
