#![warn(missing_docs)]

//! # lf-cell
//!
//! The **Composable Ellpack (CELL)** format — the paper's primary data
//! structure (§4, Figures 3–5).
//!
//! CELL is a three-level blockwise layout:
//!
//! 1. **Column partitions** — the column space is divided into `P` equal
//!    partitions; every partition stores its own sub-matrix, so a long row
//!    is broken into per-partition pieces and padding is decided locally.
//! 2. **Row buckets** — within a partition, rows are grouped by length:
//!    bucket `i` has width `2^i` and holds rows with `2^(i-1) < l ≤ 2^i`.
//!    Rows longer than the partition's maximum bucket width are *folded*:
//!    split across several bucket rows that share the original row index
//!    in `row_ind` (their partial sums are combined with atomics).
//! 3. **Blocks** — inside bucket `i`, every `2^(k-i)` rows form a block of
//!    `2^k` non-zero slots, the unit mapped to one GPU thread block. `2^k`
//!    is one or more times the partition's maximum bucket width.
//!
//! Unlike SparseTIR's `hyb`, each partition chooses its own set of bucket
//! widths ([`CellConfig::max_widths`]); forcing a single shared cap across
//! partitions reproduces `hyb` exactly, which is how `lf-baselines` models
//! SparseTIR.

pub mod build;
pub mod config;
pub mod matrix;
pub mod span;
pub mod update;

pub use build::{build_cell, build_cell_reference};
pub use config::CellConfig;
pub use matrix::{Bucket, CellMatrix, Partition};
pub use span::{effective_partitions, partition_of_col, partition_spans, SpanMap};
pub use update::{update_cell, updated_cell};
