#![warn(missing_docs)]

//! # lf-sparse
//!
//! Foundation crate of the LiteForm reproduction: dense and sparse matrix
//! types, format conversions, matrix feature extraction, deterministic
//! random generators for synthetic workloads, and Matrix Market IO.
//!
//! The sparse formats implemented here are the *elementwise* and classic
//! *blockwise* formats surveyed in §2.1 of the paper:
//!
//! * [`CooMatrix`] — coordinate list
//! * [`CsrMatrix`] — compressed sparse row
//! * [`EllMatrix`] — Ellpack with left-packed rows and zero padding
//! * [`SellMatrix`] — sliced Ellpack (per-slice width)
//! * [`BcsrMatrix`] — block compressed sparse row (zero-padded dense blocks)
//!
//! The paper's own composable CELL format lives in the `lf-cell` crate and
//! is built from [`CsrMatrix`].

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod ell;
pub mod error;
pub mod features;
pub mod gen;
pub mod io;
pub mod rng;
pub mod scalar;
pub mod sell;
pub mod update;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use ell::EllMatrix;
pub use error::SparseError;
pub use features::{FormatFeatures, PartitionFeatures, RowStats};
pub use rng::Pcg32;
pub use scalar::Scalar;
pub use sell::SellMatrix;
pub use update::{validate_updates, EdgeUpdate};

/// Index type used for row/column indices inside sparse formats.
///
/// GPU sparse libraries almost universally use 32-bit indices; keeping that
/// convention makes the memory-footprint accounting (used for the Triton
/// OOM reproduction) faithful.
pub type Index = u32;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
