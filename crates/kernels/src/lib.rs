#![warn(missing_docs)]

//! # lf-kernels
//!
//! SpMM kernels (`C[I×J] = A · B`) for every sparse format in the
//! reproduction, each with two independent paths:
//!
//! * **numeric** — [`SpmmKernel::run`] computes the product on the CPU in
//!   parallel, traversing the kernel's own data structure exactly as its
//!   GPU mapping would (including atomic accumulation where the GPU would
//!   use `atomicAdd`); results are checked against the sequential CSR
//!   reference in every test;
//! * **analytic** — [`SpmmKernel::launches`] walks the same data structure
//!   and emits per-thread-block [`lf_sim::BlockCost`] records (coalesced
//!   transactions, L2/DRAM split, atomics, flops, lane efficiency), which
//!   [`lf_sim::DeviceModel`] turns into simulated time.
//!
//! The kernel mappings mirror the systems in the paper's evaluation:
//!
//! | kernel | paper system | mapping |
//! |---|---|---|
//! | [`CsrScalarKernel`] | naive / TACO default | thread-per-row CSR |
//! | [`CsrVectorKernel`] | cuSPARSE | warp-per-row CSR, col/val re-read per j-tile |
//! | [`DgSparseKernel`] | dgSPARSE (GE-SpMM) | warp-per-row CSR + shared-memory staging |
//! | [`SputnikKernel`] | Sputnik | 1-D tiled CSR + row-swizzle load balancing |
//! | [`TacoKernel`] | TACO (scheduled) | even-nnz merge split, atomics at segment bounds |
//! | [`EllKernel`] | ELL baseline | warp-per-row over the padded grid |
//! | [`SellKernel`] | sliced-ELL baseline | slice-per-block, per-slice widths |
//! | [`BcsrKernel`] | Triton block-sparse | dense tile × dense tile per block |
//! | [`CellKernel`] | **LiteForm CELL** | Algorithm 2: block-per-2^k-nnz, folding + atomics |

pub mod batch;
pub mod bcsr;
pub mod cell;
pub mod common;
pub mod csr;
pub mod ellpack;
pub mod sell;
pub mod simd;
pub mod taco;

pub use batch::{concat_columns, scatter_columns, scatter_crossover};
pub use bcsr::BcsrKernel;
pub use cell::CellKernel;
pub use csr::{
    parallel_csr_spmm_tiled, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, SputnikKernel,
};
pub use ellpack::EllKernel;
pub use sell::SellKernel;
pub use simd::{dispatched_lanes, stream_row, stream_rows, Lanes, Rows, TileParams, MAX_K_BLOCK};
pub use taco::{TacoKernel, TacoSchedule};

use lf_sim::atomicf::AtomicScalar;
use lf_sim::{DeviceModel, KernelProfile, LaunchSpec};
use lf_sparse::{DenseMatrix, Result};

/// A sparse-times-dense kernel bound to a concrete sparse operand.
pub trait SpmmKernel<T: AtomicScalar>: Send + Sync {
    /// Kernel name for reports.
    fn name(&self) -> &'static str;

    /// Shape of the sparse operand `(rows, cols)`.
    fn shape(&self) -> (usize, usize);

    /// Compute `C = A · B` numerically (parallel CPU execution mirroring
    /// the GPU mapping, atomics included).
    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>>;

    /// Emit the launch(es) this kernel issues for a dense operand with `j`
    /// columns, with per-block costs derived from the actual index
    /// streams.
    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec>;

    /// Device memory footprint of the sparse operand in this kernel's
    /// format (drives OOM verdicts).
    fn format_bytes(&self) -> usize;

    /// Simulate the kernel on `device` for a dense operand of `j` columns.
    fn profile(&self, j: usize, device: &DeviceModel) -> KernelProfile {
        KernelProfile::from_launches(&self.launches(j, device), device)
    }

    /// Whether the operand (sparse format + dense in/out) fits in device
    /// memory for `j` dense columns.
    fn fits_in_memory(&self, j: usize, device: &DeviceModel) -> bool {
        let (rows, cols) = self.shape();
        let elem = std::mem::size_of::<T>();
        let dense = (rows + cols) * j * elem;
        self.format_bytes() + dense <= device.memory_capacity
    }
}
