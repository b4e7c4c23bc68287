//! The LiteForm composer: the runtime pipeline of Figure 2.

use crate::predictor::PartitionPredictor;
use crate::profile::{PreprocessProfile, StageStats};
use crate::selector::FormatSelector;
use lf_cell::{build_cell, effective_partitions, CellConfig, CellMatrix};
use lf_cost::search::optimal_widths_for_matrix;
use lf_cost::tile::{plan_tile, TileFeatures};
use lf_kernels::{parallel_csr_spmm_tiled, CellKernel, CsrVectorKernel, SpmmKernel, TileParams};
use lf_sim::atomicf::AtomicScalar;
use lf_sim::{DeviceModel, KernelProfile};
use lf_sparse::{CsrMatrix, DenseMatrix, FormatFeatures, PartitionFeatures, Result, SparseError};
use serde::{Deserialize, Serialize};

/// Where LiteForm's (real, wall-clock) construction time went — the
/// quantity Figures 8–9 compare against the autotuners' kernel re-runs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OverheadBreakdown {
    /// Feature extraction (both tables) in seconds.
    pub feature_extraction_s: f64,
    /// Format-selection inference in seconds.
    pub selection_inference_s: f64,
    /// Partition-count inference in seconds.
    pub partition_inference_s: f64,
    /// Algorithm-3 bucket-width search in seconds.
    pub width_search_s: f64,
    /// CELL materialization in seconds.
    pub build_s: f64,
}

impl OverheadBreakdown {
    /// Total construction overhead in seconds.
    pub fn total_s(&self) -> f64 {
        self.feature_extraction_s
            + self.selection_inference_s
            + self.partition_inference_s
            + self.width_search_s
            + self.build_s
    }
}

/// Build CELL at `p` column partitions for dense width `j`, recording
/// the width-search and build stages into `profile`. `p` is clamped with
/// [`effective_partitions`]; `tune_widths` runs the Algorithm-3
/// bucket-width search, otherwise buckets keep their natural widths. The
/// one CELL-at-`p` builder behind [`LiteForm::compose`] and the serving
/// layer's fixed-count planners.
pub fn compose_cell_at<T: AtomicScalar>(
    csr: &CsrMatrix<T>,
    p: usize,
    j: usize,
    tune_widths: bool,
    profile: &mut PreprocessProfile,
) -> (CellConfig, CellMatrix<T>) {
    // Clamp up front: `p > cols` would otherwise desync the width
    // vector length from the config's partition count.
    let p = effective_partitions(csr.cols(), p);
    let (widths, stats) =
        StageStats::measure(|| tune_widths.then(|| optimal_widths_for_matrix(csr, p, j)));
    profile.width_search = stats;
    build_cell_at(csr, p, widths, profile)
}

/// Materialize CELL at `p` column partitions under the per-partition
/// width caps `widths` (`None`: natural widths), recording the build
/// stage into `profile`.
///
/// # Panics
///
/// If the configuration is invalid: `p` is 0, `widths` holds neither
/// one cap nor `p`, or a cap is not a power of two.
pub fn build_cell_at<T: AtomicScalar>(
    csr: &CsrMatrix<T>,
    p: usize,
    widths: Option<Vec<usize>>,
    profile: &mut PreprocessProfile,
) -> (CellConfig, CellMatrix<T>) {
    let config = CellConfig {
        num_partitions: p,
        max_widths: widths,
        block_nnz_multiple: 4,
        uniform_block_nnz: true,
    };
    let (cell, stats) =
        StageStats::measure(|| build_cell(csr, &config).expect("clamped config is valid"));
    profile.build = stats;
    (config, cell)
}

/// What the composer decided.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind<T> {
    /// Compose CELL with this configuration.
    Cell {
        /// The chosen configuration.
        config: CellConfig,
        /// The materialized matrix.
        cell: CellMatrix<T>,
    },
    /// Stay on the fixed CSR path.
    FixedCsr,
}

/// A composition decision plus its cost accounting.
#[derive(Debug, Clone)]
pub struct CompositionPlan<T> {
    /// The decision.
    pub kind: PlanKind<T>,
    /// Wall-clock overhead breakdown (the Figures 8–9 quantity).
    pub overhead: OverheadBreakdown,
    /// Per-stage wall clock *and* allocation counters.
    pub profile: PreprocessProfile,
}

impl<T> CompositionPlan<T> {
    /// `true` when the plan composes CELL.
    pub fn uses_cell(&self) -> bool {
        matches!(self.kind, PlanKind::Cell { .. })
    }
}

impl<T: AtomicScalar> CompositionPlan<T> {
    /// Finish the plan into its executable form: bind the chosen kernel
    /// to its operand so the plan can run against any number of dense
    /// operands without re-running selection, width search, or
    /// construction. The CELL path moves the already-built buckets into
    /// the kernel; the fixed-CSR path clones `csr` into the plan.
    pub fn into_prepared(self, csr: &CsrMatrix<T>, tuned_j: usize) -> PreparedPlan<T> {
        let features = TileFeatures::new(csr.rows(), csr.nnz(), std::mem::size_of::<T>());
        let tile = plan_tile(features, tuned_j.max(1));
        let kernel = match self.kind {
            PlanKind::Cell { config, cell } => PreparedKernel::Cell {
                config,
                kernel: CellKernel::tiled(cell, tile),
            },
            PlanKind::FixedCsr => {
                PreparedKernel::FixedCsr(CsrVectorKernel::new(csr.clone()).with_tile(tile))
            }
        };
        PreparedPlan {
            kernel,
            tuned_j,
            features,
            tile,
            overhead: self.overhead,
            profile: self.profile,
            degraded: false,
            epoch: 0,
        }
    }
}

pub(crate) enum PreparedKernel<T: AtomicScalar> {
    Cell {
        config: CellConfig,
        kernel: CellKernel<T>,
    },
    /// Fixed CSR over the plan's own copy of its operand.
    FixedCsr(CsrVectorKernel<T>),
    /// Fixed CSR with no operand: the selector's verdict alone, run over
    /// the operand each execute is handed.
    CsrVerdict { shape: (usize, usize) },
}

/// What a fixed-CSR verdict holds — the operand's shape, its execution
/// tile, tuned width, tile features and epoch — and so the bytes the
/// serving layer's budget charges for one.
const VERDICT_BYTES: usize = std::mem::size_of::<(usize, usize)>()
    + std::mem::size_of::<TileParams>()
    + std::mem::size_of::<usize>()
    + std::mem::size_of::<TileFeatures>()
    + std::mem::size_of::<u64>();

/// The error of executing a verdict with no operand to run over.
fn no_operand() -> SparseError {
    SparseError::InvalidConfig(
        "a fixed-CSR verdict holds no operand: run it with `run_batched_on`".to_string(),
    )
}

/// The executable half of a composition: the chosen kernel with its
/// operand already materialized in the chosen format — or, for a
/// fixed-CSR **verdict**, the decision alone, run over the caller's
/// operand.
///
/// This is the unit the serving layer (`lf-serve`) caches and reuses:
/// building one pays the full Figure-2 pipeline once (recorded in
/// [`PreparedPlan::overhead`] / [`PreparedPlan::profile`]); every
/// subsequent execute is a pure kernel execution with no
/// re-validation, feature extraction, or construction cost.
pub struct PreparedPlan<T: AtomicScalar> {
    pub(crate) kernel: PreparedKernel<T>,
    /// Dense-operand width the plan was tuned for (Algorithm 3's `j`).
    /// The plan stays *correct* for any width, but bucket widths are only
    /// optimal near `tuned_j`.
    pub tuned_j: usize,
    /// Quantized matrix-family features the execution tile was planned
    /// against (kept so fused runs can re-plan at the fused width).
    pub(crate) features: TileFeatures,
    /// The cost-model-tuned execution tile bound into the kernel.
    pub(crate) tile: TileParams,
    /// Wall-clock overhead breakdown of the one-off construction.
    pub overhead: OverheadBreakdown,
    /// Per-stage wall clock and allocation counters of the construction.
    pub profile: PreprocessProfile,
    /// `true` when this plan is a **degraded fallback**: the intended
    /// composition (CELL) failed, timed out, or was circuit-broken, and
    /// the plan executes the baseline CSR kernel instead. The serving
    /// layer counts such requests separately and never caches the plan.
    pub degraded: bool,
    /// Mutation epoch of the operand the plan was composed from. A
    /// freshly registered matrix is epoch 0; every applied update batch
    /// bumps it. The serving layer folds the epoch into the plan's
    /// cache key and the disk codec persists it, so a plan composed
    /// before a mutation can never be served after it.
    pub epoch: u64,
}

impl<T: AtomicScalar> PreparedPlan<T> {
    /// A plan around `kernel` with no composition behind it, its tile
    /// planned for `features` at width 1.
    fn bind(
        kernel: impl FnOnce(TileParams) -> PreparedKernel<T>,
        features: TileFeatures,
        profile: PreprocessProfile,
    ) -> Self {
        let tile = plan_tile(features, 1);
        PreparedPlan {
            kernel: kernel(tile),
            tuned_j: 0,
            features,
            tile,
            overhead: profile.overhead(),
            profile,
            degraded: false,
            epoch: 0,
        }
    }

    /// Wrap an already-built CELL matrix (used by planners that bypass
    /// the trained pipeline, e.g. fixed-configuration serving).
    pub fn from_cell(config: CellConfig, cell: CellMatrix<T>, profile: PreprocessProfile) -> Self {
        let features = TileFeatures::new(cell.rows(), cell.nnz(), std::mem::size_of::<T>());
        let kernel = |tile| PreparedKernel::Cell {
            config,
            kernel: CellKernel::tiled(cell, tile),
        };
        Self::bind(kernel, features, profile)
    }

    /// Wrap a fixed-CSR execution (no composition) that owns its operand.
    pub fn from_csr(csr: CsrMatrix<T>, profile: PreprocessProfile) -> Self {
        let features = TileFeatures::new(csr.rows(), csr.nnz(), std::mem::size_of::<T>());
        let kernel = |tile| PreparedKernel::FixedCsr(CsrVectorKernel::new(csr).with_tile(tile));
        Self::bind(kernel, features, profile)
    }

    /// The fixed-CSR **verdict** for `csr`: the decision to stay on CSR,
    /// with the operand's shape and tile features but no copy of the
    /// operand. It executes only through
    /// [`run_batched_on`](Self::run_batched_on), over the operand the
    /// caller already holds, and is charged [`format_bytes`] of tens of
    /// bytes.
    ///
    /// [`format_bytes`]: Self::format_bytes
    pub fn csr_verdict(csr: &CsrMatrix<T>, profile: PreprocessProfile) -> Self {
        let features = TileFeatures::new(csr.rows(), csr.nnz(), std::mem::size_of::<T>());
        let shape = csr.shape();
        Self::bind(|_| PreparedKernel::CsrVerdict { shape }, features, profile)
    }

    /// Drop a fixed-CSR plan's copy of its operand, leaving its verdict
    /// (same tile, tuned width, epoch and profile). CELL plans and
    /// verdicts come back unchanged.
    pub fn into_verdict(mut self) -> Self {
        if let PreparedKernel::FixedCsr(kernel) = &self.kernel {
            self.kernel = PreparedKernel::CsrVerdict {
                shape: kernel.shape(),
            };
        }
        self
    }

    /// Set the width the plan was tuned for (builder style). Re-plans the
    /// execution tile for the new width and rebinds it into the kernel.
    pub fn with_tuned_j(mut self, j: usize) -> Self {
        self.tuned_j = j;
        self.tile = plan_tile(self.features, j.max(1));
        self.kernel = match self.kernel {
            PreparedKernel::Cell { config, kernel } => PreparedKernel::Cell {
                config,
                kernel: kernel.with_tile(self.tile),
            },
            PreparedKernel::FixedCsr(k) => PreparedKernel::FixedCsr(k.with_tile(self.tile)),
            verdict @ PreparedKernel::CsrVerdict { .. } => verdict,
        };
        self
    }

    /// The cost-model-tuned execution tile bound into the kernel.
    pub fn tile_params(&self) -> TileParams {
        self.tile
    }

    /// Mark the plan as a degraded fallback (builder style; see
    /// [`PreparedPlan::degraded`]).
    pub fn mark_degraded(mut self) -> Self {
        self.degraded = true;
        self
    }

    /// Stamp the operand's mutation epoch (builder style; see
    /// [`PreparedPlan::epoch`]).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The bound kernel as a trait object (name, shape, launches, ...);
    /// `None` for a fixed-CSR verdict, which binds no operand.
    pub fn kernel(&self) -> Option<&dyn SpmmKernel<T>> {
        match &self.kernel {
            PreparedKernel::Cell { kernel, .. } => Some(kernel),
            PreparedKernel::FixedCsr(kernel) => Some(kernel),
            PreparedKernel::CsrVerdict { .. } => None,
        }
    }

    /// `true` when the plan composes CELL.
    pub fn uses_cell(&self) -> bool {
        matches!(self.kernel, PreparedKernel::Cell { .. })
    }

    /// `true` when the plan is a fixed-CSR verdict with no operand of
    /// its own (see [`PreparedPlan::csr_verdict`]).
    pub fn is_verdict(&self) -> bool {
        matches!(self.kernel, PreparedKernel::CsrVerdict { .. })
    }

    /// The CELL configuration, when the plan composes CELL.
    pub fn cell_config(&self) -> Option<&CellConfig> {
        match &self.kernel {
            PreparedKernel::Cell { config, .. } => Some(config),
            _ => None,
        }
    }

    /// The materialized CELL operand, when the plan composes CELL.
    /// Read-only: the serving layer's delta path builds its incrementally
    /// re-bucketed successor (`lf_cell::updated_cell`) to migrate a
    /// cached plan instead of recomposing from scratch.
    pub fn cell(&self) -> Option<&CellMatrix<T>> {
        match &self.kernel {
            PreparedKernel::Cell { kernel, .. } => Some(kernel.cell()),
            _ => None,
        }
    }

    /// Shape `(rows, cols)` of the sparse operand.
    pub fn shape(&self) -> (usize, usize) {
        match &self.kernel {
            PreparedKernel::Cell { kernel, .. } => kernel.shape(),
            PreparedKernel::FixedCsr(kernel) => kernel.shape(),
            PreparedKernel::CsrVerdict { shape } => *shape,
        }
    }

    /// Bytes the plan retains: its sparse operand in the chosen format,
    /// or a verdict's own few fields — the quantity the serving layer's
    /// byte budget charges.
    pub fn format_bytes(&self) -> usize {
        self.kernel().map_or(VERDICT_BYTES, |k| k.format_bytes())
    }

    /// Reconstruct the CSR operand the plan was composed from. Lossless
    /// on both operand-holding paths (CELL ↔ CSR conversion is a tested
    /// property), so the serving layer's disk tier can re-derive a
    /// decoded record's fingerprint and prove it still describes the
    /// matrix it claims to. A verdict holds no operand
    /// ([`CodecError::NoOperand`](crate::CodecError::NoOperand)).
    pub fn reconstruct_csr(&self) -> std::result::Result<CsrMatrix<T>, crate::CodecError> {
        match &self.kernel {
            PreparedKernel::Cell { kernel, .. } => Ok(kernel.cell().to_csr()),
            PreparedKernel::FixedCsr(kernel) => Ok(kernel.csr().clone()),
            PreparedKernel::CsrVerdict { .. } => Err(crate::CodecError::NoOperand),
        }
    }

    /// Execute `C = A · B` with the prebuilt kernel. A verdict has no
    /// `A` of its own and returns an error: run it with
    /// [`run_batched_on`](Self::run_batched_on).
    pub fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.execute(None, b, self.tile)
    }

    /// Execute one **fused** SpMM over several dense operands that share
    /// this plan's sparse matrix: the operands' columns are concatenated
    /// into a single wide `B` (amortizing the sparse index-stream
    /// traversal across all of them — the wide-operand observation the
    /// serving layer's request coalescing is built on), the kernel runs
    /// once at the fused width, and the wide result is scattered back
    /// into one output per operand, in order. A verdict returns an
    /// error, as in [`run`](Self::run).
    ///
    /// Each output column sees exactly the accumulation it would see in
    /// a solo [`PreparedPlan::run`]: fusing changes which columns ride
    /// along in the same pass, never a column's own reduction. Both
    /// kernels give every output row a single writer that sums in
    /// ascending column order (CELL through its row bands, on every
    /// partition count and folding cap), so the scattered outputs are
    /// bitwise identical to solo runs — and to `spmm_reference`.
    ///
    /// Note the plan's bucket widths are only optimal near
    /// [`PreparedPlan::tuned_j`]; callers fusing at a much larger total
    /// width should resolve a plan tuned for it (the serving layer keys
    /// its cache on the fused width for exactly this reason). The
    /// *execution tile* is re-planned here at the fused width regardless
    /// (a cached cost-model lookup, no allocation) — tile choice never
    /// changes a column's reduction order, so the bitwise guarantee
    /// above is unaffected.
    pub fn run_batched(&self, bs: &[&DenseMatrix<T>]) -> Result<Vec<DenseMatrix<T>>> {
        self.batched(None, bs)
    }

    /// [`run_batched`](Self::run_batched) for the serving engine, which
    /// holds the request's own copy of the sparse matrix: both CSR forms
    /// (a verdict, or a plan holding its copy) run over `operand`, CELL
    /// plans run over their buckets and ignore it. `operand` must have
    /// the plan's shape. Outputs are bitwise those of `run_batched` on a
    /// plan holding `operand`.
    pub fn run_batched_on(
        &self,
        operand: &CsrMatrix<T>,
        bs: &[&DenseMatrix<T>],
    ) -> Result<Vec<DenseMatrix<T>>> {
        if operand.shape() != self.shape() {
            return Err(SparseError::DimensionMismatch {
                op: "plan operand",
                lhs: self.shape(),
                rhs: operand.shape(),
            });
        }
        self.batched(Some(operand), bs)
    }

    fn batched(
        &self,
        operand: Option<&CsrMatrix<T>>,
        bs: &[&DenseMatrix<T>],
    ) -> Result<Vec<DenseMatrix<T>>> {
        match bs {
            [] => Ok(Vec::new()),
            [only] => Ok(vec![self.execute(operand, only, self.tile)?]),
            _ => {
                let wide = lf_kernels::concat_columns(bs)?;
                let tile = plan_tile(self.features, wide.cols().max(1));
                let c = self.execute(operand, &wide, tile)?;
                let widths: Vec<usize> = bs.iter().map(|b| b.cols()).collect();
                lf_kernels::scatter_columns(&c, &widths)
            }
        }
    }

    /// Execute with an explicit execution tile (fused runs re-plan at
    /// the fused width). CSR forms run over `operand` when one is given.
    fn execute(
        &self,
        operand: Option<&CsrMatrix<T>>,
        b: &DenseMatrix<T>,
        tile: TileParams,
    ) -> Result<DenseMatrix<T>> {
        match (&self.kernel, operand) {
            (PreparedKernel::Cell { kernel, .. }, _) => kernel.run_tiled(b, tile),
            (_, Some(csr)) => parallel_csr_spmm_tiled(csr, b, tile),
            (PreparedKernel::FixedCsr(kernel), None) => kernel.run_tiled(b, tile),
            (PreparedKernel::CsrVerdict { .. }, None) => Err(no_operand()),
        }
    }

    /// Simulated kernel profile for a dense operand of `j` columns;
    /// `None` for a verdict, whose traffic is that of the operand it is
    /// run over.
    pub fn kernel_profile(&self, j: usize, device: &DeviceModel) -> Option<KernelProfile> {
        self.kernel().map(|k| k.profile(j, device))
    }
}

impl<T: AtomicScalar> std::fmt::Debug for PreparedPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedPlan")
            .field("kernel", &self.kernel().map_or("csr-verdict", |k| k.name()))
            .field("shape", &self.shape())
            .field("tuned_j", &self.tuned_j)
            .field("tile", &self.tile)
            .field("format_bytes", &self.format_bytes())
            .field("degraded", &self.degraded)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// The assembled LiteForm pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiteForm {
    /// Format-selection model (§5.1).
    pub selector: FormatSelector,
    /// Partition predictor (§5.2).
    pub predictor: PartitionPredictor,
    /// Device the compositions target.
    pub device: DeviceModel,
}

impl LiteForm {
    /// Assemble from trained components.
    pub fn new(
        selector: FormatSelector,
        predictor: PartitionPredictor,
        device: DeviceModel,
    ) -> Self {
        assert!(selector.is_trained(), "selector must be trained");
        assert!(predictor.is_trained(), "predictor must be trained");
        LiteForm {
            selector,
            predictor,
            device,
        }
    }

    /// The format selector's stage of the pipeline: extract `csr`'s
    /// format features and ask the selector whether to compose CELL,
    /// recording both stages in `profile`. The serving planners in
    /// `lf-serve` share it; [`compose`](Self::compose) extracts the
    /// partition features in the same timed stage, as Figure 8 reports.
    pub fn select_format<T: AtomicScalar>(
        &self,
        csr: &CsrMatrix<T>,
        profile: &mut PreprocessProfile,
    ) -> bool {
        let (features, stats) = StageStats::measure(|| FormatFeatures::from_csr(csr));
        profile.feature_extraction = stats;
        let (use_cell, stats) = StageStats::measure(|| self.selector.predict(&features));
        profile.selection_inference = stats;
        use_cell
    }

    /// Run the Figure 2 pipeline for a matrix and dense width `j`.
    pub fn compose<T: AtomicScalar>(&self, csr: &CsrMatrix<T>, j: usize) -> CompositionPlan<T> {
        let mut profile = PreprocessProfile::default();

        // 1. Features (shared single pass over row lengths, done twice
        //    here for clarity; both are O(rows)).
        let ((format_features, partition_features), stats) = StageStats::measure(|| {
            (
                FormatFeatures::from_csr(csr),
                PartitionFeatures::from_csr(csr, j),
            )
        });
        profile.feature_extraction = stats;

        // 2. Should we compose CELL at all?
        let (use_cell, stats) = StageStats::measure(|| self.selector.predict(&format_features));
        profile.selection_inference = stats;
        if !use_cell {
            return CompositionPlan {
                kind: PlanKind::FixedCsr,
                overhead: profile.overhead(),
                profile,
            };
        }

        // 3. Partition count.
        let (p, stats) = StageStats::measure(|| self.predictor.predict(&partition_features));
        profile.partition_inference = stats;

        // 4–5. Bucket widths per partition (Algorithm 3), then materialize.
        let (config, cell) = compose_cell_at(csr, p, j, true, &mut profile);

        CompositionPlan {
            kind: PlanKind::Cell { config, cell },
            overhead: profile.overhead(),
            profile,
        }
    }

    /// Run the Figure-2 pipeline and bind the result to its kernel: the
    /// plan-build half of the build/execute split. The returned
    /// [`PreparedPlan`] can run against any conforming `B` without
    /// re-paying composition. A fixed-CSR plan holds a copy of `csr`.
    /// The serving layer's planner (`lf-serve`) shares this pipeline's
    /// selector but plans for the CPU engine instead: it caches a
    /// fixed-CSR decision as a verdict with no copy, and builds CELL only
    /// at one partition and only when a CPU cost prices it below CSR.
    pub fn prepare<T: AtomicScalar>(&self, csr: &CsrMatrix<T>, j: usize) -> PreparedPlan<T> {
        self.compose(csr, j).into_prepared(csr, j)
    }

    /// Compose and execute `C = A · B`, returning the result, the
    /// simulated kernel profile, and the plan's overhead accounting.
    pub fn spmm<T: AtomicScalar>(
        &self,
        csr: &CsrMatrix<T>,
        b: &DenseMatrix<T>,
    ) -> Result<(DenseMatrix<T>, KernelProfile, OverheadBreakdown)> {
        let plan = self.prepare(csr, b.cols());
        let c = plan.run(b)?;
        let profile = plan
            .kernel_profile(b.cols(), &self.device)
            .ok_or_else(no_operand)?;
        Ok((c, profile, plan.overhead))
    }

    /// Simulated kernel time of whatever the pipeline picks (no numeric
    /// execution) — the quantity the evaluation harnesses sweep.
    pub fn simulated_time_ms<T: AtomicScalar>(&self, csr: &CsrMatrix<T>, j: usize) -> f64 {
        self.prepare(csr, j)
            .kernel_profile(j, &self.device)
            .expect("`prepare` binds its operand")
            .time_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{label_format_selection, label_partitions, TrainingConfig};
    use lf_data::{Corpus, CorpusSpec};
    use lf_sparse::Pcg32;

    /// Train a small but real pipeline on a tiny corpus.
    fn tiny_pipeline() -> LiteForm {
        let device = DeviceModel::v100();
        let spec = CorpusSpec {
            n_matrices: 18,
            min_rows: 200,
            max_rows: 1500,
            max_nnz: 40_000,
            ..Default::default()
        };
        let corpus: Corpus<f32> = Corpus::generate(spec);
        let cfg = TrainingConfig {
            dense_widths: vec![32, 128],
            ..Default::default()
        };
        let sel_samples: Vec<_> = corpus
            .matrices
            .iter()
            .map(|m| label_format_selection(&m.csr, &cfg, &device))
            .collect();
        let part_samples: Vec<_> = corpus
            .matrices
            .iter()
            .flat_map(|m| label_partitions(&m.csr, &cfg, &device))
            .collect();
        let mut selector = FormatSelector::new(1);
        selector.train(&sel_samples);
        let mut predictor = PartitionPredictor::new(2);
        predictor.train(&part_samples);
        LiteForm::new(selector, predictor, device)
    }

    #[test]
    fn end_to_end_compose_and_run() {
        let lf = tiny_pipeline();
        let mut rng = Pcg32::seed_from_u64(5);
        let csr: CsrMatrix<f32> =
            CsrMatrix::from_coo(&lf_sparse::gen::mixed_regions(300, 300, 8000, 4, &mut rng));
        let b = DenseMatrix::random(300, 32, &mut rng);
        let (c, profile, overhead) = lf.spmm(&csr, &b).unwrap();
        // Numerically correct regardless of which path was taken.
        let want = csr.spmm_reference(&b).unwrap();
        assert!(c.approx_eq(&want, 1e-3));
        assert!(profile.time_ms > 0.0);
        assert!(overhead.total_s() >= 0.0);
        assert!(overhead.total_s() < 5.0, "pipeline must stay lightweight");
    }

    #[test]
    fn plan_reports_decision() {
        let lf = tiny_pipeline();
        let mut rng = Pcg32::seed_from_u64(6);
        let csr: CsrMatrix<f32> =
            CsrMatrix::from_coo(&lf_sparse::gen::uniform_random(400, 400, 6000, &mut rng));
        let plan = lf.compose(&csr, 64);
        match &plan.kind {
            PlanKind::Cell { config, cell } => {
                assert_eq!(cell.to_csr(), csr);
                assert!(config.num_partitions >= 1);
            }
            PlanKind::FixedCsr => {}
        }
        // The five stages are all accounted (some may be ~0 but not
        // negative).
        let o = plan.overhead;
        for v in [
            o.feature_extraction_s,
            o.selection_inference_s,
            o.partition_inference_s,
            o.width_search_s,
            o.build_s,
        ] {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn profile_mirrors_overhead_and_counts_allocations() {
        let lf = tiny_pipeline();
        let mut rng = Pcg32::seed_from_u64(8);
        let csr: CsrMatrix<f32> =
            CsrMatrix::from_coo(&lf_sparse::gen::mixed_regions(400, 400, 9000, 4, &mut rng));
        let plan = lf.compose(&csr, 64);
        // The wall-clock view is derived from the profile, never drifts.
        assert_eq!(plan.overhead, plan.profile.overhead());
        let total = plan.profile.total();
        assert!(total.wall_s >= 0.0);
        // Feature extraction allocates nothing (held by
        // `tests/feature_extraction.rs`); the counters show up in the
        // CELL stages below.
        if plan.uses_cell() {
            // Materializing CELL allocates its grids.
            assert!(plan.profile.build.alloc_bytes > 0);
            assert!(plan.profile.width_search.alloc_calls >= 1);
        }
    }

    #[test]
    fn prepared_plan_reuses_across_operands() {
        // The build/execute split: one prepare, many runs, each matching
        // the reference — and the prepared kernel mirrors the plan the
        // composer would have made.
        let lf = tiny_pipeline();
        let mut rng = Pcg32::seed_from_u64(21);
        let csr: CsrMatrix<f32> =
            CsrMatrix::from_coo(&lf_sparse::gen::mixed_regions(350, 350, 7000, 4, &mut rng));
        let plan = lf.prepare(&csr, 64);
        assert_eq!(plan.tuned_j, 64);
        assert_eq!(plan.shape(), csr.shape());
        assert!(plan.format_bytes() > 0);
        assert_eq!(plan.uses_cell(), lf.compose(&csr, 64).uses_cell());
        for j in [3usize, 64, 100] {
            let b = DenseMatrix::random(350, j, &mut rng);
            let c = plan.run(&b).unwrap();
            let want = csr.spmm_reference(&b).unwrap();
            assert!(c.approx_eq(&want, 1e-3), "j={j}");
        }
        assert!(plan.kernel_profile(64, &lf.device).unwrap().time_ms > 0.0);
    }

    #[test]
    fn simulated_time_is_positive() {
        let lf = tiny_pipeline();
        let mut rng = Pcg32::seed_from_u64(7);
        let csr: CsrMatrix<f32> =
            CsrMatrix::from_coo(&lf_sparse::gen::uniform_random(200, 200, 3000, &mut rng));
        assert!(lf.simulated_time_ms(&csr, 128) > 0.0);
    }
}
