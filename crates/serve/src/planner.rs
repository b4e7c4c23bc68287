//! Plan sources for the serving engine.
//!
//! The engine is agnostic to *how* a plan is produced. The trained
//! LiteForm pipeline is the production planner: its format selector
//! decides whether CELL is worth pricing at all, and a CPU cost
//! ([`lf_cost::tile::predict_stream_ns`]) then picks the cheaper of CSR
//! and CELL at one partition for the engine that runs the plan. It
//! never builds the paper's `p > 1` compositions, whose models were
//! trained on a simulated GPU and which never paid here (DESIGN.md §8,
//! "Planners").
//! [`FixedCellPlanner`] composes a hand-picked configuration — used by
//! benchmarks and tests that need a specific partition count without
//! training models first — and [`PinnedLiteForm`] pins the count behind
//! the trained front-end.
//!
//! [`ResilientPlanner`] wraps any of them with the degradation ladder of
//! DESIGN.md §10: a CELL composition that panics, fails, or blows its
//! budget falls back to the baseline CSR kernel (a **degraded** plan the
//! engine serves but never caches), and a per-key circuit breaker stops
//! re-attempting compositions that keep failing.

use crate::lock;
use lf_cost::{
    build_buckets, plan_tile, predict_stream_ns, PartitionSketch, RowStream, TileFeatures,
};
use lf_sim::atomicf::AtomicScalar;
use lf_sparse::CsrMatrix;
use liteform_core::{
    build_cell_at, compose_cell_at, LfResult, LiteForm, PreparedPlan, PreprocessProfile, StageStats,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Produces an executable composition for a matrix and dense width `j`.
///
/// Implementations must be thread-safe: the engine calls `prepare`
/// concurrently from every serving thread that misses the cache.
pub trait Planner<T: AtomicScalar>: Send + Sync {
    /// Build the full plan (the cold path a cache hit amortizes away).
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>>;

    /// [`Planner::prepare`] with a stable per-request key (the engine
    /// passes a fingerprint digest) that stateful planners can use as
    /// failure memory. The default ignores it.
    fn prepare_keyed(&self, key: u64, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        let _ = key;
        self.prepare(csr, j)
    }

    /// Feedback from the engine: a plan for `key` failed *after*
    /// composition (execution panic, quarantine). Stateful planners fold
    /// this into their breaker state; the default drops it.
    fn record_failure(&self, key: u64) {
        let _ = key;
    }

    /// Name for reports.
    fn name(&self) -> &'static str {
        "planner"
    }
}

/// The trained pipeline as a serving planner, planning for the CPU
/// engine that runs the plan (DESIGN.md §8).
///
/// Feature extraction and the format selector run as in
/// [`LiteForm::compose`], and a fixed-CSR verdict comes back as a plan
/// with no copy of `csr` ([`PreparedPlan::csr_verdict`]). On a CELL
/// verdict two candidates are priced with one CPU cost,
/// [`predict_stream_ns`]: CSR from the matrix's rows and non-zeros, and
/// CELL at one partition from one Algorithm-3 sketch — its bucket rows
/// `Σ I⁽¹⁾` and stored slots `Σ I⁽¹⁾·W` under the searched cap. CELL is
/// built only when it prices cheaper; otherwise the CSR verdict is
/// returned. The partition predictor is not consulted: on this engine
/// its `p > 1` plans never ran faster than the better candidate by more
/// than timing noise, and ran up to 1.7× slower.
impl<T: AtomicScalar> Planner<T> for LiteForm {
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        let mut profile = PreprocessProfile::default();
        if self.select_format(csr, &mut profile) {
            let (cap, stats) = StageStats::measure(|| cheaper_cell_cap(csr, j));
            profile.width_search = stats;
            if let Some(cap) = cap {
                let (config, cell) = build_cell_at(csr, 1, Some(vec![cap]), &mut profile);
                return Ok(PreparedPlan::from_cell(config, cell, profile).with_tuned_j(j));
            }
        }
        Ok(PreparedPlan::csr_verdict(csr, profile).with_tuned_j(j))
    }

    fn name(&self) -> &'static str {
        "liteform"
    }
}

/// The Algorithm-3 width cap of CELL at one partition for `csr` at
/// dense width `j`, when that CELL is priced below CSR under the tile
/// either plan would run with; `None` when CSR prices no dearer.
fn cheaper_cell_cap<T: AtomicScalar>(csr: &CsrMatrix<T>, j: usize) -> Option<usize> {
    let sketch = PartitionSketch::all_from_csr(csr, 1);
    let (cap, buckets, _) = build_buckets(&sketch[0], j);
    let elem_bytes = std::mem::size_of::<T>();
    let cell = RowStream {
        rows: buckets.iter().map(|b| b.i1).sum(),
        slots: buckets.iter().map(|b| b.i1 * b.width).sum(),
        nnz: csr.nnz(),
        elem_bytes,
    };
    let flat = RowStream::csr(csr.rows(), csr.nnz(), elem_bytes);
    let tile = plan_tile(
        TileFeatures::new(csr.rows(), csr.nnz(), elem_bytes),
        j.max(1),
    );
    (predict_stream_ns(cell, j, &tile) < predict_stream_ns(flat, j, &tile)).then_some(cap)
}

/// Compose CELL with a fixed partition count (clamped to the column
/// count), optionally running the Algorithm-3 width search.
///
/// This is the "autotuner pinned one config" planner: no trained models,
/// but the same width search and construction cost a cold LiteForm
/// compose pays, so cache-hit speedups measured against it are honest.
#[derive(Debug, Clone)]
pub struct FixedCellPlanner {
    /// Requested column partition count.
    pub partitions: usize,
    /// Run the Algorithm-3 bucket-width search (`true`) or use natural
    /// widths (`false`). Natural widths never fold rows, which keeps
    /// every bucket single-writer within its partition — the bitwise
    /// deterministic regime.
    pub tune_widths: bool,
}

impl FixedCellPlanner {
    /// Planner with `partitions` partitions and tuned widths.
    pub fn tuned(partitions: usize) -> Self {
        FixedCellPlanner {
            partitions,
            tune_widths: true,
        }
    }

    /// Planner with `partitions` partitions and natural (un-capped)
    /// widths.
    pub fn natural(partitions: usize) -> Self {
        FixedCellPlanner {
            partitions,
            tune_widths: false,
        }
    }
}

impl<T: AtomicScalar> Planner<T> for FixedCellPlanner {
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        let mut profile = PreprocessProfile::default();
        let (config, cell) =
            compose_cell_at(csr, self.partitions, j, self.tune_widths, &mut profile);
        Ok(PreparedPlan::from_cell(config, cell, profile).with_tuned_j(j))
    }

    fn name(&self) -> &'static str {
        "fixed_cell"
    }
}

/// The trained pipeline with the partition count pinned by the operator.
///
/// Production serving often fixes partitioning for capacity planning
/// (the byte budget is easier to reason about when every plan uses the
/// same `p`) while keeping the learned front-end. The composition always
/// builds CELL at the pinned count with tuned widths — the pin is an
/// operator override, so the selector's verdict is **timed, not
/// honoured**. It still runs so that a cold compose pays every Figure-2
/// stage a full `LiteForm` compose pays, feature extraction and selector
/// inference included: `bench_serve`'s cold rows and its warm-restart
/// gate are measured against that cost, and would overstate the cache's
/// win if the front-end were skipped. Only the partition-predictor
/// inference is skipped: its output is exactly what the pin replaces.
#[derive(Debug, Clone)]
pub struct PinnedLiteForm {
    /// The trained pipeline supplying feature extraction and selection.
    pub pipeline: LiteForm,
    /// Operator-pinned partition count (clamped to the column count).
    pub partitions: usize,
}

impl<T: AtomicScalar> Planner<T> for PinnedLiteForm {
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        let mut profile = PreprocessProfile::default();
        let _verdict = self.pipeline.select_format(csr, &mut profile);
        let (config, cell) = compose_cell_at(csr, self.partitions, j, true, &mut profile);
        Ok(PreparedPlan::from_cell(config, cell, profile).with_tuned_j(j))
    }

    fn name(&self) -> &'static str {
        "liteform_pinned"
    }
}

/// The degradation ladder (DESIGN.md §10) as a planner wrapper.
///
/// `prepare_keyed` delegates to the inner planner under `catch_unwind`;
/// if the composition **panics**, returns a typed error, or exceeds the
/// optional per-compose wall budget, the wrapper records the failure
/// against the key and falls back to a baseline CSR verdict marked
/// [`PreparedPlan::degraded`] — the result is still exact (the CSR
/// vector kernel is bitwise-equal to `spmm_reference`), only slower, and
/// the engine serves it over the request's matrix without caching it.
///
/// A per-key **circuit breaker** counts consecutive failures (compose
/// failures here, execution failures via [`Planner::record_failure`]
/// from the engine). At `breaker_threshold` the breaker opens and
/// requests for that key skip straight to the fallback, so a matrix
/// whose composition reliably dies stops burning compose budget; one
/// successful composition closes the breaker again.
pub struct ResilientPlanner<P> {
    inner: P,
    /// Consecutive failures per key before the breaker opens.
    breaker_threshold: u32,
    /// Wall budget for one composition; exceeding it counts as a failure
    /// and degrades the request (`None` = unbounded).
    compose_budget: Option<Duration>,
    failures: Mutex<HashMap<u64, u32>>,
    downgrades: AtomicU64,
}

impl<P> ResilientPlanner<P> {
    /// Wrap a planner with the default breaker (3 consecutive failures)
    /// and no compose budget.
    pub fn new(inner: P) -> Self {
        ResilientPlanner {
            inner,
            breaker_threshold: 3,
            compose_budget: None,
            failures: Mutex::new(HashMap::new()),
            downgrades: AtomicU64::new(0),
        }
    }

    /// Set the consecutive-failure count that opens the breaker
    /// (clamped to ≥ 1).
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold.max(1);
        self
    }

    /// Set the per-compose wall budget.
    pub fn with_compose_budget(mut self, budget: Duration) -> Self {
        self.compose_budget = Some(budget);
        self
    }

    /// The wrapped planner.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// How many requests were downgraded to the CSR fallback so far.
    pub fn downgrades(&self) -> u64 {
        self.downgrades.load(Ordering::Relaxed)
    }

    fn failure_count(&self, key: u64) -> u32 {
        lock(&self.failures).get(&key).copied().unwrap_or(0)
    }

    fn note_failure(&self, key: u64) {
        *lock(&self.failures).entry(key).or_insert(0) += 1;
    }

    fn note_success(&self, key: u64) {
        lock(&self.failures).remove(&key);
    }

    fn fallback<T: AtomicScalar>(&self, csr: &CsrMatrix<T>, j: usize) -> PreparedPlan<T> {
        self.downgrades.fetch_add(1, Ordering::Relaxed);
        PreparedPlan::csr_verdict(csr, PreprocessProfile::default())
            .with_tuned_j(j)
            .mark_degraded()
    }
}

impl<T: AtomicScalar, P: Planner<T>> Planner<T> for ResilientPlanner<P> {
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        // Uncorrelated callers share key 0; the engine always goes
        // through `prepare_keyed`.
        self.prepare_keyed(0, csr, j)
    }

    fn prepare_keyed(&self, key: u64, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        if self.failure_count(key) >= self.breaker_threshold {
            // Breaker open: don't even attempt the composition.
            return Ok(self.fallback(csr, j));
        }
        let t0 = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::ComposePanic) {
                    panic!("chaos: injected compose panic");
                }
                if decide(ChaosSite::AllocFail) {
                    return Err(liteform_core::LfError::ResourceExhausted {
                        what: "chaos: injected plan-scratch allocation failure".to_string(),
                    });
                }
            }
            self.inner.prepare_keyed(key, csr, j)
        }));
        let over_budget = self.compose_budget.is_some_and(|b| t0.elapsed() > b);
        #[cfg(feature = "chaos")]
        let over_budget =
            over_budget || lf_check::chaos::decide(lf_check::chaos::ChaosSite::SlowPath);
        match attempt {
            Ok(Ok(plan)) if !over_budget => {
                self.note_success(key);
                Ok(plan)
            }
            // Composed fine but past the budget: count it against the
            // breaker and degrade — a plan this slow to build is exactly
            // what the breaker should stop re-attempting.
            Ok(Ok(_)) => {
                self.note_failure(key);
                Ok(self.fallback(csr, j))
            }
            Ok(Err(e)) => {
                // Typed rejections (e.g. invalid input) are the caller's
                // bug, not a composition failure — degrading would mask
                // them.
                if e.is_rejection() {
                    return Err(e);
                }
                self.note_failure(key);
                Ok(self.fallback(csr, j))
            }
            Err(_panic) => {
                self.note_failure(key);
                Ok(self.fallback(csr, j))
            }
        }
    }

    fn record_failure(&self, key: u64) {
        self.note_failure(key);
        self.inner.record_failure(key);
    }

    fn name(&self) -> &'static str {
        "resilient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::mixed_regions;
    use lf_sparse::{DenseMatrix, Pcg32};

    #[test]
    fn fixed_planner_is_correct_and_instrumented() {
        let mut rng = Pcg32::seed_from_u64(31);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(200, 200, 4000, 4, &mut rng));
        let b = DenseMatrix::random(200, 16, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        for planner in [FixedCellPlanner::tuned(4), FixedCellPlanner::natural(4)] {
            let plan = Planner::prepare(&planner, &csr, 16).unwrap();
            assert!(plan.uses_cell());
            assert_eq!(plan.cell_config().unwrap().num_partitions, 4);
            assert_eq!(plan.tuned_j, 16);
            assert!(plan.profile.build.alloc_bytes > 0);
            let c = plan.run(&b).unwrap();
            assert!(c.approx_eq(&want, 1e-9));
        }
    }

    #[test]
    fn pinned_pipeline_composes_at_the_pin_with_full_front_end() {
        let pipeline = liteform_core::ModelBundle::load(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/liteform-models.json"
        ))
        .expect("checked-in model bundle must load")
        .into_liteform();
        let planner = PinnedLiteForm {
            pipeline,
            partitions: 6,
        };
        let mut rng = Pcg32::seed_from_u64(33);
        let csr: CsrMatrix<f32> = CsrMatrix::from_coo(&mixed_regions(300, 300, 6000, 4, &mut rng));
        let plan = Planner::prepare(&planner, &csr, 16).unwrap();
        assert!(plan.uses_cell());
        assert_eq!(plan.cell_config().unwrap().num_partitions, 6);
        // The cold path pays the front-end: feature extraction and
        // selection both allocate/measure (wall_s can round to zero on a
        // fast machine, so assert the stages ran via the alloc counter
        // and the recorded build).
        assert!(plan.profile.feature_extraction.wall_s >= 0.0);
        assert!(plan.profile.build.alloc_bytes > 0);
        let b = DenseMatrix::random(300, 16, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        assert!(plan.run(&b).unwrap().approx_eq(&want, 1e-4));
    }

    #[test]
    fn fixed_planner_clamps_excess_partitions() {
        let mut rng = Pcg32::seed_from_u64(32);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(40, 10, 120, 2, &mut rng));
        let plan = Planner::prepare(&FixedCellPlanner::tuned(64), &csr, 8).unwrap();
        assert_eq!(plan.cell_config().unwrap().num_partitions, 10);
        let b = DenseMatrix::random(10, 8, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        assert!(plan.run(&b).unwrap().approx_eq(&want, 1e-9));
    }

    /// A planner whose compose panics on demand, for ladder tests.
    struct FaultyPlanner {
        inner: FixedCellPlanner,
        panic_on: std::sync::atomic::AtomicBool,
    }

    impl FaultyPlanner {
        fn new() -> Self {
            FaultyPlanner {
                inner: FixedCellPlanner::tuned(4),
                panic_on: std::sync::atomic::AtomicBool::new(true),
            }
        }
    }

    impl Planner<f64> for FaultyPlanner {
        fn prepare(&self, csr: &CsrMatrix<f64>, j: usize) -> LfResult<PreparedPlan<f64>> {
            if self.panic_on.load(Ordering::Relaxed) {
                panic!("composer bug");
            }
            self.inner.prepare(csr, j)
        }
    }

    #[test]
    fn resilient_degrades_on_compose_panic_with_exact_results() {
        let mut rng = Pcg32::seed_from_u64(41);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(120, 120, 2000, 4, &mut rng));
        let b = DenseMatrix::random(120, 8, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();

        let planner = ResilientPlanner::new(FaultyPlanner::new());
        let plan = planner.prepare_keyed(7, &csr, 8).unwrap();
        assert!(plan.degraded, "compose panic must degrade, not propagate");
        assert!(!plan.uses_cell(), "fallback is the baseline CSR kernel");
        assert_eq!(planner.downgrades(), 1);
        // The degraded result is bitwise the reference result: the CSR
        // vector kernel accumulates each row in index order. The verdict
        // holds no operand; it runs over the request's.
        assert!(plan.is_verdict());
        let got = plan.run_batched_on(&csr, &[&b]).unwrap().remove(0);
        for r in 0..want.rows() {
            for c in 0..want.cols() {
                assert_eq!(got.get(r, c).to_bits(), want.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_closes_on_success() {
        let mut rng = Pcg32::seed_from_u64(42);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(64, 64, 600, 2, &mut rng));
        let faulty = FaultyPlanner::new();
        let planner = ResilientPlanner::new(faulty).with_breaker_threshold(2);

        // Two panicking composes open the breaker.
        for _ in 0..2 {
            assert!(planner.prepare_keyed(9, &csr, 8).unwrap().degraded);
        }
        // Even a now-healthy composer is skipped while the breaker is
        // open (the whole point: stop burning compose budget).
        planner.inner().panic_on.store(false, Ordering::Relaxed);
        assert!(planner.failure_count(9) >= 2);
        assert!(
            planner.prepare_keyed(9, &csr, 8).unwrap().degraded,
            "open breaker must skip the compose attempt"
        );
        // A different key is unaffected.
        let plan = planner.prepare_keyed(10, &csr, 8).unwrap();
        assert!(!plan.degraded);
        // Closing: reset the broken key's count (as an operator clearing
        // state would) and compose successfully once.
        planner.note_success(9);
        let plan = planner.prepare_keyed(9, &csr, 8).unwrap();
        assert!(!plan.degraded, "healthy compose closes the breaker");
        assert_eq!(planner.failure_count(9), 0);
    }

    #[test]
    fn engine_reported_failures_feed_the_breaker() {
        let mut rng = Pcg32::seed_from_u64(43);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(64, 64, 600, 2, &mut rng));
        let faulty = FaultyPlanner::new();
        faulty.panic_on.store(false, Ordering::Relaxed);
        let planner = ResilientPlanner::new(faulty).with_breaker_threshold(3);
        // Three execution-side failures (reported by the engine) open
        // the breaker even though compose never failed.
        for _ in 0..3 {
            Planner::<f64>::record_failure(&planner, 11);
        }
        assert!(
            planner.prepare_keyed(11, &csr, 8).unwrap().degraded,
            "execution failures must open the breaker too"
        );
    }

    #[test]
    fn compose_budget_overrun_degrades_and_counts() {
        let mut rng = Pcg32::seed_from_u64(44);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(64, 64, 600, 2, &mut rng));
        let planner = ResilientPlanner::new(FixedCellPlanner::tuned(4))
            .with_compose_budget(Duration::from_secs(0));
        let plan = planner.prepare_keyed(12, &csr, 8).unwrap();
        assert!(plan.degraded, "zero budget must always overrun");
        assert_eq!(planner.failure_count(12), 1);
        let b = DenseMatrix::random(64, 8, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        let got = plan.run_batched_on(&csr, &[&b]).unwrap().remove(0);
        assert!(got.approx_eq(&want, 1e-9));
    }
}
