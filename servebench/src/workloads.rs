//! The four seeded closed-loop workloads against `ServeEngine`.
//!
//! Each workload has four parts:
//!
//! * **inputs** (untimed): matrices, dense operands and their
//!   precomputed `spmm_reference` products, all from `--seed`;
//! * **setup** (timed, `SETUP_REPS` times, median reported as
//!   `setup_s`): the program calls a deployment makes before serving —
//!   bundle load, `ServeEngine::new` (with its disk warm), handle
//!   registration, `warm` pre-composes;
//! * **measured phase**: closed-loop clients replay their op streams
//!   until `--seconds` elapse. Every response is checked against the
//!   reference outside its timed interval. With `--trace 1` the phase
//!   alternates untraced and traced slices; traced slices only add
//!   spans around the engine calls, so the two kinds of slice run the
//!   same work and their difference is the tracing overhead;
//! * **probe pass** (`--trace 1` only, after the phase): one thread
//!   calls each layer's public functions on the workload's own keys —
//!   the execute, validation and fingerprint work a serve contains, the
//!   disk tier, the fused path, and the update path.

use crate::gen::{self, Op, OpStream, Workload};
use crate::trace::{Span, Tracer, ATTRIBUTED};
use lf_data::{GraphSpec, Scale, GNN_GRAPHS};
use lf_serve::{
    Fingerprint, MatrixHandle, Placement, PlanStore, ResilientPlanner, ServeConfig, ServeEngine,
    ServeOutcome, ServeStats, StoreConfig,
};
use lf_sparse::{CsrMatrix, DenseMatrix};
use liteform_core::{LfError, LfResult, LiteForm, ModelBundle, PreparedPlan, PreprocessProfile};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub type Plan = PreparedPlan<f32>;
pub type Engine = ServeEngine<f32, ResilientPlanner<LiteForm>>;

/// Setup repetitions before the measured phase (the last one serves it)
/// and after it; `setup_s` is the median of all of them. Spreading them
/// over the run keeps the median from resting on one moment of a machine
/// whose speed drifts over seconds.
const SETUP_REPS_BEFORE: usize = 3;
const SETUP_REPS_AFTER: usize = 4;
/// Alternating untraced/traced slices of a `--trace 1` run.
pub const TRACE_SLICES: usize = 6;
/// Attribution probes per probe pass, spread over the workload's keys
/// (at least three per key). Attributions take the fastest probe, so
/// few keys get more repetitions to find it.
const PROBE_BUDGET: usize = 80;
/// Repetitions of each layer-sweep probe.
const SWEEP_REPS: usize = 3;
/// `hot_repeat` RAM budget: far above the 14 plans in any one shard's
/// slice, so nothing is ever evicted.
const HOT_BUDGET: usize = 8 << 30;
/// `zipf_spill` shard count: two shards keep each shard's budget slice
/// (an eighth of the population's plan bytes) above the largest plan,
/// so every plan is admissible.
pub const SPILL_SHARDS: usize = 2;
/// `shared_narrow` admission window: a straggler bound only, since a
/// pair of J=2 requests fills `max_batch_j` = 4 and closes it at once.
const SHARED_WINDOW_US: u64 = 1_000;
/// Keys the probe pass's layer sweep covers.
const SWEEP_KEYS: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Working directory for the disk tier, probes and span dumps.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The production pipeline: the trained bundle checked into `results/`.
pub fn load_pipeline() -> LiteForm {
    ModelBundle::load(Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/liteform-models.json"))
        .expect("trained model bundle results/liteform-models.json must load")
        .into_liteform()
}

/// One serve key: a matrix index and the dense operand sent with it.
pub struct Key {
    pub matrix: usize,
    pub b: DenseMatrix<f32>,
}

/// Per-row oracle tolerance: relative 1e-4 of the row's absolute sum
/// (`B` entries lie in [-1, 1)), since f32 CELL atomics reorder sums.
pub fn row_tolerance(csr: &CsrMatrix<f32>) -> Vec<f32> {
    (0..csr.rows())
        .map(|i| {
            1e-4 * csr
                .row_values(i)
                .iter()
                .map(|v| v.abs())
                .sum::<f32>()
                .max(1.0)
        })
        .collect()
}

/// Does `c` equal `reference` within the per-row tolerance?
pub fn matches(c: &DenseMatrix<f32>, reference: &DenseMatrix<f32>, tol: &[f32]) -> bool {
    c.shape() == reference.shape()
        && (0..reference.rows()).all(|i| {
            c.row(i)
                .iter()
                .zip(reference.row(i))
                .all(|(x, y)| (x - y).abs() <= tol[i])
        })
}

fn reference(csr: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    csr.spmm_reference(b).expect("operand shapes agree")
}

/// The engine's ledger class of a serve, as its client saw it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Class {
    /// Not a serve (an update).
    #[default]
    None,
    Hit,
    Miss,
    Degraded,
    Rejected,
    Failed,
}

/// One client operation's outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rec {
    pub key: usize,
    pub update: bool,
    pub class: Class,
    pub traced: bool,
    pub ok: bool,
    pub latency_s: f64,
    pub hit: bool,
    pub miss: bool,
    pub batched: bool,
    /// First serve of a handle after a committed batch.
    pub post_update: bool,
    pub rebuild: bool,
    pub migrated: usize,
    /// An invalid batch, rejected as it must be.
    pub rejected_batch: bool,
}

/// Records a client keeps without growing its buffer. The buffer is
/// written in full up front, so the run's peak RSS does not depend on
/// how many operations it completed.
const RECS_RESERVED: usize = 1 << 18;

fn touched_buffer() -> Vec<Rec> {
    let mut v = Vec::new();
    v.resize(RECS_RESERVED, Rec::default());
    v.clear();
    v
}

/// A closed-loop client's state.
pub struct Client {
    pub id: usize,
    pub traced: bool,
    pub recs: Vec<Rec>,
    pub tracer: Tracer,
    pub composes: Vec<PreprocessProfile>,
    next_req: u64,
}

impl Client {
    fn new(id: usize, epoch: Instant) -> Self {
        Client {
            id,
            traced: false,
            recs: touched_buffer(),
            tracer: Tracer::new(epoch, id + 1),
            composes: Vec::new(),
            next_req: 0,
        }
    }

    fn req(&mut self) -> u64 {
        self.next_req += 1;
        ((self.id as u64 + 1) << 40) | self.next_req
    }

    /// Account one serve: ledger class, oracle check, record, and (in a
    /// traced slice) the serve span with its compose children.
    #[allow(clippy::too_many_arguments)]
    fn serve_done(
        &mut self,
        span: &'static str,
        key: usize,
        t0: Instant,
        res: &LfResult<ServeOutcome<f32>>,
        expect: &DenseMatrix<f32>,
        tol: &[f32],
        post_update: bool,
    ) {
        let latency = t0.elapsed();
        let mut rec = Rec {
            key,
            traced: self.traced,
            latency_s: latency.as_secs_f64(),
            post_update,
            ..Rec::default()
        };
        match res {
            Ok(out) => {
                rec.class = if out.degraded {
                    Class::Degraded
                } else if out.hit {
                    Class::Hit
                } else {
                    Class::Miss
                };
                rec.hit = out.hit;
                rec.miss = out.compose.is_some();
                rec.batched = out.batched;
                rec.ok = matches(&out.result, expect, tol);
            }
            Err(e) if e.is_rejection() => rec.class = Class::Rejected,
            Err(_) => rec.class = Class::Failed,
        }
        self.recs.push(rec);
        if self.traced {
            let req = self.req();
            let name = if rec.batched {
                "engine.serve_handle.batched"
            } else {
                span
            };
            let id = self
                .tracer
                .record(req, 0, name, key, t0, latency.as_nanos() as u64);
            self.tracer.set_hit(id, rec.hit && !rec.batched);
            if let Ok(ServeOutcome {
                compose: Some(p), ..
            }) = res
            {
                record_compose(&mut self.tracer, &mut self.composes, req, id, key, t0, p);
            }
        }
    }
}

/// Record a compose (from its `PreprocessProfile`) as a span with one
/// child per Figure-2 stage, named by the layer that owns the stage.
fn record_compose(
    tr: &mut Tracer,
    composes: &mut Vec<PreprocessProfile>,
    req: u64,
    parent: u64,
    key: usize,
    t0: Instant,
    p: &PreprocessProfile,
) {
    let ns = |s: f64| (s * 1e9) as u64;
    let id = tr.record(req, parent, "compose", key, t0, ns(p.total().wall_s));
    let stages = [
        ("compose.feature_extraction", p.feature_extraction.wall_s),
        ("compose.selection_inference", p.selection_inference.wall_s),
        ("compose.partition_inference", p.partition_inference.wall_s),
        ("cost.width_search", p.width_search.wall_s),
        ("cell.build", p.build.wall_s),
    ];
    for (name, wall) in stages {
        if wall > 0.0 {
            tr.record(req, id, name, key, t0, ns(wall));
        }
    }
    composes.push(*p);
}

/// Setup timer: sums the timed program calls of one setup repetition.
#[derive(Default)]
struct SetupClock {
    total_s: f64,
    new_s: f64,
}

impl SetupClock {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.total_s += t0.elapsed().as_secs_f64();
        r
    }

    /// Load the bundle and build the engine; `ServeEngine::new` is also
    /// reported alone as `engine.new_s`.
    fn engine(&mut self, cfg: &ServeConfig) -> Engine {
        let pipeline = self.time(load_pipeline);
        let t0 = Instant::now();
        let e = ServeEngine::new(ResilientPlanner::new(pipeline), cfg.clone());
        let dt = t0.elapsed().as_secs_f64();
        self.total_s += dt;
        self.new_s += dt;
        e
    }

    fn handles(&mut self, mats: &[CsrMatrix<f32>]) -> Vec<MatrixHandle<f32>> {
        let copies = mats.to_vec();
        self.time(|| {
            copies
                .into_iter()
                .map(|c| MatrixHandle::new(c).expect("generated matrices are valid"))
                .collect()
        })
    }

    /// Pre-compose `(handle, j)` plans; returns how many composed.
    fn warm(&mut self, engine: &Engine, plans: &[(&MatrixHandle<f32>, usize)]) -> usize {
        self.time(|| {
            plans
                .iter()
                .filter(|(h, j)| matches!(engine.warm(h, *j), Ok(true)))
                .count()
        })
    }
}

/// A workload's setup, repeated: `f` makes the program calls and
/// returns the state the phase serves from.
struct Setup<F> {
    f: F,
    setup_s: Vec<f64>,
    new_s: Vec<f64>,
}

impl<F> Setup<F> {
    fn new(f: F) -> Self {
        Setup {
            f,
            setup_s: Vec::new(),
            new_s: Vec::new(),
        }
    }

    fn rep<R>(&mut self) -> R
    where
        F: FnMut(&mut SetupClock) -> R,
    {
        let mut clock = SetupClock::default();
        let r = (self.f)(&mut clock);
        self.setup_s.push(clock.total_s);
        self.new_s.push(clock.new_s);
        r
    }

    /// The repetitions before the phase; returns the last one's state.
    fn before<R>(&mut self) -> R
    where
        F: FnMut(&mut SetupClock) -> R,
    {
        for _ in 1..SETUP_REPS_BEFORE {
            drop(self.rep());
        }
        self.rep()
    }

    /// The repetitions after the phase (its state already dropped).
    fn after<R>(&mut self)
    where
        F: FnMut(&mut SetupClock) -> R,
    {
        for _ in 0..SETUP_REPS_AFTER {
            drop(self.rep());
        }
    }
}

/// Engine counter movement between two snapshots.
fn stats_delta(a: &ServeStats, b: &ServeStats) -> ServeStats {
    ServeStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        rejected: b.rejected - a.rejected,
        degraded: b.degraded - a.degraded,
        failed: b.failed - a.failed,
        evictions: b.evictions - a.evictions,
        evicted_bytes: b.evicted_bytes - a.evicted_bytes,
        demotions: b.demotions - a.demotions,
        disk_hits: b.disk_hits - a.disk_hits,
        promotions: b.promotions - a.promotions,
        warm_loaded: b.warm_loaded - a.warm_loaded,
        warm_rejected: b.warm_rejected - a.warm_rejected,
        stale_evicted: b.stale_evicted - a.stale_evicted,
        oversized: b.oversized - a.oversized,
        quarantined: b.quarantined - a.quarantined,
        batches: b.batches - a.batches,
        batched_requests: b.batched_requests - a.batched_requests,
        batch_wait_s: b.batch_wait_s - a.batch_wait_s,
        ..*b
    }
}

fn stats_add(a: &mut ServeStats, d: &ServeStats) {
    a.hits += d.hits;
    a.misses += d.misses;
    a.rejected += d.rejected;
    a.degraded += d.degraded;
    a.failed += d.failed;
    a.evictions += d.evictions;
    a.demotions += d.demotions;
    a.disk_hits += d.disk_hits;
    a.promotions += d.promotions;
    a.stale_evicted += d.stale_evicted;
    a.batches += d.batches;
    a.batched_requests += d.batched_requests;
    a.batch_wait_s += d.batch_wait_s;
}

/// What a workload measured outside its phase: setup samples and sizes.
#[derive(Default)]
pub struct Extra {
    /// Serve keys the op streams index.
    pub keys: usize,
    pub setup_s: Vec<f64>,
    pub new_s: Vec<f64>,
    pub warm_loaded: u64,
    pub working_set_bytes: usize,
    pub plan_bytes: usize,
    pub ram_budget: usize,
    pub store_dir: Option<PathBuf>,
    /// Disk-tier record sizes from the probe pass.
    pub record_kb: Vec<f64>,
}

/// Everything a run measured, for the metric reducers in `metrics`.
pub struct Report {
    pub args: Args,
    pub recs: Vec<Rec>,
    pub spans: Vec<Span>,
    pub composes: Vec<PreprocessProfile>,
    pub wall_untraced_s: f64,
    pub allocs_untraced: u64,
    pub workers_spawned: usize,
    /// Engine counters over the whole phase, and over its untraced
    /// slices alone.
    pub stats: ServeStats,
    pub stats_untraced: ServeStats,
    /// Correctness checks: (what, held). A failed one fails the run.
    pub checks: Vec<(String, bool)>,
    /// The shape the workload is built to have (every plan warmed, each
    /// outcome class or update branch reached): (what, held). A miss is
    /// reported but is not an output error; the update branches, for
    /// one, follow the churn threshold the engine calibrates at start.
    pub expected: Vec<(String, bool)>,
    pub extra: Extra,
}

struct Phase {
    clients: Vec<Client>,
    wall_untraced_s: f64,
    allocs_untraced: u64,
    workers_spawned: usize,
    stats: ServeStats,
    stats_untraced: ServeStats,
}

/// Drive the workload's clients through the measured phase.
fn run_phase(
    args: &Args,
    engine: &Engine,
    epoch: Instant,
    keys: usize,
    body: &(dyn Fn(&mut Client, Op) + Sync),
) -> Phase {
    let n = args.workload.clients();
    let slices: Vec<bool> = if args.trace {
        (0..TRACE_SLICES).map(|i| i % 2 == 1).collect()
    } else {
        vec![false]
    };
    let slice = Duration::from_secs_f64(args.seconds / slices.len() as f64);
    let barrier = Barrier::new(n);
    // Lockstep clients issue each op together, so a pair's requests
    // always meet in the coalescer; the leader decides when to stop.
    let lockstep = args.workload == Workload::SharedNarrow;
    let go = AtomicBool::new(false);
    // Slice boundaries: time, allocation counters, engine counters.
    let marks = Mutex::new(Vec::new());
    let mark = || {
        let m = (Instant::now(), lf_sim::alloc::snapshot(), engine.stats());
        marks.lock().unwrap_or_else(PoisonError::into_inner).push(m)
    };
    let spawned0 = lf_sim::pool::workers_spawned_total();
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let (barrier, slices, mark, go) = (&barrier, &slices, &mark, &go);
                s.spawn(move || {
                    let mut stream = OpStream::new(args.workload, args.seed, c, keys);
                    let mut cx = Client::new(c, epoch);
                    for &traced in slices {
                        if barrier.wait().is_leader() {
                            mark();
                        }
                        barrier.wait();
                        cx.traced = traced;
                        let end = Instant::now() + slice;
                        loop {
                            if lockstep {
                                if barrier.wait().is_leader() {
                                    go.store(Instant::now() < end, Ordering::SeqCst);
                                }
                                barrier.wait();
                                if !go.load(Ordering::SeqCst) {
                                    break;
                                }
                            } else if Instant::now() >= end {
                                break;
                            }
                            body(&mut cx, stream.next_op());
                        }
                    }
                    if barrier.wait().is_leader() {
                        mark();
                    }
                    cx
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let marks = marks.into_inner().unwrap_or_else(PoisonError::into_inner);
    let (mut wall, mut allocs, mut untraced) = (0.0, 0, ServeStats::default());
    for (i, &traced) in slices.iter().enumerate() {
        if !traced {
            wall += (marks[i + 1].0 - marks[i].0).as_secs_f64();
            allocs += marks[i + 1].1.calls - marks[i].1.calls;
            stats_add(&mut untraced, &stats_delta(&marks[i].2, &marks[i + 1].2));
        }
    }
    Phase {
        clients,
        wall_untraced_s: wall,
        allocs_untraced: allocs,
        workers_spawned: lf_sim::pool::workers_spawned_total() - spawned0,
        stats: stats_delta(&marks[0].2, &marks[slices.len()].2),
        stats_untraced: untraced,
    }
}

/// Fold the phase into a report and apply the checks every workload
/// shares: the oracle, and the ledger identity against client tallies.
fn report(args: &Args, phase: Phase, probes: Probes, extra: Extra) -> Report {
    let mut recs = Vec::new();
    let mut spans = probes.tracer.spans;
    let mut composes = probes.composes;
    for c in phase.clients {
        recs.extend(c.recs);
        spans.extend(c.tracer.spans);
        composes.extend(c.composes);
    }
    let n = |class: Class| recs.iter().filter(|r| r.class == class).count() as u64;
    let seen = (
        n(Class::Hit),
        n(Class::Miss),
        n(Class::Degraded),
        n(Class::Rejected),
        n(Class::Failed),
    );
    let answered = |r: &&Rec| matches!(r.class, Class::Hit | Class::Miss | Class::Degraded);
    let mismatches = recs.iter().filter(answered).filter(|r| !r.ok).count();
    let s = &phase.stats;
    let serves = recs.iter().filter(|r| !r.update).count() as u64;
    let ledger =
        s.requests() == serves && (s.hits, s.misses, s.degraded, s.rejected, s.failed) == seen;
    Report {
        args: *args,
        checks: vec![
            (format!("oracle: {mismatches} mismatching responses"), mismatches == 0),
            (
                format!(
                    "ledger: engine requests {} = hits {} + misses {} + rejected {} + degraded {} + failed {}; client saw {serves} serves (hits, misses, degraded, rejected, failed) = {seen:?}",
                    s.requests(), s.hits, s.misses, s.rejected, s.degraded, s.failed
                ),
                ledger,
            ),
        ],
        recs,
        spans,
        composes,
        wall_untraced_s: phase.wall_untraced_s,
        allocs_untraced: phase.allocs_untraced,
        workers_spawned: phase.workers_spawned,
        stats: phase.stats,
        stats_untraced: phase.stats_untraced,
        expected: Vec::new(),
        extra,
    }
}

/// A scratch directory removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let p = out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create the benchmark's scratch directory");
        ScratchDir(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spans and compose profiles recorded outside the client threads.
struct Probes {
    tracer: Tracer,
    composes: Vec<PreprocessProfile>,
    record_kb: Vec<f64>,
}

impl Probes {
    fn new(epoch: Instant) -> Self {
        Probes {
            tracer: Tracer::new(epoch, 0),
            composes: Vec::new(),
            record_kb: Vec::new(),
        }
    }

    /// Compose a probe plan with the production pipeline, recording its
    /// profile.
    fn compose(&mut self, pipeline: &LiteForm, key: usize, csr: &CsrMatrix<f32>, j: usize) -> Plan {
        let t0 = Instant::now();
        let p = pipeline.prepare(csr, j);
        record_compose(
            &mut self.tracer,
            &mut self.composes,
            0,
            0,
            key,
            t0,
            &p.profile,
        );
        p
    }
}

/// One key of the probe pass.
struct ProbeItem<'a> {
    key: usize,
    csr: &'a CsrMatrix<f32>,
    /// The plan the engine serves this key with.
    plan: &'a Plan,
    b: &'a DenseMatrix<f32>,
    /// For coalesced keys: the fused-width plan and the partner operand.
    fused: Option<(&'a Plan, &'a DenseMatrix<f32>)>,
}

fn probe_execute(
    tr: &mut Tracer,
    req: u64,
    key: usize,
    plan: &Plan,
    nnz: usize,
    b: &DenseMatrix<f32>,
) {
    let name = if plan.uses_cell() {
        "kernels.execute.cell"
    } else {
        "kernels.execute.csr"
    };
    let (c, id) = tr.span(req, 0, name, key, || plan.run(b).expect("probe plan runs"));
    let bytes = plan.format_bytes() + b.memory_bytes() + c.memory_bytes();
    tr.set_work(id, bytes as u64, 2 * (nnz * b.cols()) as u64);
    black_box(c);
}

/// The coalescer's fused path in pieces: concat, scatter, and the whole
/// `run_batched`.
fn probe_fused(
    tr: &mut Tracer,
    key: usize,
    plan: &Plan,
    b: &DenseMatrix<f32>,
    partner: &DenseMatrix<f32>,
) {
    let (j, req) = (b.cols(), 0);
    let (wide, _) = tr.span(req, 0, "kernels.concat", key, || {
        lf_kernels::concat_columns(&[b, partner]).expect("same row count")
    });
    let (parts, _) = tr.span(req, 0, "kernels.scatter", key, || {
        lf_kernels::scatter_columns(&wide, &[j, partner.cols()])
            .expect("widths sum to the wide width")
    });
    let (fused, _) = tr.span(req, 0, "kernels.run_batched", key, || {
        plan.run_batched(&[b, partner]).expect("fused run")
    });
    black_box((parts, fused));
}

/// The probe pass (`--trace 1`, after the phase, one thread, nothing
/// else running):
///
/// * on every key, the work a serve of that key contains — execute on
///   the same plan and operand, plus validation and fingerprinting for
///   raw payloads (`payload`), plus the fused kernel for coalesced keys.
///   These are the attributions the engine's self time subtracts;
/// * on a few keys, a sweep of the remaining layer functions, so each
///   per-layer metric is measured on every workload: the disk tier's
///   `put`/`get`, the CSR baseline kernel, the fused path, and the
///   update path.
fn probe_pass(pr: &mut Probes, items: &[ProbeItem], payload: bool, seed: u64) {
    let tr = &mut pr.tracer;
    let reps = (PROBE_BUDGET / items.len().max(1)).clamp(SWEEP_REPS, 20);
    for it in items {
        for _ in 0..reps {
            probe_execute(tr, ATTRIBUTED, it.key, it.plan, it.csr.nnz(), it.b);
            if payload {
                probe_ingress(tr, ATTRIBUTED, it.key, it.csr);
            }
            if let Some((plan, partner)) = it.fused {
                // The fused kernel alone: the window wait, concat and
                // scatter around it stay in the engine's self time.
                let wide = lf_kernels::concat_columns(&[it.b, partner]).expect("same row count");
                let (c, _) = tr.span(ATTRIBUTED, 0, "kernels.execute.fused", it.key, || {
                    plan.run(&wide).expect("fused probe runs")
                });
                black_box(c);
            }
        }
    }

    let dir = ScratchDir::new("probe-store");
    let store: PlanStore<f32> = PlanStore::open(StoreConfig {
        dir: dir.0.clone(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .expect("open the probe store");
    let n = SWEEP_KEYS.min(items.len());
    for (i, it) in (0..n).map(|i| (i, &items[i * items.len() / n])) {
        let (key, j) = (it.key, it.b.cols());
        let fp = probe_ingress(tr, 0, key, it.csr);
        store.remove(&fp, j);
        let before = store.bytes();
        let (put, _) = tr.span(0, 0, "store.put", key, || store.put(&fp, j, it.plan, 1, 1));
        put.expect("probe store put");
        pr.record_kb.push((store.bytes() - before) as f64 / 1024.0);
        let (got, _) = tr.span(0, 0, "store.get", key, || store.get(&fp, j));
        assert!(
            matches!(got, Ok(Some(_))),
            "the probe store returns the record it wrote"
        );

        let csr_plan = Plan::from_csr(it.csr.clone(), PreprocessProfile::default()).with_tuned_j(j);
        let partner =
            DenseMatrix::random(it.b.rows(), j, &mut gen::rng(seed, gen::stream::BATCH - 1));
        for _ in 0..SWEEP_REPS {
            probe_execute(tr, 0, key, &csr_plan, it.csr.nnz(), it.b);
            probe_fused(tr, key, it.plan, it.b, &partner);
        }

        let k = gen::touched_rows(it.csr.rows(), 10);
        let batch = gen::update_batch(
            it.csr,
            k,
            None,
            &mut gen::rng(seed, gen::stream::BATCH + i as u64),
        );
        let (new, _) = tr.span(0, 0, "sparse.apply_updates", key, || {
            it.csr.apply_updates(&batch)
        });
        let new = new.expect("sweep batch is valid");
        if let Some(cell) = it.plan.cell() {
            let touched: Vec<(usize, usize)> = batch.iter().map(|u| u.coord()).collect();
            let mut cell = cell.clone();
            let (r, _) = tr.span(0, 0, "cell.update", key, || {
                lf_cell::update_cell(&mut cell, &new, &touched)
            });
            r.expect("sweep update_cell");
        }
    }
}

/// Validate and fingerprint a payload as the engine's ingress does.
fn probe_ingress(tr: &mut Tracer, req: u64, key: usize, csr: &CsrMatrix<f32>) -> Fingerprint {
    let bytes = csr.memory_bytes() as u64;
    let (v, id) = tr.span(req, 0, "sparse.validate", key, || {
        black_box(csr).validate_finite()
    });
    v.expect("workload matrices are valid");
    tr.set_work(id, bytes, 0);
    let (fp, id) = tr.span(req, 0, "fingerprint", key, || {
        black_box(Fingerprint::of_csr(black_box(csr)))
    });
    tr.set_work(id, bytes, 0);
    fp
}

pub fn run(args: &Args) -> Report {
    match args.workload {
        Workload::HotRepeat => hot_repeat(args),
        Workload::ZipfSpill => zipf_spill(args),
        Workload::UpdateMix => update_mix(args),
        Workload::SharedNarrow => shared_narrow(args),
    }
}

fn build_graphs(names: &[&str]) -> Vec<CsrMatrix<f32>> {
    names
        .iter()
        .map(|n| {
            GraphSpec::by_name(n)
                .expect("a Table 4 graph")
                .build(Scale::Small)
        })
        .collect()
}

fn bytes_of(mats: &[CsrMatrix<f32>], dense: &[&DenseMatrix<f32>]) -> usize {
    mats.iter().map(CsrMatrix::memory_bytes).sum::<usize>()
        + dense.iter().map(|d| d.memory_bytes()).sum::<usize>()
}

/// `hot_repeat`: every (graph, J) plan pre-warmed; the phase is pure
/// cache hits, so kernel execution is nearly all of the time.
fn hot_repeat(args: &Args) -> Report {
    let epoch = Instant::now();
    let names: Vec<&str> = GNN_GRAPHS.iter().map(|g| g.name).collect();
    let graphs = build_graphs(&names);
    let mut r = gen::rng(args.seed, gen::stream::INPUTS);
    let keys: Vec<Key> = (0..graphs.len())
        .flat_map(|m| gen::HOT_WIDTHS.map(|j| (m, j)))
        .map(|(matrix, j)| Key {
            matrix,
            b: DenseMatrix::random(graphs[matrix].cols(), j, &mut r),
        })
        .collect();
    let refs: Vec<DenseMatrix<f32>> = keys
        .iter()
        .map(|k| reference(&graphs[k.matrix], &k.b))
        .collect();
    let tol: Vec<Vec<f32>> = graphs.iter().map(row_tolerance).collect();

    let cfg = ServeConfig {
        byte_budget: HOT_BUDGET,
        ..ServeConfig::default()
    };
    let mut setup = Setup::new(|clock: &mut SetupClock| {
        let engine = clock.engine(&cfg);
        let handles = clock.handles(&graphs);
        let plans: Vec<_> = keys
            .iter()
            .map(|k| (&handles[k.matrix], k.b.cols()))
            .collect();
        let warmed = clock.warm(&engine, &plans);
        (engine, handles, warmed)
    });
    let (engine, handles, warmed) = setup.before();
    let plan_bytes = engine.stats().cached_bytes;

    let body = |cx: &mut Client, op: Op| {
        let Op::Serve { key } = op else {
            unreachable!("hot_repeat only serves")
        };
        let k = &keys[key];
        let t0 = Instant::now();
        let res = engine.serve_handle(&handles[k.matrix], &k.b);
        cx.serve_done(
            "engine.serve_handle",
            key,
            t0,
            &res,
            &refs[key],
            &tol[k.matrix],
            false,
        );
    };
    let phase = run_phase(args, &engine, epoch, keys.len(), &body);
    drop((engine, handles));
    setup.after();
    let mut probes = Probes::new(epoch);
    if args.trace {
        let pipeline = load_pipeline();
        let plans: Vec<Plan> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| probes.compose(&pipeline, i, &graphs[k.matrix], k.b.cols()))
            .collect();
        let items: Vec<ProbeItem> = keys
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(key, (k, plan))| ProbeItem {
                key,
                csr: &graphs[k.matrix],
                plan,
                b: &k.b,
                fused: None,
            })
            .collect();
        probe_pass(&mut probes, &items, false, args.seed);
    }

    let dense: Vec<&DenseMatrix<f32>> = keys.iter().map(|k| &k.b).chain(&refs).collect();
    let extra = Extra {
        keys: keys.len(),
        setup_s: setup.setup_s,
        new_s: setup.new_s,
        working_set_bytes: bytes_of(&graphs, &dense) + plan_bytes,
        plan_bytes,
        ram_budget: cfg.byte_budget,
        record_kb: std::mem::take(&mut probes.record_kb),
        ..Extra::default()
    };
    let mut rep = report(args, phase, probes, extra);
    let s = rep.stats;
    rep.expected.push((
        format!("warm: {warmed} of {} plans pre-composed", keys.len()),
        warmed == keys.len(),
    ));
    rep.expected.push((
        format!(
            "hits only: hit rate {} with {} evictions",
            s.hit_rate(),
            s.evictions
        ),
        s.misses == 0 && s.hits > 0 && s.evictions == 0,
    ));
    rep
}

/// The `zipf_spill` RAM budget for a population's plan bytes: about a
/// quarter, so hot plans stay in RAM, warm ones spill to disk, and the
/// tail composes.
pub fn spill_ram_budget(population_plan_bytes: usize) -> usize {
    population_plan_bytes / 4
}

/// `zipf_spill`: raw CSR payloads drawn Zipf(1) from a mixed-family
/// population whose plans overflow RAM into the disk tier.
fn zipf_spill(args: &Args) -> Report {
    let epoch = Instant::now();
    let mats: Vec<CsrMatrix<f32>> = gen::population(args.seed, gen::POPULATION)
        .iter()
        .map(gen::MatrixSpec::build)
        .collect();
    let mut r = gen::rng(args.seed, gen::stream::INPUTS);
    let keys: Vec<Key> = (0..mats.len())
        .map(|matrix| Key {
            matrix,
            b: DenseMatrix::random(mats[matrix].cols(), gen::NARROW_J, &mut r),
        })
        .collect();
    let refs: Vec<DenseMatrix<f32>> = keys
        .iter()
        .map(|k| reference(&mats[k.matrix], &k.b))
        .collect();
    let tol: Vec<Vec<f32>> = mats.iter().map(row_tolerance).collect();

    // The population's plans size both budgets (the disk tier holds about
    // half of them, so the coldest fall out of both tiers and recompose),
    // and serve as the probe pass's plans.
    let pipeline = load_pipeline();
    let mut probes = Probes::new(epoch);
    let plans: Vec<Plan> = mats
        .iter()
        .enumerate()
        .map(|(i, m)| probes.compose(&pipeline, i, m, gen::NARROW_J))
        .collect();
    let plan_bytes: usize = plans.iter().map(Plan::format_bytes).sum();
    let store = ScratchDir::new("store");
    let cfg = ServeConfig {
        shards: SPILL_SHARDS,
        byte_budget: spill_ram_budget(plan_bytes),
        store_dir: Some(store.0.to_string_lossy().into_owned()),
        disk_budget_bytes: plan_bytes / 2,
        ..ServeConfig::default()
    };

    // An untimed previous life fills the disk tier: it serves a Zipf
    // stream under the same budgets and snapshots, so setup below is a
    // warm restart.
    {
        let engine = ServeEngine::new(ResilientPlanner::new(pipeline), cfg.clone());
        let mut prev = OpStream::new(Workload::ZipfSpill, args.seed, 99, mats.len());
        for _ in 0..4 * mats.len() {
            let Op::Serve { key } = prev.next_op() else {
                unreachable!("zipf_spill only serves")
            };
            engine
                .serve(&mats[key], &keys[key].b)
                .expect("previous-life serve succeeds");
        }
        engine.snapshot().expect("previous-life snapshot persists");
    }

    let mut setup = Setup::new(|clock: &mut SetupClock| clock.engine(&cfg));
    let engine = setup.before();
    let warm_loaded = engine.stats().warm_loaded;

    let body = |cx: &mut Client, op: Op| {
        let Op::Serve { key } = op else {
            unreachable!("zipf_spill only serves")
        };
        let t0 = Instant::now();
        let res = engine.serve(&mats[key], &keys[key].b);
        cx.serve_done("engine.serve", key, t0, &res, &refs[key], &tol[key], false);
    };
    let phase = run_phase(args, &engine, epoch, keys.len(), &body);
    drop(engine);
    setup.after();
    if args.trace {
        // CELL and CSR plans alternate in the sweep's first keys.
        let (cell, csr): (Vec<usize>, Vec<usize>) =
            (0..plans.len()).partition(|&i| plans[i].uses_cell());
        let order: Vec<usize> = cell.iter().zip(&csr).flat_map(|(&a, &b)| [a, b]).collect();
        let items: Vec<ProbeItem> = order
            .into_iter()
            .map(|key| ProbeItem {
                key,
                csr: &mats[key],
                plan: &plans[key],
                b: &keys[key].b,
                fused: None,
            })
            .collect();
        probe_pass(&mut probes, &items, true, args.seed);
    }

    let dense: Vec<&DenseMatrix<f32>> = keys.iter().map(|k| &k.b).chain(&refs).collect();
    let extra = Extra {
        keys: keys.len(),
        setup_s: setup.setup_s,
        new_s: setup.new_s,
        warm_loaded,
        working_set_bytes: bytes_of(&mats, &dense) + plan_bytes,
        plan_bytes,
        ram_budget: cfg.byte_budget,
        store_dir: Some(store.0.clone()),
        record_kb: std::mem::take(&mut probes.record_kb),
    };
    let mut rep = report(args, phase, probes, extra);
    let s = rep.stats;
    let ram_hits = s.hits - s.disk_hits;
    rep.expected.push((
        format!(
            "three classes: {ram_hits} RAM hits, {} disk hits, {} misses",
            s.disk_hits, s.misses
        ),
        ram_hits > 0 && s.disk_hits > 0 && s.misses > 0,
    ));
    rep
}

/// Oracle state of `update_mix`: the shadow matrices the reference
/// tracks, and (traced runs) a mirror of each handle's cached plan.
struct Shadow {
    csr: Vec<CsrMatrix<f32>>,
    reference: Vec<DenseMatrix<f32>>,
    tol: Vec<Vec<f32>>,
    post_update: Vec<bool>,
    mirror: Vec<Option<Plan>>,
}

/// Attribution probes of each plan version `update_mix` creates. A
/// batch changes at most a tenth of a handle's rows, so every version of
/// a handle's plan shares one attribution: the fastest probe of any of
/// them, taken at different times through the run.
const VERSION_PROBES: usize = 4;

/// Follow a committed batch the way the engine does with its cached
/// plan: migrate a CELL plan below the churn threshold, recompose
/// otherwise (the engine recomposes on the next serve).
fn mirror_update(
    pipeline: &LiteForm,
    plan: Plan,
    new: &CsrMatrix<f32>,
    touched: &[(usize, usize)],
    rebuild: bool,
) -> Plan {
    if let (false, Some(cell), Some(config)) = (rebuild, plan.cell(), plan.cell_config()) {
        let mut cell = cell.clone();
        if lf_cell::update_cell(&mut cell, new, touched).is_ok() {
            return Plan::from_cell(config.clone(), cell, plan.profile).with_tuned_j(plan.tuned_j);
        }
    }
    pipeline.prepare(new, plan.tuned_j)
}

/// `update_mix`: one client interleaving `serve_handle` with edge
/// batches on four CELL handles.
fn update_mix(args: &Args) -> Report {
    let epoch = Instant::now();
    let pipeline = load_pipeline();
    // One handle per size class: the first candidate the selector
    // composes as CELL.
    let mats: Vec<CsrMatrix<f32>> = gen::update_mix_candidates(args.seed)
        .chunks(gen::UPDATE_MIX_FAMILIES)
        .filter_map(|class| {
            class
                .iter()
                .map(gen::MatrixSpec::build)
                .find(|m| pipeline.prepare(m, gen::NARROW_J).uses_cell())
        })
        .collect();
    let mut r = gen::rng(args.seed, gen::stream::INPUTS);
    let bs: Vec<DenseMatrix<f32>> = mats
        .iter()
        .map(|m| DenseMatrix::random(m.cols(), gen::NARROW_J, &mut r))
        .collect();
    let shadow = Mutex::new(Shadow {
        reference: mats.iter().zip(&bs).map(|(m, b)| reference(m, b)).collect(),
        tol: mats.iter().map(row_tolerance).collect(),
        csr: mats.clone(),
        post_update: vec![false; mats.len()],
        mirror: mats
            .iter()
            .map(|m| args.trace.then(|| pipeline.prepare(m, gen::NARROW_J)))
            .collect(),
    });

    let cfg = ServeConfig::default();
    let mut setup = Setup::new(|clock: &mut SetupClock| {
        let engine = clock.engine(&cfg);
        let handles = clock.handles(&mats);
        let plans: Vec<_> = handles.iter().map(|h| (h, gen::NARROW_J)).collect();
        let warmed = clock.warm(&engine, &plans);
        (engine, handles, warmed)
    });
    let (engine, handles, warmed) = setup.before();
    let plan_bytes = engine.stats().cached_bytes;

    let body = |cx: &mut Client, op: Op| {
        let mut st = shadow.lock().unwrap_or_else(PoisonError::into_inner);
        match op {
            Op::Serve { key: h } => {
                let post = std::mem::take(&mut st.post_update[h]);
                let t0 = Instant::now();
                let res = engine.serve_handle(&handles[h], &bs[h]);
                cx.serve_done(
                    "engine.serve_handle",
                    h,
                    t0,
                    &res,
                    &st.reference[h],
                    &st.tol[h],
                    post,
                );
            }
            Op::Update {
                handle: h,
                churn_permille,
                invalid,
                ordinal,
            } => {
                let k = gen::touched_rows(st.csr[h].rows(), churn_permille);
                let mut brng = gen::rng(args.seed, gen::stream::BATCH + ordinal);
                let batch = gen::update_batch(&st.csr[h], k, invalid, &mut brng);
                let before = handles[h].fingerprint();
                let t0 = Instant::now();
                let res = engine.apply_updates(&handles[h], &batch);
                let dur = t0.elapsed();
                let mut rec = Rec {
                    key: h,
                    update: true,
                    traced: cx.traced,
                    latency_s: dur.as_secs_f64(),
                    ..Rec::default()
                };
                let req = cx.req();
                match (invalid, res) {
                    (Some(_), Err(LfError::InvalidInput(_))) => {
                        rec.rejected_batch = true;
                        rec.ok = handles[h].fingerprint() == before;
                    }
                    (None, Ok(out)) => {
                        // The shadow follows through the public update
                        // path; the handle must land on the same matrix.
                        let t = Instant::now();
                        let new = st.csr[h]
                            .apply_updates(&batch)
                            .expect("the engine accepted this batch");
                        if cx.traced {
                            let ns = t.elapsed().as_nanos() as u64;
                            cx.tracer.record(req, 0, "sparse.apply_updates", h, t, ns);
                        }
                        rec.ok = Fingerprint::of_csr(&new).with_epoch(out.epoch) == out.fingerprint;
                        rec.rebuild = out.rebuild;
                        rec.migrated = out.migrated;
                        if let Some(plan) = st.mirror[h].take() {
                            let touched: Vec<(usize, usize)> =
                                batch.iter().map(|u| u.coord()).collect();
                            let plan = mirror_update(&pipeline, plan, &new, &touched, out.rebuild);
                            for _ in 0..VERSION_PROBES {
                                probe_execute(
                                    &mut cx.tracer,
                                    ATTRIBUTED,
                                    h,
                                    &plan,
                                    new.nnz(),
                                    &bs[h],
                                );
                            }
                            st.mirror[h] = Some(plan);
                        }
                        st.reference[h] = reference(&new, &bs[h]);
                        st.tol[h] = row_tolerance(&new);
                        st.csr[h] = new;
                        st.post_update[h] = true;
                    }
                    _ => {}
                }
                if cx.traced {
                    cx.tracer
                        .record(req, 0, "engine.apply_updates", h, t0, dur.as_nanos() as u64);
                }
                cx.recs.push(rec);
            }
        }
    };
    let mut probes = Probes::new(epoch);
    if args.trace {
        let st = shadow.lock().unwrap_or_else(PoisonError::into_inner);
        for (h, plan) in st.mirror.iter().flatten().enumerate() {
            for _ in 0..VERSION_PROBES {
                probe_execute(
                    &mut probes.tracer,
                    ATTRIBUTED,
                    h,
                    plan,
                    mats[h].nnz(),
                    &bs[h],
                );
            }
        }
    }
    let phase = run_phase(args, &engine, epoch, mats.len(), &body);
    drop((engine, handles));
    setup.after();
    let st = shadow.into_inner().unwrap_or_else(PoisonError::into_inner);
    if args.trace {
        for (h, m) in st.csr.iter().enumerate() {
            probes.compose(&pipeline, h, m, gen::NARROW_J);
        }
        let items: Vec<ProbeItem> = st
            .mirror
            .iter()
            .flatten()
            .enumerate()
            .map(|(h, plan)| ProbeItem {
                key: h,
                csr: &st.csr[h],
                plan,
                b: &bs[h],
                fused: None,
            })
            .collect();
        probe_pass(&mut probes, &items, false, args.seed);
    }

    let dense: Vec<&DenseMatrix<f32>> = bs.iter().chain(&st.reference).collect();
    let extra = Extra {
        keys: mats.len(),
        setup_s: setup.setup_s,
        new_s: setup.new_s,
        working_set_bytes: bytes_of(&st.csr, &dense) + plan_bytes,
        plan_bytes,
        ram_budget: cfg.byte_budget,
        record_kb: std::mem::take(&mut probes.record_kb),
        ..Extra::default()
    };
    let mut rep = report(args, phase, probes, extra);
    let updates: Vec<&Rec> = rep.recs.iter().filter(|r| r.update && r.ok).collect();
    let migrate = updates
        .iter()
        .filter(|r| !r.rejected_batch && !r.rebuild)
        .count();
    let rebuild = updates
        .iter()
        .filter(|r| !r.rejected_batch && r.rebuild)
        .count();
    let rejected = updates.iter().filter(|r| r.rejected_batch).count();
    rep.expected.push((
        format!(
            "warm: {warmed} of {} CELL handles pre-composed",
            gen::UPDATE_MIX_WEIGHTS.len()
        ),
        warmed == gen::UPDATE_MIX_WEIGHTS.len(),
    ));
    rep.expected.push((
        format!(
            "update branches: {migrate} migrate, {rebuild} rebuild, {rejected} rejected batches"
        ),
        migrate > 0 && rebuild > 0 && rejected > 0,
    ));
    rep
}

/// `shared_narrow`: two clients on the same two handles at J=2 with
/// coalescing on, so concurrent requests fuse into one J=4 execute.
fn shared_narrow(args: &Args) -> Report {
    let epoch = Instant::now();
    let graphs = build_graphs(&["cora", "pubmed"]);
    let clients = args.workload.clients();
    let mut r = gen::rng(args.seed, gen::stream::INPUTS);
    // Key `h * clients + c`: handle `h` with client `c`'s own operand.
    let keys: Vec<Key> = (0..graphs.len() * clients)
        .map(|i| Key {
            matrix: i / clients,
            b: DenseMatrix::random(graphs[i / clients].cols(), gen::SHARED_J, &mut r),
        })
        .collect();
    let refs: Vec<DenseMatrix<f32>> = keys
        .iter()
        .map(|k| reference(&graphs[k.matrix], &k.b))
        .collect();
    let tol: Vec<Vec<f32>> = graphs.iter().map(row_tolerance).collect();
    let cfg = ServeConfig {
        batch_window_us: SHARED_WINDOW_US,
        max_batch_j: gen::SHARED_MAX_BATCH_J,
        ..ServeConfig::default()
    };
    let widths = [gen::SHARED_J, gen::SHARED_MAX_BATCH_J];
    let mut setup = Setup::new(|clock: &mut SetupClock| {
        let engine = clock.engine(&cfg);
        let handles = clock.handles(&graphs);
        let plans: Vec<_> = handles
            .iter()
            .flat_map(|h| widths.map(|j| (h, j)))
            .collect();
        let warmed = clock.warm(&engine, &plans);
        (engine, handles, warmed)
    });
    let (engine, handles, warmed) = setup.before();
    let plan_bytes = engine.stats().cached_bytes;

    let body = |cx: &mut Client, op: Op| {
        let Op::Serve { key: h } = op else {
            unreachable!("shared_narrow only serves")
        };
        let key = h * clients + cx.id;
        let t0 = Instant::now();
        let res = engine.serve_handle(&handles[h], &keys[key].b);
        cx.serve_done(
            "engine.serve_handle",
            key,
            t0,
            &res,
            &refs[key],
            &tol[h],
            false,
        );
    };
    let phase = run_phase(args, &engine, epoch, graphs.len(), &body);
    drop((engine, handles));
    setup.after();
    let mut probes = Probes::new(epoch);
    if args.trace {
        let pipeline = load_pipeline();
        // Probe plans per handle at the solo and the fused width.
        let plans: Vec<[Plan; 2]> = graphs
            .iter()
            .enumerate()
            .map(|(h, g)| widths.map(|j| probes.compose(&pipeline, h * clients, g, j)))
            .collect();
        let items: Vec<ProbeItem> = keys
            .iter()
            .enumerate()
            .map(|(key, k)| {
                let [solo, fused] = &plans[k.matrix];
                let partner = &keys[k.matrix * clients + (key + 1) % clients].b;
                ProbeItem {
                    key,
                    csr: &graphs[k.matrix],
                    plan: solo,
                    b: &k.b,
                    fused: Some((fused, partner)),
                }
            })
            .collect();
        probe_pass(&mut probes, &items, false, args.seed);
    }

    let dense: Vec<&DenseMatrix<f32>> = keys.iter().map(|k| &k.b).chain(&refs).collect();
    let extra = Extra {
        keys: graphs.len(),
        setup_s: setup.setup_s,
        new_s: setup.new_s,
        working_set_bytes: bytes_of(&graphs, &dense) + plan_bytes,
        plan_bytes,
        ram_budget: cfg.byte_budget,
        record_kb: std::mem::take(&mut probes.record_kb),
        ..Extra::default()
    };
    let mut rep = report(args, phase, probes, extra);
    let s = rep.stats;
    rep.expected.push((
        format!("warm: {warmed} of 4 plans pre-composed"),
        warmed == 4,
    ));
    rep.expected.push((
        format!(
            "coalescing: {} fused executes covering {} requests",
            s.batches, s.batched_requests
        ),
        s.batches > 0,
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_spill_population_is_three_to_five_ram_budgets() {
        let pipeline = load_pipeline();
        let plans: Vec<Plan> = gen::population(1, gen::POPULATION)
            .iter()
            .map(|s| pipeline.prepare(&s.build(), gen::NARROW_J))
            .collect();
        let total: usize = plans.iter().map(Plan::format_bytes).sum();
        let budget = spill_ram_budget(total);
        let ratio = total as f64 / budget as f64;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "population/budget ratio {ratio}"
        );
        // Every plan fits its shard's budget slice, so it can be admitted.
        let largest = plans.iter().map(Plan::format_bytes).max().unwrap();
        assert!(
            largest <= budget / SPILL_SHARDS,
            "{largest} > {}",
            budget / SPILL_SHARDS
        );
    }

    #[test]
    fn oracle_tolerates_reordering_but_not_errors() {
        let csr = gen::population(2, 1)[0].build();
        let b = DenseMatrix::random(csr.cols(), 4, &mut gen::rng(2, 0));
        let r = reference(&csr, &b);
        let tol = row_tolerance(&csr);
        let mut c = r.clone();
        assert!(matches(&c, &r, &tol));
        let v = c.get(0, 0);
        c.set(0, 0, v + 1e-7);
        assert!(matches(&c, &r, &tol));
        c.set(0, 0, v + 0.5);
        assert!(!matches(&c, &r, &tol));
    }
}
