//! Serving-planner regret on this host: for every key, how much slower
//! each plan candidate runs than the fastest of them.
//!
//! Two key sets:
//!
//! * the 14 GNN analogues of Table 4 at J = 32 and J = 128 (the
//!   `hot_repeat` keys);
//! * a 96-matrix population at J = 16 that cycles through the six
//!   `lf_sparse::gen` pattern families, with log-uniform sizes of
//!   1.5k–12k rows and 4–24 non-zeros per row (the shape of the
//!   `zipf_spill` population).
//!
//! Per key it times four plans, each run through `run_batched_on` over
//! the key's own matrix, in interleaved rounds (median of [`REPS`]):
//!
//! * `selector` — the paper pipeline (`LiteForm::prepare`): the
//!   selector's format and, for CELL, the partition predictor's `p`;
//! * `csr` — the fixed-CSR verdict;
//! * `cell_p1` — CELL at one partition under the Algorithm-3 width cap;
//! * `serving` — what the serving planner (`impl Planner for LiteForm`)
//!   returns. It is always the CSR verdict or the very `cell_p1` plan
//!   (the binary checks the configuration), so it is reported at that
//!   candidate's time rather than timed as a fourth copy.
//!
//! A plan's regret on a key is its time over the best of `selector`,
//! `csr` and `cell_p1`. The report prints, per key set and plan, the
//! geomean and worst regret, and writes every key's counts, predicted
//! costs and times to `results/planner_regret.json` (`LF_RESULTS_DIR`
//! overrides). It has no gate: one noisy run on a shared host must not
//! fail a build.
//!
//! ```sh
//! cargo run --release -p lf-bench --bin planner_regret
//! ```

use lf_bench::{geomean, write_json, BenchEnv, Table};
use lf_cost::tile::{plan_tile, predict_stream_ns, RowStream, TileFeatures};
use lf_data::{Scale, GNN_GRAPHS};
use lf_serve::Planner;
use lf_sparse::gen::{power_law, PatternFamily, PowerLawConfig};
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{compose_cell_at, LiteForm, ModelBundle, PreparedPlan, PreprocessProfile};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Population size and dense width of the population set.
const POPULATION: usize = 96;
const POPULATION_J: usize = 16;
/// Interleaved timing rounds per key; each plan's time is their median.
const REPS: usize = 21;
/// Seed of the population's generator and of the dense operands.
const SEED: u64 = 5;
/// Widths of the GNN set.
const GNN_WIDTHS: [usize; 2] = [32, 128];

/// One key: a matrix and a dense width.
struct Key {
    set: &'static str,
    name: String,
    csr: CsrMatrix<f32>,
    j: usize,
}

/// The 14 GNN keys.
fn gnn_keys() -> Vec<Key> {
    GNN_GRAPHS
        .iter()
        .flat_map(|g| {
            let csr: CsrMatrix<f32> = g.build(Scale::Small);
            GNN_WIDTHS.map(|j| Key {
                set: "gnn",
                name: format!("{}@J{j}", g.name),
                csr: csr.clone(),
                j,
            })
        })
        .collect()
}

/// The six-family population: family `i % 6`, rows and average row
/// length from two interleaved log-uniform quantile sequences, and each
/// matrix's pattern from its own seed.
fn population_keys() -> Vec<Key> {
    let n = POPULATION;
    let mut rng = Pcg32::new(SEED, 2);
    let quantile = |i: usize, stride: usize| ((i * stride) % n) as f64 / n as f64 + 0.5 / n as f64;
    let log_uniform = |u: f64, lo: f64, hi: f64| (lo.ln() + u * (hi.ln() - lo.ln())).exp();
    (0..n)
        .map(|i| {
            let family = PatternFamily::ALL[i % PatternFamily::ALL.len()];
            let rows = log_uniform(quantile(i, 37), 1_500.0, 12_000.0) as usize;
            let nnz = (rows as f64 * log_uniform(quantile(i, 59), 4.0, 24.0)) as usize;
            let mut r = Pcg32::seed_from_u64(rng.next_u64());
            let coo = match family {
                PatternFamily::PowerLaw => power_law(
                    &PowerLawConfig {
                        rows,
                        cols: rows,
                        target_nnz: nnz,
                        exponent: 1.8,
                        max_degree: Some((nnz / 20).max(32)),
                    },
                    &mut r,
                ),
                family => family.generate(rows, rows, nnz, &mut r),
            };
            Key {
                set: "population",
                name: format!("p{i}-{}", family.name()),
                csr: CsrMatrix::from_coo(&coo),
                j: POPULATION_J,
            }
        })
        .collect()
}

/// Which candidate the serving planner returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum Choice {
    Csr,
    CellP1,
}

#[derive(Serialize)]
struct KeyRecord {
    set: &'static str,
    key: String,
    rows: usize,
    nnz: usize,
    j: usize,
    /// The selector plan's partition count (0: fixed CSR).
    selector_p: usize,
    /// CELL at one partition: bucket rows and stored slots.
    cell_rows: usize,
    cell_slots: usize,
    pred_csr_us: f64,
    pred_cell_us: f64,
    choice: Choice,
    selector_ms: f64,
    csr_ms: f64,
    cell_p1_ms: f64,
    serving_ms: f64,
}

impl KeyRecord {
    fn best_ms(&self) -> f64 {
        self.selector_ms.min(self.csr_ms).min(self.cell_p1_ms)
    }
}

#[derive(Serialize)]
struct SetSummary {
    set: &'static str,
    keys: usize,
    /// `(plan, geomean regret, worst regret)` per plan.
    regret: Vec<(&'static str, f64, f64)>,
}

#[derive(Serialize)]
struct Report {
    reps: usize,
    seed: u64,
    sets: Vec<SetSummary>,
    keys: Vec<KeyRecord>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median milliseconds of each plan over [`REPS`] interleaved rounds,
/// after one untimed warm-up run of each. A sample runs a plan back to
/// back until it covers about two milliseconds, so sub-millisecond keys
/// are not timed at the clock's and the scheduler's granularity.
fn time_plans(
    plans: &[&PreparedPlan<f32>],
    csr: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
) -> Vec<f64> {
    let run = |plan: &PreparedPlan<f32>, n: usize| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(plan.run_batched_on(csr, &[b]).expect("plan runs"));
        }
        t0.elapsed().as_secs_f64() * 1e3 / n as f64
    };
    let warm = plans.iter().map(|p| run(p, 1)).fold(0.0, f64::max);
    let n = (2.0 / warm.max(1e-3)).ceil().min(64.0) as usize;
    let mut samples = vec![Vec::with_capacity(REPS); plans.len()];
    for _ in 0..REPS {
        for (plan, s) in plans.iter().zip(&mut samples) {
            s.push(run(plan, n));
        }
    }
    samples.into_iter().map(median).collect()
}

fn measure(lf: &LiteForm, key: &Key, rng: &mut Pcg32) -> KeyRecord {
    let (csr, j) = (&key.csr, key.j);
    let selector = lf.prepare(csr, j);
    let flat = PreparedPlan::csr_verdict(csr, PreprocessProfile::default()).with_tuned_j(j);
    let mut profile = PreprocessProfile::default();
    let (config, cell) = compose_cell_at(csr, 1, j, true, &mut profile);
    let (cell_rows, cell_slots) = (
        cell.partitions()
            .iter()
            .flat_map(|p| &p.buckets)
            .map(|b| b.num_rows())
            .sum(),
        cell.stored_slots(),
    );
    let cell_p1 = PreparedPlan::from_cell(config.clone(), cell, profile).with_tuned_j(j);
    let served = Planner::<f32>::prepare(lf, csr, j).expect("serving plan composes");
    let choice = if served.uses_cell() {
        assert_eq!(
            served.cell_config(),
            Some(&config),
            "{}: the serving planner's CELL is CELL at one partition",
            key.name
        );
        Choice::CellP1
    } else {
        Choice::Csr
    };
    let elem = std::mem::size_of::<f32>();
    let tile = plan_tile(TileFeatures::new(csr.rows(), csr.nnz(), elem), j);
    let pred = |s: RowStream| predict_stream_ns(s, j, &tile) / 1e3;
    let pred_csr_us = pred(RowStream::csr(csr.rows(), csr.nnz(), elem));
    let pred_cell_us = pred(RowStream {
        rows: cell_rows,
        slots: cell_slots,
        nnz: csr.nnz(),
        elem_bytes: elem,
    });
    let b = DenseMatrix::random(csr.cols(), j, rng);
    // A selector plan that is fixed CSR, or CELL at one partition, is the
    // very plan of that candidate: it shares the candidate's time, so
    // timing noise between two copies of one plan never reads as regret.
    let selector_p = selector.cell_config().map_or(0, |c| c.num_partitions);
    let t = match selector_p {
        0 | 1 => time_plans(&[&flat, &cell_p1], csr, &b),
        _ => time_plans(&[&flat, &cell_p1, &selector], csr, &b),
    };
    let selector_ms = match selector_p {
        0 => t[0],
        1 => {
            assert_eq!(selector.cell_config(), Some(&config), "{}", key.name);
            t[1]
        }
        _ => t[2],
    };
    KeyRecord {
        set: key.set,
        key: key.name.clone(),
        rows: csr.rows(),
        nnz: csr.nnz(),
        j,
        selector_p,
        cell_rows,
        cell_slots,
        pred_csr_us,
        pred_cell_us,
        choice,
        selector_ms,
        csr_ms: t[0],
        cell_p1_ms: t[1],
        serving_ms: if choice == Choice::CellP1 { t[1] } else { t[0] },
    }
}

fn summarize(set: &'static str, recs: &[&KeyRecord]) -> SetSummary {
    let plans: [(&'static str, fn(&KeyRecord) -> f64); 4] = [
        ("selector", |r| r.selector_ms),
        ("csr", |r| r.csr_ms),
        ("cell_p1", |r| r.cell_p1_ms),
        ("serving", |r| r.serving_ms),
    ];
    let regret = plans
        .iter()
        .map(|&(name, ms)| {
            let rs: Vec<f64> = recs.iter().map(|r| ms(r) / r.best_ms()).collect();
            let worst = rs.iter().copied().fold(1.0, f64::max);
            (name, geomean(&rs).unwrap_or(f64::NAN), worst)
        })
        .collect();
    SetSummary {
        set,
        keys: recs.len(),
        regret,
    }
}

fn main() {
    let lf = ModelBundle::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/liteform-models.json"
    ))
    .expect("checked-in model bundle must load")
    .into_liteform();

    let mut rng = Pcg32::seed_from_u64(SEED);
    let keys: Vec<Key> = gnn_keys().into_iter().chain(population_keys()).collect();
    let records: Vec<KeyRecord> = keys.iter().map(|k| measure(&lf, k, &mut rng)).collect();

    let mut table = Table::new(&[
        "key",
        "rows",
        "nnz",
        "cell slots",
        "sel p",
        "selector ms",
        "csr ms",
        "cell_p1 ms",
        "pred csr/cell",
        "serving",
        "regret",
    ]);
    for r in &records {
        table.row(&[
            r.key.clone(),
            r.rows.to_string(),
            r.nnz.to_string(),
            r.cell_slots.to_string(),
            r.selector_p.to_string(),
            format!("{:.3}", r.selector_ms),
            format!("{:.3}", r.csr_ms),
            format!("{:.3}", r.cell_p1_ms),
            format!("{:.3}", r.pred_csr_us / r.pred_cell_us),
            format!("{:?}", r.choice),
            format!("{:.3}", r.serving_ms / r.best_ms()),
        ]);
    }
    table.print();

    let sets: Vec<SetSummary> = ["gnn", "population"]
        .into_iter()
        .map(|set| {
            let recs: Vec<&KeyRecord> = records.iter().filter(|r| r.set == set).collect();
            summarize(set, &recs)
        })
        .collect();
    println!();
    let mut summary = Table::new(&["set", "keys", "plan", "geomean regret", "worst regret"]);
    for s in &sets {
        for &(plan, geo, worst) in &s.regret {
            summary.row(&[
                s.set.to_string(),
                s.keys.to_string(),
                plan.to_string(),
                format!("{:.3}", geo),
                format!("{:.3}", worst),
            ]);
        }
    }
    summary.print();
    let report = Report {
        reps: REPS,
        seed: SEED,
        sets,
        keys: records,
    };
    write_json(&BenchEnv::from_env().results_dir, "planner_regret", &report);
}
