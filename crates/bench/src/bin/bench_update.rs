//! Mutation benchmark: incremental CELL maintenance vs. full rebuild.
//!
//! The delta path's whole justification (DESIGN.md §15): when an edge
//! batch touches few rows, re-bucketing only those rows
//! ([`lf_cell::updated_cell`]) must beat recomposing the CELL from
//! scratch ([`lf_cell::build_cell`]) — otherwise the engine's
//! churn-threshold fallback would always pick the rebuild and plan
//! migration would be dead weight. This bench measures, per churn level
//! (touched-row fraction ∈ {0.1%, 1%, 10%}) on the reference
//! `mixed_regions` matrix:
//!
//! * **incremental** — build the cached CELL's successor with
//!   `updated_cell` (the exact work [`ServeEngine::apply_updates`] does
//!   per migrated plan);
//! * **rebuild** — `build_cell` of the updated matrix from scratch;
//! * the resulting speedup, plus an engine-level section timing a full
//!   mutate-migrate-sweep cycle against a cold recompose-and-serve.
//!
//! Writes `results/bench_update.json` (`LF_RESULTS_DIR` overrides);
//! with `--quick`, a seconds-scale smoke into `target/bench-update/`
//! that exits non-zero if incremental maintenance fails to beat the
//! rebuild 3x at ≤ 1% churn — the crossover claim the churn threshold
//! is calibrated around.
//!
//! [`ServeEngine::apply_updates`]: lf_serve::ServeEngine::apply_updates

use lf_bench::{fmt, write_json, Table};
use lf_cell::{build_cell, updated_cell, CellConfig};
use lf_serve::{FixedCellPlanner, MatrixHandle, ServeConfig, ServeEngine};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, EdgeUpdate, Pcg32};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct MatrixInfo {
    kind: &'static str,
    rows: usize,
    cols: usize,
    nnz: usize,
    partitions: usize,
}

#[derive(Serialize)]
struct ChurnRow {
    churn_permille: usize,
    touched_rows: usize,
    incremental_ms: f64,
    rebuild_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EngineCycle {
    touched_rows: usize,
    update_ms: f64,
    recompose_ms: f64,
    speedup: f64,
    migrated_per_update: u64,
}

#[derive(Serialize)]
struct Artifact {
    mode: &'static str,
    matrix: MatrixInfo,
    reps: usize,
    churn: Vec<ChurnRow>,
    low_churn_min_speedup: f64,
    engine: EngineCycle,
}

/// Best-of-`reps` wall time in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// A pattern-preserving batch touching `k` evenly spaced populated
/// rows: each gets its first stored value bumped. Value-only updates
/// keep the touched-row count exact (no bucket fold/unfold noise in
/// the timing) while still forcing every affected bucket rewrite.
fn churn_batch(csr: &CsrMatrix<f64>, k: usize) -> Vec<EdgeUpdate<f64>> {
    let rp = csr.row_ptr();
    let populated: Vec<usize> = (0..csr.rows()).filter(|&r| rp[r + 1] > rp[r]).collect();
    let k = k.clamp(1, populated.len());
    let stride = populated.len() / k;
    (0..k)
        .map(|i| {
            let r = populated[i * stride];
            let at = rp[r];
            EdgeUpdate::SetValue {
                row: r,
                col: csr.col_ind()[at] as usize,
                value: csr.values()[at] + 1.0,
            }
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, nnz, reps) = if quick {
        (512, 12_000, 3)
    } else {
        (4096usize, 200_000usize, 5)
    };
    let partitions = 4usize;

    let mut rng = Pcg32::seed_from_u64(17);
    let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(n, n, nnz, partitions, &mut rng));
    let config = CellConfig::with_partitions(partitions);
    let cell = build_cell(&csr, &config).expect("valid config");
    let matrix = MatrixInfo {
        kind: "mixed_regions",
        rows: csr.rows(),
        cols: csr.cols(),
        nnz: csr.nnz(),
        partitions,
    };
    eprintln!(
        "bench_update: {}x{} nnz={} p={partitions} reps={reps} ({})",
        csr.rows(),
        csr.cols(),
        csr.nnz(),
        if quick { "quick" } else { "full" }
    );

    // --- Incremental vs rebuild across churn levels ------------------
    let mut churn = Vec::new();
    let mut t = Table::new(&[
        "churn",
        "touched",
        "incremental_ms",
        "rebuild_ms",
        "speedup",
    ]);
    let mut low_churn_min_speedup = f64::INFINITY;
    for permille in [1usize, 10, 100] {
        let k = (csr.rows() * permille / 1000).max(1);
        let batch = churn_batch(&csr, k);
        let touched: Vec<(usize, usize)> = batch.iter().map(EdgeUpdate::coord).collect();
        let touched_rows = touched.len();
        let new_csr = csr.apply_updates(&batch).expect("valid batch");

        // The incremental side is exactly what plan migration pays per
        // cached plan: the CELL's successor with the touched rows
        // re-bucketed.
        let incremental_ms = time_ms(reps, || {
            updated_cell(&cell, &new_csr, &touched).expect("pattern-preserving batch");
        });
        let rebuild_ms = time_ms(reps, || {
            build_cell(&new_csr, &config).expect("valid config");
        });
        let speedup = rebuild_ms / incremental_ms;
        if permille <= 10 {
            low_churn_min_speedup = low_churn_min_speedup.min(speedup);
        }
        t.row(&[
            format!("{}%", permille as f64 / 10.0),
            touched_rows.to_string(),
            fmt(incremental_ms),
            fmt(rebuild_ms),
            fmt(speedup),
        ]);
        churn.push(ChurnRow {
            churn_permille: permille,
            touched_rows,
            incremental_ms,
            rebuild_ms,
            speedup,
        });
    }
    t.print();
    println!(
        "\nmin incremental-vs-rebuild speedup at <=1% churn: {}x",
        fmt(low_churn_min_speedup)
    );

    // --- Engine cycle: mutate + migrate + sweep vs cold recompose ----
    // The serving-side cost of staying warm through an update: one
    // `apply_updates` call (commit, plan migration, both-tier sweep)
    // against tearing the cache down and recomposing on the next serve.
    let mut brng = Pcg32::seed_from_u64(23);
    let b = DenseMatrix::random(csr.cols(), 8, &mut brng);
    let engine = ServeEngine::new(FixedCellPlanner::tuned(partitions), ServeConfig::default());
    let h = MatrixHandle::new(csr.clone()).expect("benchmark matrix is valid");
    engine.serve_handle(&h, &b).expect("warm serve");
    let k = (csr.rows() / 100).max(1);
    let batch = churn_batch(&csr, k);
    let updates_before = engine.stats().stale_evicted;
    // Re-applying the same value batch stays valid forever: the pattern
    // never changes, so each rep measures one full epoch turn.
    let update_ms = time_ms(reps * 4, || {
        engine.apply_updates(&h, &batch).expect("valid batch");
    });
    let turns = engine.stats().stale_evicted - updates_before;
    let recompose = ServeEngine::new(FixedCellPlanner::tuned(partitions), ServeConfig::default());
    let recompose_ms = time_ms(reps, || {
        recompose.clear();
        recompose.serve_handle(&h, &b).expect("cold serve");
    });
    let engine_cycle = EngineCycle {
        touched_rows: batch.len(),
        update_ms,
        recompose_ms,
        speedup: recompose_ms / update_ms,
        migrated_per_update: u64::from(turns > 0),
    };
    println!(
        "\nengine cycle at 1% churn: update+migrate+sweep {}ms vs recompose-and-serve {}ms \
         -> {}x",
        fmt(update_ms),
        fmt(recompose_ms),
        fmt(engine_cycle.speedup),
    );

    let artifact = Artifact {
        mode: if quick { "quick" } else { "full" },
        matrix,
        reps,
        churn,
        low_churn_min_speedup,
        engine: engine_cycle,
    };
    let dir = if quick {
        PathBuf::from("target/bench-update")
    } else {
        std::env::var("LF_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"))
    };
    write_json(&dir, "bench_update", &artifact);

    if quick && low_churn_min_speedup < 3.0 {
        eprintln!(
            "bench_update: FAIL — incremental maintenance must beat a rebuild 3x at <=1% churn, \
             got {low_churn_min_speedup}x"
        );
        std::process::exit(1);
    }
}
