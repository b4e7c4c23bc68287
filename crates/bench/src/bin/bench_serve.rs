//! Serving-engine benchmark: cache-hit serve vs. cold compose+run.
//!
//! The amortization claim behind `lf-serve` (and §6.4 of the paper): a
//! repeated multiplication on the same matrix should pay only kernel
//! execution, not composition. This bench measures, per partition count
//! `p ∈ {4, 16, 32}` on the reference 4096×4096 `mixed_regions` matrix:
//!
//! * **cold** — `engine.clear()` then serve (fingerprint + compose +
//!   admit + run);
//! * **hit** — serve again (fingerprint + lookup + run);
//! * the resulting speedup (the PR's acceptance bar is ≥ 5× on every
//!   `p`), plus the engine's own counter snapshot;
//!
//! and a concurrent-throughput section: 8 threads hammering 4 warmed
//! handles through one engine. The warm-restart section also records
//! what one record costs the disk tier (`PlanStore::put`/`get`) and the
//! CRC-32 throughput.
//!
//! Writes `results/bench_serve.json` (`LF_RESULTS_DIR` overrides); with
//! `--quick`, a seconds-scale smoke into `target/bench-serve/` that
//! exits non-zero if a cache hit fails to beat a cold serve at all.

use lf_bench::{fmt, write_json, Table};
use lf_serve::{
    Fingerprint, MatrixHandle, PinnedLiteForm, Placement, PlanStore, Planner, ServeConfig,
    ServeEngine, ServeStats, StoreConfig,
};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::codec::crc32;
use liteform_core::{encode_plan, LiteForm, ModelBundle};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct MatrixInfo {
    kind: &'static str,
    rows: usize,
    cols: usize,
    nnz: usize,
    j: usize,
}

#[derive(Serialize)]
struct ServeRow {
    partitions: usize,
    cold_ms: f64,
    hit_ms: f64,
    hit_payload_ms: f64,
    speedup: f64,
    stats: ServeStats,
}

#[derive(Serialize)]
struct Throughput {
    threads: usize,
    hot_matrices: usize,
    requests: u64,
    wall_s: f64,
    requests_per_s: f64,
    hit_rate: f64,
}

#[derive(Serialize)]
struct BatchBench {
    threads: usize,
    sharers_per_matrix: usize,
    j_per_request: usize,
    fused_j: usize,
    rounds: usize,
    solo_requests_per_s: f64,
    batched_requests_per_s: f64,
    aggregate_speedup: f64,
    batches: u64,
    batched_requests: u64,
}

#[derive(Serialize)]
struct WarmRestart {
    matrices: usize,
    warm_loaded: u64,
    cold_start_ms: f64,
    warmed_ms: f64,
    first_request_speedup: f64,
    /// Median over the matrices of the best-of-reps `PlanStore::put`.
    store_put_ms: f64,
    /// Median over the matrices of the best-of-reps `PlanStore::get`.
    store_get_ms: f64,
    /// CRC-32 throughput over the largest encoded record.
    crc32_gbps: f64,
}

#[derive(Serialize)]
struct Artifact {
    mode: &'static str,
    matrix: MatrixInfo,
    reps: usize,
    serve: Vec<ServeRow>,
    min_speedup: f64,
    throughput: Throughput,
    coalescing: BatchBench,
    warm_restart: WarmRestart,
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

/// Median of a non-empty series.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // J defaults to the serving sweet spot (GNN feature widths of 8–16
    // are §2.1's motivating workload; at very large J kernel execution
    // dwarfs composition and caching has nothing left to save).
    // `LF_SERVE_J` overrides for sensitivity runs.
    let (n, nnz, j, reps) = if quick {
        (512, 12_000, 16, 3)
    } else {
        let j = std::env::var("LF_SERVE_J")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        // 50k nnz on 4096² is ~0.3% density (≈12 nnz/row) — the regime
        // of the paper's SuiteSparse graphs, and the regime where
        // composition cost dwarfs a single execution. `LF_SERVE_NNZ`
        // overrides for sensitivity runs.
        let nnz = std::env::var("LF_SERVE_NNZ")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000);
        (4096, nnz, j, 5)
    };

    let mut rng = Pcg32::seed_from_u64(11);
    let csr: CsrMatrix<f32> = CsrMatrix::from_coo(&mixed_regions(n, n, nnz, 4, &mut rng));
    let b = DenseMatrix::random(csr.cols(), j, &mut rng);
    let matrix = MatrixInfo {
        kind: "mixed_regions",
        rows: csr.rows(),
        cols: csr.cols(),
        nnz: csr.nnz(),
        j,
    };
    eprintln!(
        "bench_serve: {}x{} nnz={} J={j} reps={reps} ({})",
        csr.rows(),
        csr.cols(),
        csr.nnz(),
        if quick { "quick" } else { "full" }
    );

    // The planner is the trained pipeline (the checked-in bundle the
    // other benches use) with the partition count pinned per row: a cold
    // compose pays feature extraction, selector inference, the
    // Algorithm-3 width search, and CELL construction.
    let pipeline: LiteForm = ModelBundle::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/liteform-models.json"
    ))
    .expect("checked-in model bundle must load")
    .into_liteform();

    // --- Cold compose+run vs cache-hit serve, p in {4, 16, 32} --------
    // Cold is a first-contact request: the matrix arrives as a raw CSR
    // payload, so the engine fingerprints it (one O(nnz) pass), composes,
    // admits, and runs. Steady-state requests reference the registered
    // handle — fingerprint paid once at registration — so a hit is
    // lookup + kernel execution only. `hit_payload_ms` is also reported
    // for clients that keep resubmitting payloads.
    let handle = MatrixHandle::new(csr.clone()).expect("benchmark matrix is valid");
    let mut rows = Vec::new();
    let mut t = Table::new(&["serve", "cold_ms", "hit_ms", "hit_payload_ms", "speedup"]);
    let mut min_speedup = f64::INFINITY;
    for p in [4usize, 16, 32] {
        let planner = PinnedLiteForm {
            pipeline: pipeline.clone(),
            partitions: p,
        };
        let engine = ServeEngine::new(planner, ServeConfig::default());
        let cold_ms = time_ms(reps, || {
            engine.clear(); // every rep composes from scratch
            engine.serve(&csr, &b).unwrap();
        });
        engine.serve_handle(&handle, &b).unwrap(); // warm

        // Hits are an order of magnitude cheaper than cold serves, so
        // best-of needs more reps to shake scheduler noise out of the
        // sub-millisecond timings.
        let hit_ms = time_ms(reps * 4, || {
            engine.serve_handle(&handle, &b).unwrap();
        });
        let hit_payload_ms = time_ms(reps * 4, || {
            engine.serve(&csr, &b).unwrap();
        });
        let speedup = cold_ms / hit_ms;
        min_speedup = min_speedup.min(speedup);
        t.row(&[
            format!("p={p}"),
            fmt(cold_ms),
            fmt(hit_ms),
            fmt(hit_payload_ms),
            fmt(speedup),
        ]);
        rows.push(ServeRow {
            partitions: p,
            cold_ms,
            hit_ms,
            hit_payload_ms,
            speedup,
            stats: engine.stats(),
        });
    }
    t.print();
    println!(
        "\nmin hit-vs-cold speedup over p in {{4,16,32}}: {}x",
        fmt(min_speedup)
    );

    // --- Concurrent throughput: 8 threads, 4 warmed handles ----------
    let threads = 8usize;
    let iters = if quick { 8 } else { 20 };
    let engine = ServeEngine::new(
        PinnedLiteForm {
            pipeline: pipeline.clone(),
            partitions: 16,
        },
        ServeConfig::default(),
    );
    let hot: Vec<MatrixHandle<f32>> = (0..4u64)
        .map(|s| {
            let mut r = Pcg32::seed_from_u64(100 + s);
            MatrixHandle::new(CsrMatrix::from_coo(&mixed_regions(n, n, nnz, 4, &mut r)))
                .expect("benchmark matrix is valid")
        })
        .collect();
    for h in &hot {
        engine.warm(h, j).unwrap();
    }
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for ti in 0..threads {
            let (engine, hot, b) = (&engine, &hot, &b);
            scope.spawn(move || {
                let mut r = Pcg32::seed_from_u64(0xD00D + ti as u64);
                for _ in 0..iters {
                    let h = &hot[r.usize_in(0, hot.len())];
                    engine.serve_handle(h, b).unwrap();
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    let requests = stats.requests();
    let throughput = Throughput {
        threads,
        hot_matrices: hot.len(),
        requests,
        wall_s,
        requests_per_s: requests as f64 / wall_s,
        hit_rate: stats.hit_rate(),
    };
    println!(
        "\nthroughput: {} requests on {} threads in {}s = {} req/s (hit rate {})",
        requests,
        threads,
        fmt(wall_s),
        fmt(throughput.requests_per_s),
        fmt(throughput.hit_rate),
    );

    // --- Coalescing: 16 threads, 8 sharers per matrix, fused vs solo --
    // The tentpole claim for request coalescing: when many concurrent
    // requests multiply the SAME matrix, fusing their B columns into one
    // wide execute amortizes the sparse index-stream traffic (and the
    // per-request fixed costs) across the whole group — one pass over A
    // instead of eight. Identical barrier-paced workload on two engines
    // differing only in `batch_window_us`.
    let bt_threads = 16usize;
    let sharers = 8usize;
    // Narrow per-request operands (GNN inference at J=2) are exactly the
    // regime coalescing targets: each solo pass re-streams all of A's
    // indices and values for 2 columns of useful work, so fusing 8
    // sharers amortizes the A-traffic 8-fold.
    let jb = 2usize;
    let fused_j = sharers * jb;
    let (bt_n, bt_nnz) = (2048usize, 150_000usize);
    let rounds = if quick { 8 } else { 16 };
    let bt_hot: Vec<MatrixHandle<f32>> = (0..(bt_threads / sharers) as u64)
        .map(|s| {
            let mut r = Pcg32::seed_from_u64(300 + s);
            MatrixHandle::new(CsrMatrix::from_coo(&mixed_regions(
                bt_n, bt_n, bt_nnz, 4, &mut r,
            )))
            .expect("benchmark matrix is valid")
        })
        .collect();
    let bt_bs: Vec<DenseMatrix<f32>> = (0..bt_threads)
        .map(|t| {
            let mut r = Pcg32::seed_from_u64(0xB00 + t as u64);
            DenseMatrix::random(bt_n, jb, &mut r)
        })
        .collect();
    let run_workload = |window_us: u64| -> (f64, ServeStats) {
        let engine = ServeEngine::new(
            PinnedLiteForm {
                pipeline: pipeline.clone(),
                partitions: 16,
            },
            ServeConfig {
                batch_window_us: window_us,
                // The cap equals the fused width, so a full group closes
                // the instant its last sharer joins — the window is only
                // a straggler bound.
                max_batch_j: fused_j,
                ..ServeConfig::default()
            },
        );
        for h in &bt_hot {
            engine.warm(h, jb).unwrap();
            engine.warm(h, fused_j).unwrap();
        }
        let barrier = std::sync::Barrier::new(bt_threads);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..bt_threads {
                let (engine, bt_hot, bt_bs, barrier) = (&engine, &bt_hot, &bt_bs, &barrier);
                scope.spawn(move || {
                    let h = &bt_hot[t / sharers];
                    for _ in 0..rounds {
                        barrier.wait();
                        engine.serve_handle(h, &bt_bs[t]).unwrap();
                    }
                });
            }
        });
        (t0.elapsed().as_secs_f64(), engine.stats())
    };
    let (solo_wall_s, solo_stats) = run_workload(0);
    let (batched_wall_s, batched_stats) = run_workload(50_000);
    let total_requests = (bt_threads * rounds) as f64;
    let coalescing = BatchBench {
        threads: bt_threads,
        sharers_per_matrix: sharers,
        j_per_request: jb,
        fused_j,
        rounds,
        solo_requests_per_s: total_requests / solo_wall_s,
        batched_requests_per_s: total_requests / batched_wall_s,
        aggregate_speedup: solo_wall_s / batched_wall_s,
        batches: batched_stats.batches,
        batched_requests: batched_stats.batched_requests,
    };
    assert_eq!(solo_stats.requests(), total_requests as u64);
    assert_eq!(batched_stats.requests(), total_requests as u64);
    println!(
        "\ncoalescing: {} threads x {} rounds, {} sharers/matrix at J={} (fused J={}):\n  \
         solo    {} req/s\n  batched {} req/s ({} batches) -> {}x aggregate",
        bt_threads,
        rounds,
        sharers,
        jb,
        fused_j,
        fmt(coalescing.solo_requests_per_s),
        fmt(coalescing.batched_requests_per_s),
        batched_stats.batches,
        fmt(coalescing.aggregate_speedup),
    );

    // --- Warm restart: cold-start storm vs snapshot-warmed boot -------
    // The tiered-store claim (DESIGN.md §13): a restart should not be a
    // compose storm. A "previous process life" composes a working set
    // and snapshots it to the disk tier; then the same first-request
    // burst is timed against (a) a cold engine that composes everything
    // and (b) an engine whose constructor warmed from the snapshot, so
    // its first requests are RAM hits.
    let wr_matrices: Vec<CsrMatrix<f32>> = (0..4u64)
        .map(|s| {
            let mut r = Pcg32::seed_from_u64(500 + s);
            CsrMatrix::from_coo(&mixed_regions(n, n, nnz, 4, &mut r))
        })
        .collect();
    let store_dir = std::env::temp_dir().join(format!("lf-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_config = ServeConfig {
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    {
        // Previous life: compose the working set, snapshot, "die".
        let engine = ServeEngine::new(
            PinnedLiteForm {
                pipeline: pipeline.clone(),
                partitions: 16,
            },
            store_config.clone(),
        );
        for m in &wr_matrices {
            engine.serve(m, &b).unwrap();
        }
        engine.snapshot().expect("snapshot must persist the cache");
    }
    let cold_engine = ServeEngine::new(
        PinnedLiteForm {
            pipeline: pipeline.clone(),
            partitions: 16,
        },
        ServeConfig::default(),
    );
    let cold_start_ms = time_ms(reps, || {
        cold_engine.clear(); // every rep is a fresh cold-start storm
        for m in &wr_matrices {
            cold_engine.serve(m, &b).unwrap();
        }
    });
    let warmed_engine = ServeEngine::new(
        PinnedLiteForm {
            pipeline: pipeline.clone(),
            partitions: 16,
        },
        store_config,
    );
    let warm_loaded = warmed_engine.stats().warm_loaded;
    // Like the hit timings above: warmed first requests are an order of
    // magnitude cheaper than the cold storm, so best-of needs more reps
    // to shake scheduler noise out of sub-millisecond measurements.
    let warmed_ms = time_ms(reps * 4, || {
        for m in &wr_matrices {
            warmed_engine.serve(m, &b).unwrap();
        }
    });
    let _ = std::fs::remove_dir_all(&store_dir);

    // What one record costs the disk tier: `put` is encode, both CRCs,
    // and the synced write and rename; `get` is the read, both CRCs,
    // decode, and the fingerprint re-check.
    let io_dir = std::env::temp_dir().join(format!("lf-bench-store-io-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&io_dir);
    let store: PlanStore<f32> = PlanStore::open(StoreConfig {
        dir: io_dir.clone(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .expect("open a fresh plan store");
    let planner = PinnedLiteForm {
        pipeline: pipeline.clone(),
        partitions: 16,
    };
    let (mut put_ms, mut get_ms) = (Vec::new(), Vec::new());
    let mut largest_record = Vec::new();
    for m in &wr_matrices {
        let plan = planner.prepare(m, j).expect("compose a working-set plan");
        let fp = Fingerprint::of_csr(m);
        put_ms.push(time_ms(reps, || {
            store.put(&fp, j, &plan, 0, 1).expect("store put");
        }));
        get_ms.push(time_ms(reps, || {
            store
                .get(&fp, j)
                .expect("store get")
                .expect("record on disk");
        }));
        let record = encode_plan(&plan).expect("encode a composed plan");
        if record.len() > largest_record.len() {
            largest_record = record;
        }
    }
    let _ = std::fs::remove_dir_all(&io_dir);
    let crc_passes = 16;
    let crc_ms = time_ms(reps, || {
        for _ in 0..crc_passes {
            std::hint::black_box(crc32(std::hint::black_box(&largest_record)));
        }
    });
    let warm_restart = WarmRestart {
        matrices: wr_matrices.len(),
        warm_loaded,
        cold_start_ms,
        warmed_ms,
        first_request_speedup: cold_start_ms / warmed_ms,
        store_put_ms: median(put_ms),
        store_get_ms: median(get_ms),
        crc32_gbps: (largest_record.len() * crc_passes) as f64 / (crc_ms * 1e6),
    };
    println!(
        "\nwarm restart ({} matrices): cold-start storm {}ms vs snapshot-warmed {}ms -> {}x \
         first-request latency ({} records warmed)\n  \
         per record: store put {}ms, store get {}ms; crc32 {} GB/s over {} KiB",
        warm_restart.matrices,
        fmt(cold_start_ms),
        fmt(warmed_ms),
        fmt(warm_restart.first_request_speedup),
        warm_loaded,
        fmt(warm_restart.store_put_ms),
        fmt(warm_restart.store_get_ms),
        fmt(warm_restart.crc32_gbps),
        largest_record.len() / 1024,
    );

    let artifact = Artifact {
        mode: if quick { "quick" } else { "full" },
        matrix,
        reps,
        serve: rows,
        min_speedup,
        throughput,
        coalescing,
        warm_restart,
    };
    let dir = if quick {
        PathBuf::from("target/bench-serve")
    } else {
        std::env::var("LF_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"))
    };
    write_json(&dir, "bench_serve", &artifact);

    if quick && min_speedup < 1.0 {
        eprintln!("bench_serve: FAIL — cache hit slower than cold compose+run ({min_speedup}x)");
        std::process::exit(1);
    }
    if quick && artifact.coalescing.aggregate_speedup < 3.0 {
        eprintln!(
            "bench_serve: FAIL — coalescing must reach 3x aggregate throughput at {sharers} \
             sharers, got {}x",
            artifact.coalescing.aggregate_speedup
        );
        std::process::exit(1);
    }
    if quick && artifact.warm_restart.warm_loaded as usize != artifact.warm_restart.matrices {
        eprintln!(
            "bench_serve: FAIL — snapshot restart warmed {} of {} records",
            artifact.warm_restart.warm_loaded, artifact.warm_restart.matrices
        );
        std::process::exit(1);
    }
    if quick && artifact.warm_restart.first_request_speedup < 3.0 {
        eprintln!(
            "bench_serve: FAIL — snapshot-warmed restart must beat the cold-start storm 3x on \
             first-request latency, got {}x",
            artifact.warm_restart.first_request_speedup
        );
        std::process::exit(1);
    }
}
