//! SpMM execution-engine benchmark: per-kernel numeric throughput on this
//! host, with the CELL kernel measured on the engine path (`run`: row
//! bands, no atomics) against its CAS-flushing oracle
//! (`run_forced_atomic`: the bucket-chunk work queue, every row through
//! `atomic_add`), plus a three-way engine comparison per kernel: the
//! microkernel's one-lane arm (`Lanes::Scalar`) vs the SIMD strips at
//! the default tile vs SIMD at the cost-model-tuned tile (`plan_tile`),
//! and narrow passes timing every distinct numeric path at J=2
//! (`shared_narrow`'s solo width) and J=16 (the width most other serving
//! requests run at), each at its tuned tile.
//!
//! All engines are measured **in-process on the same operand**, so the
//! ratios are free of the cross-run variance this host shows on absolute
//! times. The arms a ratio compares are timed interleaved — every round
//! runs each arm once, in turn — and each arm reports its median round,
//! so a slow spell on a shared host lands on all of them alike instead of
//! on whichever arm it happened to overlap.
//!
//! Writes a machine-readable artifact:
//!
//! * full mode (default) — the reference configuration (4096×4096
//!   `mixed_regions`, 200k nnz, J=64, p ∈ {4, 16, 32}) into
//!   `results/bench_spmm.json` (`LF_RESULTS_DIR` overrides);
//! * `--quick` — a seconds-scale smoke at reduced sizes into
//!   `target/bench-spmm/bench_spmm.json`, exiting non-zero if the CELL
//!   engine path falls below 0.8× of the forced-atomic oracle **or** the
//!   SIMD engine fails its 1.2× speedup floor over the one-lane arm.
//!   Wired into `scripts/verify.sh --bench`.

use lf_bench::{fmt, geomean, write_json, Table};
use lf_cell::{build_cell, CellConfig};
use lf_cost::tile::{plan_tile, TileFeatures};
use lf_kernels::{
    BcsrKernel, CellKernel, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, EllKernel, Lanes,
    SellKernel, SpmmKernel, SputnikKernel, TacoKernel, TacoSchedule, TileParams,
};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32, SellMatrix};
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
struct KernelTime {
    name: String,
    time_ms: f64,
}

#[derive(Serialize)]
struct CellComparison {
    partitions: usize,
    engine_ms: f64,
    /// `run_forced_atomic` on the same operand: what `run` would cost
    /// with Algorithm 2's atomic flushes.
    forced_atomic_ms: f64,
    /// `forced_atomic_ms / engine_ms`.
    speedup: f64,
}

#[derive(Serialize)]
struct SimdComparison {
    name: String,
    scalar_ms: f64,
    simd_ms: f64,
    tuned_ms: f64,
    /// scalar vs the better of {default SIMD tile, tuned tile}.
    speedup: f64,
}

/// Dense widths of the narrow passes: `shared_narrow`'s solo width and
/// the width most other serving requests run at.
const NARROW_JS: [usize; 2] = [2, 16];

/// One narrow-width pass: every distinct numeric path at its tuned tile.
#[derive(Serialize)]
struct NarrowPass {
    j: usize,
    j_tile: usize,
    k_block: usize,
    lanes: String,
    kernels: Vec<KernelTime>,
}

#[derive(Serialize)]
struct Artifact {
    mode: &'static str,
    matrix: MatrixInfo,
    reps: usize,
    kernels: Vec<KernelTime>,
    cell: Vec<CellComparison>,
    geomean_speedup: f64,
    simd: Vec<SimdComparison>,
    simd_geomean_speedup: f64,
    narrow: Vec<NarrowPass>,
}

/// Median wall time in milliseconds of each arm over `reps` rounds, a
/// round running every arm once, in order.
fn median_ms<const N: usize>(reps: usize, arms: [&dyn Fn(); N]) -> [f64; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (arm, s) in arms.iter().zip(&mut samples) {
            let t0 = Instant::now();
            arm();
            s.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, nnz, j, reps) = if quick {
        (1024, 60_000, 64, 7)
    } else {
        (4096, 200_000, 64, 9)
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
        "bench_spmm: {}x{} nnz={} J={j} reps={reps} ({})",
        csr.rows(),
        csr.cols(),
        csr.nnz(),
        if quick { "quick" } else { "full" }
    );

    // --- All kernels on the shared engine -----------------------------
    let kernels: Vec<(&str, Box<dyn SpmmKernel<f32>>)> = vec![
        ("csr_scalar", Box::new(CsrScalarKernel::new(csr.clone()))),
        ("csr_vector", Box::new(CsrVectorKernel::new(csr.clone()))),
        ("dgsparse", Box::new(DgSparseKernel::new(csr.clone()))),
        ("sputnik", Box::new(SputnikKernel::new(csr.clone()))),
        (
            "taco",
            Box::new(TacoKernel::new(csr.clone(), TacoSchedule::default())),
        ),
        ("ell", Box::new(EllKernel::new(EllMatrix::from_csr(&csr)))),
        (
            "sell",
            Box::new(SellKernel::new(SellMatrix::from_csr(&csr, 32).unwrap())),
        ),
        (
            "bcsr",
            Box::new(BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap())),
        ),
    ];
    let mut kernel_times = Vec::new();
    let mut t = Table::new(&["kernel", "time_ms"]);
    for (name, k) in &kernels {
        let [ms] = median_ms(
            reps,
            [&|| {
                k.run(&b).unwrap();
            }],
        );
        t.row(&[name.to_string(), fmt(ms)]);
        kernel_times.push(KernelTime {
            name: name.to_string(),
            time_ms: ms,
        });
    }

    // --- CELL: row-band engine vs forced-atomic oracle, p in {4, 16, 32}
    let cell_kernels: Vec<(usize, CellKernel<f32>)> = [4usize, 16, 32]
        .into_iter()
        .map(|p| {
            (
                p,
                CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(p)).unwrap()),
            )
        })
        .collect();
    let mut cell_rows = Vec::new();
    let mut speedups = Vec::new();
    let mut ct = Table::new(&["cell", "engine_ms", "forced_atomic_ms", "speedup"]);
    for (p, k) in &cell_kernels {
        let engine = || {
            k.run(&b).unwrap();
        };
        let forced_atomic = || {
            k.run_forced_atomic(&b).unwrap();
        };
        let [engine_ms, forced_atomic_ms] = median_ms(reps, [&engine, &forced_atomic]);
        let speedup = forced_atomic_ms / engine_ms;
        ct.row(&[
            format!("p={p}"),
            fmt(engine_ms),
            fmt(forced_atomic_ms),
            fmt(speedup),
        ]);
        kernel_times.push(KernelTime {
            name: format!("cell_p{p}"),
            time_ms: engine_ms,
        });
        cell_rows.push(CellComparison {
            partitions: *p,
            engine_ms,
            forced_atomic_ms,
            speedup,
        });
        speedups.push(speedup);
    }
    let gm = geomean(&speedups).unwrap_or(0.0);

    // --- Scalar lanes vs SIMD strips vs cost-model-tuned tile ---------
    // One row per distinct numeric path (the four CSR-family kernels
    // share `parallel_csr_spmm_tiled`; `csr` stands in for all of them).
    let scalar_tile = TileParams::default().with_lanes(Lanes::Scalar);
    let default_tile = TileParams::default();
    let features = TileFeatures::new(csr.rows(), csr.nnz(), std::mem::size_of::<f32>());
    let tuned_tile = plan_tile(features, j);
    let k_csr = CsrScalarKernel::new(csr.clone());
    let k_taco = TacoKernel::new(csr.clone(), TacoSchedule::default());
    let k_ell = EllKernel::new(EllMatrix::from_csr(&csr));
    let k_sell = SellKernel::new(SellMatrix::from_csr(&csr, 32).unwrap());
    let k_bcsr = BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap());
    type RunTiled<'a> = Box<dyn Fn(&DenseMatrix<f32>, TileParams) + 'a>;
    let mut simd_cases: Vec<(String, RunTiled)> = vec![
        (
            "csr".into(),
            Box::new(|b, t| {
                k_csr.run_tiled(b, t).unwrap();
            }),
        ),
        (
            "taco".into(),
            Box::new(|b, t| {
                k_taco.run_tiled(b, t).unwrap();
            }),
        ),
        (
            "ell".into(),
            Box::new(|b, t| {
                k_ell.run_tiled(b, t).unwrap();
            }),
        ),
        (
            "sell".into(),
            Box::new(|b, t| {
                k_sell.run_tiled(b, t).unwrap();
            }),
        ),
        (
            "bcsr".into(),
            Box::new(|b, t| {
                k_bcsr.run_tiled(b, t).unwrap();
            }),
        ),
    ];
    for (p, k) in &cell_kernels {
        simd_cases.push((
            format!("cell_p{p}"),
            Box::new(move |b, t| {
                k.run_tiled(b, t).unwrap();
            }),
        ));
    }
    let mut simd_rows = Vec::new();
    let mut simd_speedups = Vec::new();
    let mut st = Table::new(&["engine", "scalar_ms", "simd_ms", "tuned_ms", "speedup"]);
    for (name, run) in &simd_cases {
        let [scalar_ms, simd_ms, tuned_ms] = median_ms(
            reps,
            [&|| run(&b, scalar_tile), &|| run(&b, default_tile), &|| {
                run(&b, tuned_tile)
            }],
        );
        let speedup = scalar_ms / simd_ms.min(tuned_ms);
        st.row(&[
            name.clone(),
            fmt(scalar_ms),
            fmt(simd_ms),
            fmt(tuned_ms),
            fmt(speedup),
        ]);
        simd_rows.push(SimdComparison {
            name: name.clone(),
            scalar_ms,
            simd_ms,
            tuned_ms,
            speedup,
        });
        simd_speedups.push(speedup);
    }
    let simd_gm = geomean(&simd_speedups).unwrap_or(0.0);

    // --- Narrow passes: J=2 and J=16 at the tuned tile ---------------
    let mut narrow = Vec::new();
    let mut narrow_tables = Vec::new();
    for j_narrow in NARROW_JS {
        let b_narrow = DenseMatrix::random(csr.cols(), j_narrow, &mut rng);
        let narrow_tile = plan_tile(features, j_narrow);
        let mut nt = Table::new(&["engine", "time_ms"]);
        let mut narrow_times = Vec::new();
        for (name, run) in &simd_cases {
            let [ms] = median_ms(reps, [&|| run(&b_narrow, narrow_tile)]);
            nt.row(&[name.clone(), fmt(ms)]);
            narrow_times.push(KernelTime {
                name: name.clone(),
                time_ms: ms,
            });
        }
        narrow_tables.push(nt);
        narrow.push(NarrowPass {
            j: j_narrow,
            j_tile: narrow_tile.j_tile,
            k_block: narrow_tile.k_block,
            lanes: format!("{:?}", narrow_tile.lanes),
            kernels: narrow_times,
        });
    }

    t.print();
    println!();
    ct.print();
    println!(
        "\ncell engine speedup over forced-atomic, geomean over p in {{4,16,32}}: {}x",
        fmt(gm)
    );
    println!();
    st.print();
    println!("\nSIMD-vs-scalar speedup geomean: {}x", fmt(simd_gm));
    for (pass, nt) in narrow.iter().zip(&narrow_tables) {
        println!(
            "\nJ={} at the tuned tile (j_tile {}, k_block {}, {}):",
            pass.j, pass.j_tile, pass.k_block, pass.lanes
        );
        nt.print();
    }

    let artifact = Artifact {
        mode: if quick { "quick" } else { "full" },
        matrix,
        reps,
        kernels: kernel_times,
        cell: cell_rows,
        geomean_speedup: gm,
        simd: simd_rows,
        simd_geomean_speedup: simd_gm,
        narrow,
    };
    let dir = if quick {
        PathBuf::from("target/bench-spmm")
    } else {
        std::env::var("LF_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"))
    };
    write_json(&dir, "bench_spmm", &artifact);

    if quick && gm < 0.8 {
        eprintln!(
            "bench_spmm: FAIL — CELL engine path slower than its forced-atomic oracle ({gm}x)"
        );
        std::process::exit(1);
    }
    // SIMD smoke floor: the wide strips must beat the one-lane arm by a
    // clear margin (geomean across the distinct numeric paths).
    if quick && simd_gm < 1.2 {
        eprintln!(
            "bench_spmm: FAIL — SIMD engine below its 1.2x geomean floor over scalar ({simd_gm}x)"
        );
        std::process::exit(1);
    }
}
