//! `liteform-cli` — inspect, compose and benchmark Matrix Market files.
//!
//! ```text
//! liteform-cli info     <matrix.mtx>
//! liteform-cli compose  <matrix.mtx> [--j N] [--device v100|a100]
//! liteform-cli bench    <matrix.mtx> [--j N] [--device v100|a100]
//! ```
//!
//! `info` prints the Table 2/3 features; `compose` runs the cost-model
//! composition (partition sweep + Algorithm 3) and reports the chosen
//! CELL configuration with its simulated kernel time; `bench` compares
//! every baseline system on the simulator.

use liteform::baselines::roster;
use liteform::cost::partition::optimal_partitions;
use liteform::cost::search::optimal_widths_for_matrix;
use liteform::prelude::*;
use liteform::sparse::io::read_matrix_market_file;
use liteform::sparse::{FormatFeatures, PartitionFeatures};
use std::process::ExitCode;

struct Args {
    command: String,
    path: String,
    j: usize,
    device: DeviceModel,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        return Err(
            "usage: liteform-cli <info|compose|bench> <matrix.mtx> [--j N] [--device v100|a100]"
                .into(),
        );
    }
    let command = argv[0].clone();
    if !matches!(command.as_str(), "info" | "compose" | "bench") {
        return Err(format!("unknown command '{command}'"));
    }
    let path = argv[1].clone();
    let mut j = 128usize;
    let mut device = DeviceModel::v100();
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--j" => {
                j = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--j needs a positive integer")?;
                i += 2;
            }
            "--device" => {
                device = match argv.get(i + 1).map(String::as_str) {
                    Some("v100") => DeviceModel::v100(),
                    Some("a100") => DeviceModel::a100(),
                    other => return Err(format!("unknown device {other:?}")),
                };
                i += 2;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        command,
        path,
        j,
        device,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let coo = match read_matrix_market_file::<f32>(&args.path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    let csr = CsrMatrix::from_coo(&coo);
    println!(
        "{}: {}x{}, nnz {}, density {:.3e}",
        args.path,
        csr.rows(),
        csr.cols(),
        csr.nnz(),
        csr.density()
    );

    match args.command.as_str() {
        "info" => {
            let f = FormatFeatures::from_csr(&csr);
            println!("\nTable 2 features (format selection):");
            for (name, v) in FormatFeatures::names().iter().zip(f.to_array()) {
                println!("  {name:<24} {v}");
            }
            let p = PartitionFeatures::from_csr(&csr, args.j);
            println!("\nTable 3 features (partition prediction, J={}):", args.j);
            for (name, v) in PartitionFeatures::names().iter().zip(p.to_array()) {
                println!("  {name:<28} {v}");
            }
        }
        "compose" => {
            let t0 = std::time::Instant::now();
            let sweep = optimal_partitions(&csr, args.j, &args.device);
            let widths = optimal_widths_for_matrix(&csr, sweep.best_p, args.j);
            let elapsed = t0.elapsed().as_secs_f64();
            let config = CellConfig::with_partitions(sweep.best_p).with_max_widths(widths.clone());
            let cell = build_cell(&csr, &config).expect("valid config");
            println!(
                "\ncomposed in {elapsed:.3} s: {} partitions, max widths {widths:?}",
                sweep.best_p
            );
            println!(
                "CELL: {} buckets, {} blocks, padding {:.1}%, {} bytes",
                cell.num_buckets(),
                cell.num_blocks(),
                cell.padding_ratio() * 100.0,
                cell.memory_bytes()
            );
            let profile = CellKernel::new(cell).profile(args.j, &args.device);
            println!(
                "simulated SpMM on {} at J={}: {:.4} ms ({} DRAM + {} L2 transactions)",
                args.device.name,
                args.j,
                profile.time_ms,
                profile.dram_transactions,
                profile.l2_transactions
            );
        }
        "bench" => {
            println!(
                "\nsimulated kernel times at J={} on {}:",
                args.j, args.device.name
            );
            let mut results: Vec<(String, Option<f64>)> = Vec::new();
            for system in roster::<f32>() {
                results.push((
                    system.name().to_string(),
                    system.kernel_time_ms(&csr, args.j, &args.device),
                ));
            }
            let sweep = optimal_partitions(&csr, args.j, &args.device);
            let widths = optimal_widths_for_matrix(&csr, sweep.best_p, args.j);
            let config = CellConfig::with_partitions(sweep.best_p).with_max_widths(widths);
            let cell = build_cell(&csr, &config).expect("valid config");
            results.push((
                "liteform(cell)".to_string(),
                Some(CellKernel::new(cell).profile(args.j, &args.device).time_ms),
            ));
            for (name, time) in results {
                match time {
                    Some(t) => println!("  {name:<20} {t:.4} ms"),
                    None => println!("  {name:<20} OOM"),
                }
            }
        }
        _ => unreachable!("validated above"),
    }
    ExitCode::SUCCESS
}
