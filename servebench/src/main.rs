//! `servebench`: the repository's serving benchmark.
//!
//! ```text
//! servebench --workload <hot_repeat|zipf_spill|update_mix|shared_narrow>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, times the program's
//! setup, drives closed-loop clients against `ServeEngine` for the given
//! seconds, checks every response, and prints a human-readable record
//! followed by one JSON line: the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`). Exits non-zero
//! when any check fails. See README.md beside this crate.

mod env;
mod gen;
mod metrics;
mod trace;
mod workloads;

use gen::Workload;
use metrics::Metric;
use workloads::Args;

const USAGE: &str =
    "usage: servebench --workload <hot_repeat|zipf_spill|update_mix|shared_narrow> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn print_table(title: &str, rows: &[Metric]) {
    println!("\n{title}");
    println!(
        "  {:<34} {:>16} {:<9} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in rows {
        println!(
            "  {:<34} {:>16.6} {:<9} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "servebench {} seed={} seconds={} trace={} clients={} (closed loop)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients()
    );
    let rep = workloads::run(&args);

    println!("\nenvironment");
    for (k, v) in env::block(&rep) {
        println!("  env.{k} = {v}");
    }

    let e2e = metrics::end_to_end(&rep);
    print_table(
        &format!(
            "end-to-end ({} slices; focus_p50_ms = {})",
            if args.trace { "untraced" } else { "all" },
            metrics::focus_class(w)
        ),
        &e2e,
    );
    if w == Workload::ZipfSpill {
        let get = |n: &str| e2e.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
        let (miss, hit) = (get("miss_latency_p50_ms"), get("hit_latency_p50_ms"));
        println!(
            "\nhit-vs-cold: miss_latency_p50_ms {miss:.4} / hit_latency_p50_ms {hit:.4} = {:.3}x",
            miss / hit
        );
    }

    println!("\nchecks");
    let mut correct = true;
    for (what, held) in &rep.checks {
        println!("  [{}] {what}", if *held { "ok" } else { "FAIL" });
        correct &= held;
    }
    println!("\nexpected workload shape (reported, not a failure)");
    for (what, held) in &rep.expected {
        println!("  [{}] {what}", if *held { "ok" } else { "MISSED" });
    }
    let attempted = rep.recs.len();
    let failed = rep.recs.iter().filter(|r| !r.ok).count();
    correct &= failed == 0 && attempted > 0;

    let layer = if args.trace {
        let layer = metrics::per_layer(&rep);
        print_table("per-layer (traced slices, layer probes)", &layer);
        let r = trace::Reduced::new(&rep.spans);
        let us = |f: &dyn Fn(&trace::Span) -> bool| -> Vec<f64> {
            rep.spans
                .iter()
                .filter(|s| f(s))
                .map(|s| s.dur_ns as f64 / 1e3)
                .collect()
        };
        let hits = us(&|s| s.hit);
        let exec = us(&|s| {
            s.req == trace::ATTRIBUTED
                && matches!(s.name, "kernels.execute.cell" | "kernels.execute.csr")
        });
        println!(
            "\nhit latency split: serve span p50 {:.3} us over {} hits; engine.self_us (hits) p50 \
             {:.3} us; attributed kernels.execute_us p50 {:.3} us",
            trace::median(&hits),
            hits.len(),
            trace::median(&metrics::engine_self_us(&r, true)),
            trace::median(&exec)
        );
        println!("\nself time by span (span minus recorded children)");
        println!(
            "  {:<34} {:>8} {:>14} {:>14} {:>12}",
            "span", "count", "median_us", "self_us", "self_ms_sum"
        );
        for (name, n, med, own, total) in r.self_table() {
            println!("  {name:<34} {n:>8} {med:>14.3} {own:>14.3} {total:>12.3}");
        }
        let path = workloads::out_dir().join(format!("trace_{}.jsonl", w.name()));
        match trace::dump(&path, &rep.spans) {
            Ok(()) => println!("\nspans: {} written to {}", rep.spans.len(), path.display()),
            Err(e) => println!("\nspans: could not write {}: {e}", path.display()),
        }
        layer
    } else {
        Vec::new()
    };

    let shown: Vec<&Metric> = if args.trace {
        layer.iter().collect()
    } else {
        e2e.iter()
            .filter(|m| metrics::GATED.contains(&m.name.as_str()))
            .collect()
    };
    println!("{}", result_line(correct, attempted, failed, &shown));
    if !correct {
        std::process::exit(1);
    }
}
