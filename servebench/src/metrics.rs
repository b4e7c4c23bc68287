//! Reduce a run's records to the end-to-end and per-layer metrics.

use crate::gen::Workload;
use crate::trace::{median, percentile, Reduced};
use crate::workloads::Report;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// End-to-end metrics the final result line carries (the `end_to_end`
/// list of `BENCHMARK.json`): each is defined, and never 0, on all four
/// workloads. Throughput, the tail and the per-class latencies are
/// printed with their sample counts but not gated: throughput is a mean
/// over every operation and its think time, and like the tails it
/// spreads wider from run to run on a shared host than any useful bound.
pub const GATED: [&str; 4] = ["latency_p50_ms", "focus_p50_ms", "setup_s", "peak_rss_mb"];

/// Median and p99 of a latency sample, in ms.
fn latency(out: &mut Vec<Metric>, prefix: &str, v: &[f64], p99: bool) {
    out.push(metric(
        &format!("{prefix}_p50_ms"),
        median(v),
        "ms",
        v.len(),
    ));
    if p99 {
        out.push(metric(
            &format!("{prefix}_p99_ms"),
            percentile(v, 99.0),
            "ms",
            v.len(),
        ));
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every end-to-end metric of the run, from its untraced operations.
pub fn end_to_end(rep: &Report) -> Vec<Metric> {
    let ms = |f: &dyn Fn(&crate::workloads::Rec) -> bool| -> Vec<f64> {
        rep.recs
            .iter()
            .filter(|r| !r.traced && f(r))
            .map(|r| r.latency_s * 1e3)
            .collect()
    };
    let serves = ms(&|r| !r.update);
    let ok_serves = rep
        .recs
        .iter()
        .filter(|r| !r.traced && !r.update && r.ok)
        .count();
    let hits = ms(&|r| !r.update && r.hit && !r.batched);
    let misses = ms(&|r| !r.update && r.miss);
    let batched = ms(&|r| !r.update && r.batched);
    let updates = ms(&|r| r.update);
    let post = ms(&|r| !r.update && r.post_update);
    let failed = rep.recs.iter().filter(|r| !r.ok).count();

    let mut out = vec![metric(
        "req_per_s",
        ok_serves as f64 / rep.wall_untraced_s,
        "req/s",
        ok_serves,
    )];
    latency(&mut out, "latency", &serves, true);
    latency(&mut out, "hit_latency", &hits, false);
    latency(&mut out, "miss_latency", &misses, true);
    latency(&mut out, "batched_latency", &batched, false);
    latency(&mut out, "update", &updates, true);
    latency(&mut out, "post_update_latency", &post, false);
    // The latency of the outcome class each workload exists to measure
    // (see `focus_class`).
    let focus = match rep.args.workload {
        Workload::HotRepeat => &hits,
        Workload::ZipfSpill => &misses,
        Workload::UpdateMix => &updates,
        Workload::SharedNarrow => &batched,
    };
    out.push(metric("focus_p50_ms", median(focus), "ms", focus.len()));
    out.push(metric(
        "error_rate",
        failed as f64 / rep.recs.len().max(1) as f64,
        "fraction",
        rep.recs.len(),
    ));
    out.push(metric(
        "setup_s",
        median(&rep.extra.setup_s),
        "s",
        rep.extra.setup_s.len(),
    ));
    out.push(metric("peak_rss_mb", peak_rss_mb(), "MiB", 1));
    out
}

/// The end-to-end class `focus_p50_ms` aliases on a workload.
pub fn focus_class(w: Workload) -> &'static str {
    match w {
        Workload::HotRepeat => "hit_latency_p50_ms",
        Workload::ZipfSpill => "miss_latency_p50_ms",
        Workload::UpdateMix => "update_p50_ms",
        Workload::SharedNarrow => "batched_latency_p50_ms",
    }
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Attributed in-engine work for each serve span name.
fn attributions(r: &Reduced) -> BTreeMap<&'static str, Vec<BTreeMap<usize, u64>>> {
    let mut exec = r.min_by_key("kernels.execute.cell");
    exec.extend(r.min_by_key("kernels.execute.csr"));
    let mut m = BTreeMap::new();
    m.insert(
        "engine.serve",
        vec![
            exec.clone(),
            r.min_by_key("sparse.validate"),
            r.min_by_key("fingerprint"),
        ],
    );
    m.insert("engine.serve_handle", vec![exec]);
    m.insert(
        "engine.serve_handle.batched",
        vec![r.min_by_key("kernels.execute.fused")],
    );
    m
}

/// Per-request engine self time over every serve span of the run.
pub fn engine_self_us(r: &Reduced, hits_only: bool) -> Vec<f64> {
    attributions(r)
        .iter()
        .flat_map(|(name, attr)| r.serve_self_us(name, attr, hits_only))
        .collect()
}

/// Every per-layer metric of a traced run.
pub fn per_layer(rep: &Report) -> Vec<Metric> {
    let r = Reduced::new(&rep.spans);
    // Engine counters from the untraced slices only.
    let s = &rep.stats_untraced;
    let req = s.requests();
    let serves_untraced = rep.recs.iter().filter(|x| !x.traced && !x.update).count();
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
        out.push(metric(name, value, unit, samples));
    };
    let count = |name: &str| r.named(name).count();

    push(
        "sparse.validate_us",
        r.median_us("sparse.validate"),
        "us",
        count("sparse.validate"),
    );
    push(
        "fingerprint.us",
        r.median_us("fingerprint"),
        "us",
        count("fingerprint"),
    );
    push(
        "fingerprint.gbps",
        r.median_gbps("fingerprint"),
        "GB/s",
        count("fingerprint"),
    );

    let cell: Vec<_> = rep
        .composes
        .iter()
        .filter(|p| p.build.wall_s > 0.0)
        .collect();
    let us = |v: Vec<f64>| median(&v) * 1e6;
    let all = rep.composes.len();
    push(
        "compose.feature_extraction_us",
        us(rep
            .composes
            .iter()
            .map(|p| p.feature_extraction.wall_s)
            .collect()),
        "us",
        all,
    );
    push(
        "compose.selection_inference_us",
        us(rep
            .composes
            .iter()
            .map(|p| p.selection_inference.wall_s)
            .collect()),
        "us",
        all,
    );
    push(
        "compose.partition_inference_us",
        us(cell.iter().map(|p| p.partition_inference.wall_s).collect()),
        "us",
        cell.len(),
    );
    push(
        "cost.width_search_us",
        us(cell.iter().map(|p| p.width_search.wall_s).collect()),
        "us",
        cell.len(),
    );
    push(
        "cell.build_us",
        us(cell.iter().map(|p| p.build.wall_s).collect()),
        "us",
        cell.len(),
    );
    push(
        "compose.total_us",
        us(rep.composes.iter().map(|p| p.total().wall_s).collect()),
        "us",
        all,
    );
    push(
        "compose.alloc_calls",
        median(
            &rep.composes
                .iter()
                .map(|p| p.total().alloc_calls as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
        all,
    );
    push(
        "compose.cell_frac",
        frac(cell.len() as u64, all as u64),
        "fraction",
        all,
    );

    let n = req as usize;
    push("engine.hit_rate", s.hit_rate(), "fraction", n);
    push(
        "engine.disk_hit_frac",
        frac(s.disk_hits, req),
        "fraction",
        n,
    );
    push("engine.miss_frac", frac(s.misses, req), "fraction", n);
    push("engine.degraded_frac", frac(s.degraded, req), "fraction", n);
    push(
        "engine.evictions_per_kreq",
        1e3 * frac(s.evictions, req),
        "count",
        n,
    );
    push(
        "engine.demotions_per_kreq",
        1e3 * frac(s.demotions, req),
        "count",
        n,
    );
    push(
        "engine.promotions_per_kreq",
        1e3 * frac(s.promotions, req),
        "count",
        n,
    );
    let self_us = engine_self_us(&r, false);
    push("engine.self_us", median(&self_us), "us", self_us.len());
    let nonneg = self_us.iter().filter(|&&v| v >= 0.0).count() as u64;
    push(
        "engine.self_nonneg_frac",
        frac(nonneg, self_us.len() as u64),
        "fraction",
        self_us.len(),
    );

    push(
        "store.get_us",
        r.median_us("store.get"),
        "us",
        count("store.get"),
    );
    push(
        "store.put_us",
        r.median_us("store.put"),
        "us",
        count("store.put"),
    );
    push(
        "store.record_kb",
        median(&rep.extra.record_kb),
        "KiB",
        rep.extra.record_kb.len(),
    );
    push(
        "engine.warm_loaded",
        rep.extra.warm_loaded as f64,
        "count",
        1,
    );
    push(
        "engine.new_s",
        median(&rep.extra.new_s),
        "s",
        rep.extra.new_s.len(),
    );

    let copy_gbps = 8.0 / lf_sim::calibration().copy_ns;
    for class in ["cell", "csr"] {
        let name: &'static str = if class == "cell" {
            "kernels.execute.cell"
        } else {
            "kernels.execute.csr"
        };
        let c = count(name);
        let gbps = r.median_gbps(name);
        push(
            &format!("kernels.{class}.execute_us"),
            r.median_us(name),
            "us",
            c,
        );
        push(
            &format!("kernels.{class}.gflops"),
            r.median_gflops(name),
            "GFLOP/s",
            c,
        );
        push(&format!("kernels.{class}.computed_gbps"), gbps, "GB/s", c);
        push(
            &format!("kernels.{class}.roofline_frac"),
            gbps / copy_gbps,
            "fraction",
            c,
        );
    }

    push(
        "batch.fused_frac",
        frac(s.batched_requests, req),
        "fraction",
        n,
    );
    push(
        "batch.mean_members",
        frac(s.batched_requests, s.batches),
        "count",
        s.batches as usize,
    );
    push(
        "batch.wait_us",
        1e6 * s.batch_wait_s / s.batched_requests.max(1) as f64,
        "us",
        s.batched_requests as usize,
    );
    push(
        "kernels.concat_us",
        r.median_us("kernels.concat"),
        "us",
        count("kernels.concat"),
    );
    push(
        "kernels.scatter_us",
        r.median_us("kernels.scatter"),
        "us",
        count("kernels.scatter"),
    );
    push(
        "kernels.run_batched_us",
        r.median_us("kernels.run_batched"),
        "us",
        count("kernels.run_batched"),
    );

    let committed: Vec<_> = rep
        .recs
        .iter()
        .filter(|x| x.update && x.ok && !x.rejected_batch)
        .collect();
    let k = committed.len() as u64;
    let migrated: usize = committed.iter().map(|x| x.migrated).sum();
    let rebuilds = committed.iter().filter(|x| x.rebuild).count() as u64;
    push(
        "engine.migrated_per_update",
        frac(migrated as u64, k),
        "count",
        k as usize,
    );
    push(
        "cost.rebuild_frac",
        frac(rebuilds, k),
        "fraction",
        k as usize,
    );
    push(
        "engine.stale_evicted_per_update",
        frac(s.stale_evicted, k),
        "count",
        k as usize,
    );
    push(
        "cell.update_us",
        r.median_us("cell.update"),
        "us",
        count("cell.update"),
    );
    push(
        "sparse.apply_updates_us",
        r.median_us("sparse.apply_updates"),
        "us",
        count("sparse.apply_updates"),
    );

    let cal = lf_sim::calibration();
    push(
        "sim.workers_spawned",
        rep.workers_spawned as f64,
        "count",
        1,
    );
    push(
        "sim.allocs_per_req",
        frac(rep.allocs_untraced, serves_untraced as u64),
        "count",
        serves_untraced,
    );
    push("sim.pool_dispatch_us", cal.pool_dispatch_ns / 1e3, "us", 1);
    push("sim.copy_gbps", copy_gbps, "GB/s", 1);

    let (overhead, keys) = trace_overhead(rep);
    push("trace.overhead_frac", overhead, "fraction", keys);
    out
}

/// Tracing overhead: per key, the traced slices' median serve latency
/// over the untraced slices' (the slices alternate through the same op
/// stream), less one; the median over keys with at least three serves
/// in each kind of slice. Comparing per key keeps the key mix out of the
/// ratio. Returns the overhead and the number of keys compared.
fn trace_overhead(rep: &Report) -> (f64, usize) {
    let mut by: BTreeMap<usize, [Vec<f64>; 2]> = BTreeMap::new();
    for x in rep.recs.iter().filter(|x| !x.update) {
        by.entry(x.key).or_default()[usize::from(x.traced)].push(x.latency_s);
    }
    let ratios: Vec<f64> = by
        .values()
        .filter(|[u, t]| u.len() >= 3 && t.len() >= 3)
        .map(|[u, t]| median(t) / median(u))
        .collect();
    (median(&ratios) - 1.0, ratios.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Args, Extra, Report};
    use lf_serve::ServeStats;

    /// Metric names listed under `section` in BENCHMARK.json.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn empty_report(workload: Workload) -> Report {
        Report {
            args: Args {
                workload,
                seed: 0,
                seconds: 1.0,
                trace: true,
            },
            recs: Vec::new(),
            spans: Vec::new(),
            composes: Vec::new(),
            wall_untraced_s: 1.0,
            allocs_untraced: 0,
            workers_spawned: 0,
            stats: ServeStats::default(),
            stats_untraced: ServeStats::default(),
            checks: Vec::new(),
            expected: Vec::new(),
            extra: Extra::default(),
        }
    }

    #[test]
    fn result_lines_carry_exactly_the_listed_metrics() {
        let rep = empty_report(Workload::HotRepeat);
        let layer: Vec<String> = per_layer(&rep).into_iter().map(|m| m.name).collect();
        assert_eq!(layer, listed("per_layer"));
        assert_eq!(GATED.to_vec(), listed("end_to_end"));
        let e2e: Vec<String> = end_to_end(&rep).into_iter().map(|m| m.name).collect();
        assert!(GATED.iter().all(|g| e2e.iter().any(|n| n == g)));
    }
}
