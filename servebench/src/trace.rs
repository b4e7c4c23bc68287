//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions, written out when the run ends and reduced
//! to per-layer metrics and a self-time table.
//!
//! Spans inside the engine are out of reach of a benchmark that sees the
//! program only through public APIs. The engine's in-process work is
//! therefore split by attribution: compose stages come from the
//! `PreprocessProfile` the engine returns with a miss (recorded as child
//! spans of the serve span), and execute, fingerprint and validation
//! come from probes the traced run makes on the same input from one
//! thread, with no request in flight (see [`Reduced::serve_self_us`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of probe spans that stand in for in-engine work.
pub const ATTRIBUTED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request the span belongs to (client-unique, 0 = none).
    pub req: u64,
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    pub name: &'static str,
    /// Serve key the work ran on (for probe attribution).
    pub key: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work done, for rates: bytes moved or hashed, and flops.
    pub bytes: u64,
    pub flops: u64,
    /// A serve answered by a solo cache hit.
    pub hit: bool,
}

/// Per-client span recorder. Ids are unique across clients because each
/// client numbers from its own high bits.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, client: usize) -> Self {
        Tracer {
            epoch,
            next_id: ((client as u64) << 40) + 1,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        key: usize,
        start: Instant,
        dur_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.at(start);
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            key,
            start_ns,
            dur_ns,
            bytes: 0,
            flops: 0,
            hit: false,
        });
        id
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        key: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed().as_nanos() as u64;
        (r, self.record(req, parent, name, key, t0, dur))
    }

    fn find(&mut self, id: u64) -> Option<&mut Span> {
        self.spans.iter_mut().rev().find(|s| s.id == id)
    }

    /// Attach work counters to span `id`.
    pub fn set_work(&mut self, id: u64, bytes: u64, flops: u64) {
        if let Some(s) = self.find(id) {
            s.bytes = bytes;
            s.flops = flops;
        }
    }

    /// Mark span `id` as a solo cache hit.
    pub fn set_hit(&mut self, id: u64, hit: bool) {
        if let Some(s) = self.find(id) {
            s.hit = hit;
        }
    }
}

/// Write spans as JSON lines.
pub fn dump(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"dur_ns\":{},\"bytes\":{},\"flops\":{},\"hit\":{}}}",
            s.req, s.id, s.parent, s.name, s.key, s.start_ns, s.dur_ns, s.bytes, s.flops, s.hit
        )?;
    }
    w.flush()
}

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of a sample (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Spans grouped by name, with each span's self time.
pub struct Reduced<'a> {
    pub spans: &'a [Span],
    children_ns: BTreeMap<u64, u64>,
}

impl<'a> Reduced<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children_ns = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *children_ns.entry(s.parent).or_insert(0) += s.dur_ns;
        }
        Reduced { spans, children_ns }
    }

    pub fn named<'b>(&'b self, name: &'b str) -> impl Iterator<Item = &'a Span> + 'b {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.named(name).map(|s| s.dur_ns as f64 / 1e3).collect();
        median(&v)
    }

    /// Median of `bytes / dur` (GB/s) over spans named `name`.
    pub fn median_gbps(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .filter(|s| s.dur_ns > 0)
            .map(|s| s.bytes as f64 / s.dur_ns as f64)
            .collect();
        median(&v)
    }

    /// Median of `flops / dur` (GFLOP/s) over spans named `name`.
    pub fn median_gflops(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .filter(|s| s.dur_ns > 0)
            .map(|s| s.flops as f64 / s.dur_ns as f64)
            .collect();
        median(&v)
    }

    /// Self time of a span: its duration minus its recorded children.
    pub fn self_ns(&self, s: &Span) -> i64 {
        s.dur_ns as i64 - self.children_ns.get(&s.id).copied().unwrap_or(0) as i64
    }

    /// Fastest attribution probe per key for spans named `name` — the
    /// attributed cost of that work inside the engine.
    pub fn min_by_key(&self, name: &str) -> BTreeMap<usize, u64> {
        let mut m = BTreeMap::new();
        for s in self.named(name).filter(|s| s.req == ATTRIBUTED) {
            let e = m.entry(s.key).or_insert(u64::MAX);
            *e = (*e).min(s.dur_ns);
        }
        m
    }

    /// Per-request engine self time of the serve spans named `name`, in
    /// microseconds: the span minus its recorded compose child, minus the
    /// fastest probe of each piece of in-engine work on the same key
    /// (`attributed`). Probes run alone, so self time is an upper bound
    /// on lookup, admission, promotion and ledger work: it also holds the
    /// slowdown concurrent requests cause. `hits_only` keeps solo cache
    /// hits.
    pub fn serve_self_us(
        &self,
        name: &str,
        attributed: &[BTreeMap<usize, u64>],
        hits_only: bool,
    ) -> Vec<f64> {
        self.named(name)
            .filter(|s| s.hit || !hits_only)
            .map(|s| {
                let probes: u64 = attributed.iter().filter_map(|m| m.get(&s.key)).sum();
                (self.self_ns(s) - probes as i64) as f64 / 1e3
            })
            .collect()
    }

    /// Self-time table rows: (name, count, median us, median self us,
    /// total self ms), sorted by total self time.
    pub fn self_table(&self) -> Vec<(&'static str, usize, f64, f64, f64)> {
        let mut by: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in self.spans {
            let e = by.entry(s.name).or_default();
            e.0.push(s.dur_ns as f64 / 1e3);
            e.1.push(self.self_ns(s) as f64 / 1e3);
        }
        let mut rows: Vec<_> = by
            .into_iter()
            .map(|(name, (d, sf))| {
                let total_ms = sf.iter().sum::<f64>() / 1e3;
                (name, d.len(), median(&d), median(&sf), total_ms)
            })
            .collect();
        rows.sort_by(|a, b| b.4.total_cmp(&a.4));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 0);
        let root = t.record(1, 0, "engine.serve", 3, epoch, 1_000);
        t.set_hit(root, true);
        t.record(1, root, "compose", 3, epoch, 300);
        t.record(ATTRIBUTED, 0, "kernels.execute.cell", 3, epoch, 500);
        t.record(ATTRIBUTED, 0, "kernels.execute.cell", 3, epoch, 400);
        let r = Reduced::new(&t.spans);
        assert_eq!(r.self_ns(&t.spans[0]), 700);
        let exec = r.min_by_key("kernels.execute.cell");
        assert_eq!(exec[&3], 400);
        assert_eq!(
            r.serve_self_us("engine.serve", std::slice::from_ref(&exec), true),
            vec![0.3]
        );
        // Other probes (request 0) are not attributions.
        t.record(0, 0, "kernels.execute.cell", 3, epoch, 10);
        assert_eq!(
            Reduced::new(&t.spans).min_by_key("kernels.execute.cell"),
            exec
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
}
