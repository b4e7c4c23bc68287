//! Seeded input generators: per-client op streams, exact Zipf draws,
//! the `zipf_spill` matrix population, and `update_mix` edge batches.
//!
//! Everything here is a pure function of the `--seed` argument (and, for
//! update batches, of the matrix the batch applies to), so the same seed
//! replays the same op stream byte for byte.

use lf_sparse::gen::{power_law, PatternFamily, PowerLawConfig};
use lf_sparse::{CsrMatrix, EdgeUpdate, Pcg32};

/// Independent random streams derived from one seed.
pub mod stream {
    pub const INPUTS: u64 = 1;
    pub const CLIENT: u64 = 100;
    pub const BATCH: u64 = 1_000;
}

/// A PCG stream derived from the run seed.
pub fn rng(seed: u64, stream: u64) -> Pcg32 {
    Pcg32::new(seed, stream)
}

/// Exact discrete Zipf(`s`) over ranks `0..n` (rank 0 most popular),
/// sampled by inverse CDF with a binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn pmf(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Weighted round robin: every cycle is a fresh seeded shuffle of
/// `slots` (a multiset of item indices), so per-item counts stay within
/// one cycle of their target share however long the run lasts.
pub struct Cycle {
    slots: Vec<usize>,
    pos: usize,
    rng: Pcg32,
}

impl Cycle {
    pub fn new(slots: Vec<usize>, rng: Pcg32) -> Self {
        assert!(!slots.is_empty(), "a cycle needs slots");
        let pos = slots.len();
        Cycle { slots, pos, rng }
    }

    /// `weights[i]` slots for item `i`.
    pub fn weighted(weights: &[usize], rng: Pcg32) -> Self {
        let slots = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
            .collect();
        Cycle::new(slots, rng)
    }

    pub fn next_item(&mut self) -> usize {
        if self.pos == self.slots.len() {
            self.rng.shuffle(&mut self.slots);
            self.pos = 0;
        }
        self.pos += 1;
        self.slots[self.pos - 1]
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRepeat,
    ZipfSpill,
    UpdateMix,
    SharedNarrow,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRepeat,
        Workload::ZipfSpill,
        Workload::UpdateMix,
        Workload::SharedNarrow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot_repeat",
            Workload::ZipfSpill => "zipf_spill",
            Workload::UpdateMix => "update_mix",
            Workload::SharedNarrow => "shared_narrow",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads driving the engine.
    pub fn clients(self) -> usize {
        match self {
            Workload::UpdateMix => 1,
            _ => 2,
        }
    }
}

/// One client operation. `key` indexes the workload's serve keys (a
/// handle and width, or a population matrix); `handle` indexes the
/// `update_mix` handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Serve {
        key: usize,
    },
    Update {
        handle: usize,
        churn_permille: usize,
        invalid: Option<Invalid>,
        /// Ordinal of this update in the client's stream (seeds its batch).
        ordinal: u64,
    },
}

impl Op {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Op::Serve { key } => {
                out.push(0);
                out.extend_from_slice(&(key as u64).to_le_bytes());
            }
            Op::Update {
                handle,
                churn_permille,
                invalid,
                ordinal,
            } => {
                out.push(1);
                out.extend_from_slice(&(handle as u64).to_le_bytes());
                out.extend_from_slice(&(churn_permille as u64).to_le_bytes());
                out.push(invalid.map_or(0, |k| k as u8 + 1));
                out.extend_from_slice(&ordinal.to_le_bytes());
            }
        }
    }
}

/// How a deliberately invalid `update_mix` batch is broken. Each one
/// must be rejected with a typed error and leave the handle unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalid {
    /// Two updates on one coordinate.
    Duplicate,
    /// An insert on a coordinate that is already stored.
    InsertPresent,
    /// A row index past the end of the matrix.
    OutOfRange,
}

/// Serve keys of `hot_repeat`: the seven GNN analogues at both widths.
pub const HOT_WIDTHS: [usize; 2] = [32, 128];
/// `update_mix` and `zipf_spill` dense width.
pub const NARROW_J: usize = 16;
/// `shared_narrow` per-request width and coalescing cap (one pair).
pub const SHARED_J: usize = 2;
pub const SHARED_MAX_BATCH_J: usize = 4;
/// Churn classes of `update_mix`, in permille of rows (0.1%, 1%, 10%).
pub const CHURN_PERMILLE: [usize; 3] = [1, 10, 100];
/// One update in this many is built invalid.
pub const INVALID_EVERY: u64 = 20;
/// One op in this many is an update in `update_mix`.
pub const UPDATE_EVERY: u64 = 10;
/// Population size and Zipf exponent of `zipf_spill`.
pub const POPULATION: usize = 96;
pub const ZIPF_S: f64 = 1.0;
/// `update_mix` handle shares of serve and update traffic (smallest
/// handle busiest). Unequal shares keep every latency median inside
/// one handle's distribution instead of on the gap between two.
pub const UPDATE_MIX_WEIGHTS: [usize; 4] = [4, 3, 2, 1];
/// Candidate families per `update_mix` size class.
pub const UPDATE_MIX_FAMILIES: usize = 4;
/// `shared_narrow` handle shares: cora 7, pubmed 3 in every ten ops.
pub const SHARED_WEIGHTS: [usize; 2] = [7, 3];

/// A client's seeded op stream.
pub struct OpStream {
    kind: StreamKind,
    ops: u64,
    updates: u64,
}

enum StreamKind {
    Cycle(Cycle),
    Zipf {
        zipf: Zipf,
        rng: Pcg32,
    },
    UpdateMix {
        serves: Cycle,
        updates: Cycle,
        churn: Cycle,
    },
}

impl OpStream {
    /// The stream of `client` for a workload with `keys` serve keys.
    pub fn new(w: Workload, seed: u64, client: usize, keys: usize) -> Self {
        let client_rng = rng(seed, stream::CLIENT + client as u64);
        let kind = match w {
            Workload::HotRepeat => {
                // Every key once per cycle plus one extra request for key
                // 0 (cora at J=32): 15 slots, so the overall median falls
                // inside one key's latency distribution rather than on
                // the boundary between the 7th and 8th slowest keys.
                let mut slots: Vec<usize> = (0..keys).collect();
                slots.push(0);
                StreamKind::Cycle(Cycle::new(slots, client_rng))
            }
            // Population matrix `k` has popularity rank `k`; draws are per
            // client.
            Workload::ZipfSpill => StreamKind::Zipf {
                zipf: Zipf::new(keys, ZIPF_S),
                rng: client_rng,
            },
            Workload::UpdateMix => StreamKind::UpdateMix {
                serves: Cycle::weighted(&UPDATE_MIX_WEIGHTS[..keys], client_rng),
                updates: Cycle::weighted(
                    &UPDATE_MIX_WEIGHTS[..keys],
                    rng(seed, stream::CLIENT + 50),
                ),
                churn: Cycle::new(
                    (0..CHURN_PERMILLE.len()).collect(),
                    rng(seed, stream::CLIENT + 51),
                ),
            },
            // Both clients follow the same handle sequence (the stream
            // ignores `client`), so concurrent requests share a
            // fingerprint and pair up in the coalescer.
            Workload::SharedNarrow => StreamKind::Cycle(Cycle::weighted(
                &SHARED_WEIGHTS[..keys],
                rng(seed, stream::CLIENT),
            )),
        };
        OpStream {
            kind,
            ops: 0,
            updates: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.ops += 1;
        match &mut self.kind {
            StreamKind::Cycle(c) => Op::Serve { key: c.next_item() },
            StreamKind::Zipf { zipf, rng } => Op::Serve {
                key: zipf.sample(rng),
            },
            StreamKind::UpdateMix {
                serves,
                updates,
                churn,
            } => {
                if !self.ops.is_multiple_of(UPDATE_EVERY) {
                    return Op::Serve {
                        key: serves.next_item(),
                    };
                }
                self.updates += 1;
                let ordinal = self.updates;
                let invalid = ordinal.is_multiple_of(INVALID_EVERY).then(|| {
                    [
                        Invalid::Duplicate,
                        Invalid::InsertPresent,
                        Invalid::OutOfRange,
                    ][(ordinal / INVALID_EVERY % 3) as usize]
                });
                Op::Update {
                    handle: updates.next_item(),
                    churn_permille: CHURN_PERMILLE[churn.next_item()],
                    invalid,
                    ordinal,
                }
            }
        }
    }
}

/// FNV-1a digest of the first `n` ops of every client stream.
pub fn op_stream_digest(w: Workload, seed: u64, keys: usize, n: usize) -> u64 {
    let mut bytes = Vec::new();
    for client in 0..w.clients() {
        let mut s = OpStream::new(w, seed, client, keys);
        for _ in 0..n {
            s.next_op().encode(&mut bytes);
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The `u`-quantile of the log-uniform distribution on `[lo, hi)`.
fn log_uniform(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

/// One generated square matrix: family, size, and its own seed.
#[derive(Debug, Clone, Copy)]
pub struct MatrixSpec {
    pub family: PatternFamily,
    pub rows: usize,
    pub nnz: usize,
    pub seed: u64,
}

impl MatrixSpec {
    pub fn build(&self) -> CsrMatrix<f32> {
        let mut r = Pcg32::seed_from_u64(self.seed);
        let coo = match self.family {
            // The family's own generator draws its skew and hub cap at
            // random; fixing them keeps a matrix's cost the same for
            // every seed.
            PatternFamily::PowerLaw => power_law(
                &PowerLawConfig {
                    rows: self.rows,
                    cols: self.rows,
                    target_nnz: self.nnz,
                    exponent: 1.8,
                    max_degree: Some((self.nnz / 20).max(32)),
                },
                &mut r,
            ),
            family => family.generate(self.rows, self.rows, self.nnz, &mut r),
        };
        CsrMatrix::from_coo(&coo)
    }
}

/// The `zipf_spill` population, in popularity order: all six pattern
/// families in turn, with log-uniform sizes so latency mixtures over it
/// are smooth. Family and size of each rank are fixed (two interleaved
/// quantile sequences), so every seed gives a population of the same
/// shape; the seed draws each matrix's pattern.
pub fn population(seed: u64, n: usize) -> Vec<MatrixSpec> {
    let mut r = rng(seed, stream::INPUTS + 1);
    let quantile = |i: usize, stride: usize| ((i * stride) % n) as f64 / n as f64 + 0.5 / n as f64;
    (0..n)
        .map(|i| {
            let rows = log_uniform(quantile(i, 37), 1_500.0, 12_000.0) as usize;
            let avg = log_uniform(quantile(i, 59), 4.0, 24.0);
            MatrixSpec {
                family: PatternFamily::ALL[i % PatternFamily::ALL.len()],
                rows,
                nnz: (rows as f64 * avg) as usize,
                seed: r.next_u64(),
            }
        })
        .collect()
}

/// `update_mix` handle candidates, smallest first: the sizes span the
/// churn threshold, so 0.1% batches migrate and 10% batches on the
/// largest handles rebuild. The workload keeps the first candidates the
/// selector composes as CELL.
pub fn update_mix_candidates(seed: u64) -> Vec<MatrixSpec> {
    let mut r = rng(seed, stream::INPUTS + 2);
    // The largest class touches ~6.5k rows at 10% churn: its predicted
    // re-materialization cost is several times the pool-dispatch cost
    // calibrated on a quiet 2-core host, so that batch takes the
    // rebuild branch.
    let sizes = [
        (4_096usize, 8usize),
        (16_384, 12),
        (32_768, 16),
        (65_536, 32),
    ];
    let families: [PatternFamily; UPDATE_MIX_FAMILIES] = [
        PatternFamily::PowerLaw,
        PatternFamily::MixedRegions,
        PatternFamily::Rmat,
        PatternFamily::Uniform,
    ];
    sizes
        .iter()
        .flat_map(|&(rows, avg)| families.iter().map(move |&family| (rows, avg, family)))
        .map(|(rows, avg, family)| MatrixSpec {
            family,
            rows,
            nnz: rows * avg,
            seed: r.next_u64(),
        })
        .collect()
}

/// Distinct rows an update of `churn_permille` touches on `rows` rows.
pub fn touched_rows(rows: usize, churn_permille: usize) -> usize {
    (rows * churn_permille / 1000).clamp(1, rows)
}

fn nz_value(rng: &mut Pcg32) -> f32 {
    loop {
        let v = rng.f64_in(-1.0, 1.0) as f32;
        if v != 0.0 {
            return v;
        }
    }
}

/// An edge batch over `csr` touching `k` distinct non-empty rows: each
/// gets a value change, or a move (one stored entry deleted, one absent
/// entry of the same row inserted). Row lengths never change, so any
/// number of batches leaves the row structure — and with it the plans'
/// buckets and the kernels' speed — where it started, and a run of any
/// length measures the same matrices. The batch is valid against `csr`
/// unless `invalid` asks for a specific defect.
pub fn update_batch(
    csr: &CsrMatrix<f32>,
    k: usize,
    invalid: Option<Invalid>,
    rng: &mut Pcg32,
) -> Vec<EdgeUpdate<f32>> {
    let populated: Vec<usize> = (0..csr.rows()).filter(|&r| csr.row_len(r) > 0).collect();
    let rows: Vec<usize> = rng
        .sample_distinct(populated.len(), k.min(populated.len()))
        .into_iter()
        .map(|i| populated[i])
        .collect();
    let mut batch = Vec::with_capacity(2 * rows.len() + 1);
    for &row in &rows {
        let cols = csr.row_cols(row);
        let stored = cols[rng.usize_in(0, cols.len())] as usize;
        let absent = (0..8)
            .map(|_| rng.usize_in(0, csr.cols()))
            .find(|&c| cols.binary_search(&(c as u32)).is_err());
        match absent {
            Some(col) if rng.bernoulli(0.5) => {
                batch.push(EdgeUpdate::Delete { row, col: stored });
                batch.push(EdgeUpdate::Insert {
                    row,
                    col,
                    value: nz_value(rng),
                });
            }
            _ => batch.push(EdgeUpdate::SetValue {
                row,
                col: stored,
                value: nz_value(rng),
            }),
        }
    }
    match invalid {
        None => {}
        Some(Invalid::Duplicate) => {
            if let Some(&first) = batch.first() {
                batch.push(first);
            }
        }
        Some(Invalid::InsertPresent) => {
            // A stored entry the batch does not touch yet (a batch may
            // touch every populated row). With none left, the defect
            // becomes a duplicate.
            let mut touched: Vec<(usize, usize)> = batch.iter().map(EdgeUpdate::coord).collect();
            touched.sort_unstable();
            let untouched = populated
                .iter()
                .flat_map(|&r| csr.row_cols(r).iter().map(move |&c| (r, c as usize)))
                .find(|rc| touched.binary_search(rc).is_err());
            let defect = match untouched {
                Some((row, col)) => Some(EdgeUpdate::Insert {
                    row,
                    col,
                    value: 1.0,
                }),
                None => batch.first().copied(),
            };
            batch.extend(defect);
        }
        Some(Invalid::OutOfRange) => batch.push(EdgeUpdate::SetValue {
            row: csr.rows(),
            col: 0,
            value: 1.0,
        }),
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_differs() {
        for w in Workload::ALL {
            let keys = match w {
                Workload::HotRepeat => 14,
                Workload::ZipfSpill => POPULATION,
                Workload::UpdateMix => 4,
                Workload::SharedNarrow => 2,
            };
            let a = op_stream_digest(w, 7, keys, 500);
            assert_eq!(a, op_stream_digest(w, 7, keys, 500), "{}", w.name());
            assert_ne!(a, op_stream_digest(w, 8, keys, 500), "{}", w.name());
        }
    }

    #[test]
    fn zipf_frequencies_match_target() {
        let n = POPULATION;
        let z = Zipf::new(n, ZIPF_S);
        let mut r = rng(3, 0);
        let draws = 200_000;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let expect = z.pmf(k) * draws as f64;
            // Five binomial standard deviations, plus slack for tiny ranks.
            let tol = 5.0 * expect.sqrt() + 5.0;
            assert!(
                (c as f64 - expect).abs() <= tol,
                "rank {k}: {c} draws vs {expect:.1} expected"
            );
        }
        // Zipf(1): rank 0 is twice as likely as rank 1.
        assert!((z.pmf(0) / z.pmf(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_keep_shares_exact() {
        let mut c = Cycle::weighted(&UPDATE_MIX_WEIGHTS, rng(1, 2));
        let mut counts = [0usize; 4];
        for _ in 0..1000 {
            counts[c.next_item()] += 1;
        }
        assert_eq!(counts, [400, 300, 200, 100]);
    }

    #[test]
    fn update_batches_are_valid_unless_asked_otherwise() {
        let spec = update_mix_candidates(5)[0];
        let csr = spec.build();
        let mut r = rng(5, stream::BATCH);
        // The churn classes, and a batch touching every populated row.
        let ks = CHURN_PERMILLE.map(|p| touched_rows(csr.rows(), p));
        for k in ks.into_iter().chain([csr.rows()]) {
            let b = update_batch(&csr, k, None, &mut r);
            let updated = csr.apply_updates(&b).expect("a valid batch applies");
            assert_eq!(updated.row_lengths(), csr.row_lengths(), "row lengths kept");
            for bad in [
                Invalid::Duplicate,
                Invalid::InsertPresent,
                Invalid::OutOfRange,
            ] {
                let b = update_batch(&csr, k, Some(bad), &mut r);
                assert!(
                    csr.apply_updates(&b).is_err(),
                    "{bad:?} batch must be rejected"
                );
            }
        }
    }

    #[test]
    fn update_mix_exercises_migrate_rebuild_and_reject() {
        use lf_cost::{should_rebuild, TileFeatures};
        let specs = update_mix_candidates(11);
        // One candidate per size class, as the workload keeps them.
        let handles: Vec<MatrixSpec> = specs.chunks(UPDATE_MIX_FAMILIES).map(|c| c[0]).collect();
        let mut s = OpStream::new(Workload::UpdateMix, 11, 0, handles.len());
        let (mut migrate, mut rebuild, mut rejected) = (0, 0, 0);
        for _ in 0..2_000 {
            if let Op::Update {
                handle,
                churn_permille,
                invalid,
                ..
            } = s.next_op()
            {
                let h = handles[handle];
                if invalid.is_some() {
                    rejected += 1;
                } else if should_rebuild(
                    TileFeatures::new(h.rows, h.nnz, 4),
                    touched_rows(h.rows, churn_permille),
                ) {
                    rebuild += 1;
                } else {
                    migrate += 1;
                }
            }
        }
        assert!(
            migrate > 0 && rebuild > 0 && rejected > 0,
            "{migrate} {rebuild} {rejected}"
        );
    }
}
