//! Algorithm 3: the bucket-width search.
//!
//! `TuneWidth` re-buckets a partition under a maximum-width cap (folding
//! longer rows); `build_buckets` binary-searches the cap exponent using
//! the Eq. 7 cost trend (if `cost(m) > cost(2m)` the optimum lies right
//! of `m`, else left). Widths are powers of two throughout, so the search
//! walks exponents — the geometric version of the paper's
//! `mW = (lW + rW) / 2` midpoint. Cost probes are memoized per exponent
//! ([`CostProbe`]), so overlapping `cost(m)`/`cost(2m)` evaluations
//! across iterations never re-price the same cap twice.

use crate::model::{BucketSketch, PartitionSketch};

/// The paper's `TuneWidth`: bucket the partition's rows under a maximum
/// width of `cap` (a power of two), folding longer rows into the maximum
/// bucket, and return the per-bucket sketches.
///
/// Runs on the partition's precomputed class tallies — O(classes), no
/// column data touched.
pub fn tune_width(partition: &PartitionSketch, cap: usize) -> Vec<BucketSketch> {
    partition.sketches_under_cap(cap)
}

/// Memoized Eq. 7 cost probes over power-of-two caps for one partition.
///
/// Both the doubling binary search and the exhaustive reference evaluate
/// caps repeatedly (`cost(m)` of one iteration is `cost(2m)` of another);
/// the cache guarantees each exponent is priced at most once. A price is
/// read straight off the class tallies
/// ([`PartitionSketch::cost_under_cap`]), with no sketch vector built.
pub struct CostProbe<'a> {
    partition: &'a PartitionSketch,
    j: usize,
    cache: Vec<Option<f64>>,
    probes: usize,
    evaluations: usize,
}

impl<'a> CostProbe<'a> {
    /// A probe for `partition` at dense width `j`, covering caps up to
    /// `2^max_exp` inclusive.
    pub fn new(partition: &'a PartitionSketch, j: usize, max_exp: u32) -> Self {
        CostProbe {
            partition,
            j,
            cache: vec![None; max_exp as usize + 1],
            probes: 0,
            evaluations: 0,
        }
    }

    /// Total Eq. 7 cost under cap `2^exp`, computing it at most once —
    /// bit-identical to `partition_cost` over `tune_width`'s sketches.
    pub fn cost(&mut self, exp: u32) -> f64 {
        self.probes += 1;
        if let Some(c) = self.cache[exp as usize] {
            return c;
        }
        self.evaluations += 1;
        let c = self.partition.cost_under_cap(1 << exp, self.j);
        self.cache[exp as usize] = Some(c);
        c
    }

    /// `(cost probes answered, caps actually priced)` — the gap is
    /// the memoization saving.
    pub fn stats(&self) -> (usize, usize) {
        (self.probes, self.evaluations)
    }
}

/// Algorithm 3 (`BuildBuckets`): find the maximum bucket width minimizing
/// total Eq. 7 cost for this partition at dense width `j`. Returns
/// `(width, sketches, cost)`.
pub fn build_buckets(partition: &PartitionSketch, j: usize) -> (usize, Vec<BucketSketch>, f64) {
    let natural = partition.max_row_len().max(1).next_power_of_two();
    // Exponent-space binary search bounds: lW = 1 (2^0), rW = natural max.
    let mut lo_exp = 0u32;
    let mut hi_exp = natural.trailing_zeros();
    let mut probe = CostProbe::new(partition, j, hi_exp + 1);
    while lo_exp < hi_exp {
        let mid_exp = (lo_exp + hi_exp) / 2;
        let cost_m = probe.cost(mid_exp);
        let cost_2m = probe.cost(mid_exp + 1);
        if cost_m > cost_2m {
            // The optimum is to the right of mW.
            lo_exp = mid_exp + 1;
        } else {
            hi_exp = mid_exp;
        }
    }
    let width = 1usize << lo_exp;
    let sketches = partition.sketches_under_cap(width);
    let cost = probe.cost(lo_exp);
    (width, sketches, cost)
}

/// Exhaustive reference: evaluate every power-of-two cap up to the
/// natural maximum and return the argmin. Used by tests to check
/// Algorithm 3 lands on (or within noise of) the global optimum.
pub fn exhaustive_best_width(partition: &PartitionSketch, j: usize) -> (usize, f64) {
    let natural = partition.max_row_len().max(1).next_power_of_two();
    let max_exp = natural.trailing_zeros();
    let mut probe = CostProbe::new(partition, j, max_exp);
    let mut best = (1usize, f64::INFINITY);
    for exp in 0..=max_exp {
        let cost = probe.cost(exp);
        if cost < best.1 {
            best = (1usize << exp, cost);
        }
    }
    best
}

/// Convenience: Algorithm-3 widths for every partition of a `p`-way split
/// (one shared O(nnz) sweep extracts all sketches at once).
pub fn optimal_widths_for_matrix<T: lf_sparse::Scalar>(
    csr: &lf_sparse::CsrMatrix<T>,
    p: usize,
    j: usize,
) -> Vec<usize> {
    PartitionSketch::all_from_csr(csr, p)
        .iter()
        .map(|part| build_buckets(part, j).0)
        .collect()
}

/// Total Eq. 7 cost of a whole CELL composition (all partitions) under
/// per-partition caps — the scalar the search minimizes, exposed for the
/// Figure 11 harness.
pub fn total_cost_for_caps<T: lf_sparse::Scalar>(
    csr: &lf_sparse::CsrMatrix<T>,
    caps: &[usize],
    j: usize,
) -> f64 {
    PartitionSketch::all_from_csr(csr, caps.len())
        .iter()
        .zip(caps)
        .map(|(part, &cap)| part.cost_under_cap(cap, j))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::partition_cost;
    use lf_sparse::gen::{mixed_regions, power_law, uniform_with_long_rows, PowerLawConfig};
    use lf_sparse::{CooMatrix, CsrMatrix, Pcg32};

    fn sketch_of(csr: &CsrMatrix<f64>) -> PartitionSketch {
        PartitionSketch::from_csr(csr, 0, csr.cols())
    }

    #[test]
    fn tune_width_counts_folding() {
        // One row of 9 nnz under cap 4: 3 fragments in the width-4 bucket.
        let trips: Vec<(usize, usize, f64)> = (0..9).map(|c| (0, c, 1.0)).collect();
        let csr = CsrMatrix::from_coo(&CooMatrix::from_triplets(2, 16, trips).unwrap());
        let part = sketch_of(&csr);
        let sk = tune_width(&part, 4);
        assert_eq!(sk.len(), 1);
        assert_eq!(sk[0].width, 4);
        assert_eq!(sk[0].i1, 3);
        assert_eq!(sk[0].i2, 1);
        assert_eq!(sk[0].nnz, 9);
        assert_eq!(sk[0].unique_cols, 9);
    }

    #[test]
    fn tune_width_natural_bucketing() {
        // Lengths 1, 3, 8 with a huge cap: buckets 1, 4, 8.
        let mut trips = vec![(0, 0, 1.0)];
        trips.extend((0..3).map(|c| (1, c, 1.0)));
        trips.extend((0..8).map(|c| (2, c, 1.0)));
        let csr = CsrMatrix::from_coo(&CooMatrix::from_triplets(3, 16, trips).unwrap());
        let sk = tune_width(&sketch_of(&csr), 1024);
        let widths: Vec<usize> = sk.iter().map(|s| s.width).collect();
        assert_eq!(widths, vec![1, 4, 8]);
        assert!(sk.iter().all(|s| s.i1 == 1 && s.i2 == 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_cap_panics() {
        let csr = CsrMatrix::<f64>::empty(1, 4);
        tune_width(&sketch_of(&csr), 3);
    }

    #[test]
    fn algorithm3_matches_exhaustive_on_random_matrices() {
        let mut rng = Pcg32::seed_from_u64(1);
        for (i, gen) in [
            uniform_with_long_rows::<f64>(400, 800, 4000, 6, 700, &mut rng),
            mixed_regions::<f64>(500, 500, 12_000, 4, &mut rng),
            power_law(
                &PowerLawConfig {
                    rows: 600,
                    cols: 600,
                    target_nnz: 9_000,
                    exponent: 2.0,
                    max_degree: None,
                },
                &mut rng,
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let csr = CsrMatrix::from_coo(&gen);
            let part = sketch_of(&csr);
            for j in [32, 128, 512] {
                let (w3, _, c3) = build_buckets(&part, j);
                let (we, ce) = exhaustive_best_width(&part, j);
                // The cost curve need not be strictly unimodal; accept
                // anything within 10% of the global optimum (the paper's
                // own Figure 11 shows a plateau around the optimum).
                assert!(
                    c3 <= ce * 1.10,
                    "case {i} J={j}: alg3 width {w3} cost {c3} vs exhaustive {we}/{ce}"
                );
            }
        }
    }

    #[test]
    fn long_rows_get_folded_by_the_search() {
        // A partition with a few 700-long rows and many short rows: the
        // optimal cap should be far below the natural 1024.
        let mut rng = Pcg32::seed_from_u64(2);
        let coo = uniform_with_long_rows::<f64>(2000, 1024, 8000, 5, 700, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        let (w, sketches, _) = build_buckets(&sketch_of(&csr), 128);
        assert!(w < 1024, "expected folding, got natural width {w}");
        // Folded: some bucket has i1 > i2.
        assert!(sketches.iter().any(|s| s.i1 > s.i2));
    }

    #[test]
    fn empty_partition() {
        let csr = CsrMatrix::<f64>::empty(4, 4);
        let (w, sk, c) = build_buckets(&sketch_of(&csr), 64);
        assert_eq!(w, 1);
        assert!(sk.is_empty());
        assert_eq!(c, 0.0);
    }

    #[test]
    fn cost_probe_never_reevaluates() {
        let mut rng = Pcg32::seed_from_u64(9);
        let coo = uniform_with_long_rows::<f64>(500, 512, 6000, 4, 400, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        let part = sketch_of(&csr);
        let max_exp = part.max_row_len().next_power_of_two().trailing_zeros();
        let mut probe = CostProbe::new(&part, 128, max_exp + 1);
        // Hammer overlapping probes, exhaustive-style and search-style.
        for exp in 0..=max_exp {
            probe.cost(exp);
            probe.cost(exp.min(max_exp));
            if exp > 0 {
                probe.cost(exp - 1);
            }
        }
        let (probes, evals) = probe.stats();
        assert!(probes > evals, "cache must absorb repeated probes");
        assert!(
            evals as u32 <= max_exp + 1,
            "each exponent sketched at most once: {evals} evals for {} exps",
            max_exp + 1
        );
    }

    #[test]
    fn per_matrix_widths_cover_partitions() {
        let mut rng = Pcg32::seed_from_u64(3);
        let coo = mixed_regions::<f64>(300, 600, 9000, 4, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        let widths = optimal_widths_for_matrix(&csr, 4, 128);
        assert_eq!(widths.len(), 4);
        assert!(widths.iter().all(|w| w.is_power_of_two()));
        // Mixed-density regions should not all pick the same width.
        let distinct: std::collections::HashSet<_> = widths.iter().collect();
        assert!(
            distinct.len() >= 2,
            "per-partition widths should differ on a mixed matrix: {widths:?}"
        );
    }

    #[test]
    fn total_cost_for_caps_sums_partitions() {
        let mut rng = Pcg32::seed_from_u64(4);
        let coo = mixed_regions::<f64>(200, 400, 5000, 4, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        let c2 = total_cost_for_caps(&csr, &[8, 8], 64);
        assert!(c2 > 0.0);
        // Equivalent to manual per-partition sum.
        let spans = PartitionSketch::spans(csr.cols(), 2);
        let manual: f64 = spans
            .iter()
            .map(|&(lo, hi)| {
                let p = PartitionSketch::from_csr(&csr, lo, hi);
                partition_cost(&tune_width(&p, 8), 64)
            })
            .sum();
        assert!((c2 - manual).abs() < 1e-9);
    }
}
