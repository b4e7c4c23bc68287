//! Reference test: the tally-sweep `PartitionSketch` against a naive
//! sketch built the obvious way — every row's segment collected
//! explicitly, each row bucketed under the cap, folded rows cut into
//! fragments one by one, and a `HashSet` of columns per bucket.
//!
//! Both `all_from_csr` (the parallel chunked sweep) and `from_csr` (one
//! span) must produce the reference's buckets exactly, under every
//! power-of-two cap up to twice the natural width, and the allocation-
//! free `cost_under_cap` must price each cap to the same bits as
//! `partition_cost` over the materialized sketches.

use lf_cost::model::{partition_cost, BucketSketch, PartitionSketch};
use lf_sparse::gen::PatternFamily;
use lf_sparse::{CooMatrix, CsrMatrix, Index, Pcg32};
use std::collections::{BTreeMap, HashSet};

/// Every non-empty row's columns inside `[lo, hi)`.
fn segments(csr: &CsrMatrix<f64>, lo: usize, hi: usize) -> Vec<Vec<Index>> {
    (0..csr.rows())
        .map(|r| {
            csr.row_cols(r)
                .iter()
                .copied()
                .filter(|&c| lo <= c as usize && (c as usize) < hi)
                .collect::<Vec<Index>>()
        })
        .filter(|seg| !seg.is_empty())
        .collect()
}

/// The naive `TuneWidth`: buckets under `cap`, widths ascending.
fn reference_sketches(segs: &[Vec<Index>], cap: usize) -> Vec<BucketSketch> {
    #[derive(Default)]
    struct Bucket {
        fragments: usize,
        rows: usize,
        cols: HashSet<Index>,
        nnz: usize,
    }
    let mut buckets: BTreeMap<usize, Bucket> = BTreeMap::new();
    for seg in segs {
        let width = if seg.len() > cap {
            cap
        } else {
            seg.len().next_power_of_two()
        };
        let bucket = buckets.entry(width).or_default();
        bucket.rows += 1;
        let mut start = 0;
        while start < seg.len() {
            let end = (start + width).min(seg.len());
            bucket.fragments += 1;
            bucket.nnz += end - start;
            bucket.cols.extend(&seg[start..end]);
            start = end;
        }
    }
    buckets
        .into_iter()
        .map(|(width, b)| BucketSketch {
            width,
            i1: b.fragments,
            i2: b.rows,
            unique_cols: b.cols.len(),
            nnz: b.nnz,
        })
        .collect()
}

/// Check one span's sketches — swept and single-span — against the
/// reference built from the span's row segments, at every power-of-two
/// cap up to `max_cap`.
fn check_span(sketches: [&PartitionSketch; 2], segs: &[Vec<Index>], max_cap: usize, ctx: &str) {
    for (sketch, how) in sketches.iter().zip(["sweep", "single"]) {
        assert_eq!(sketch.num_rows(), segs.len(), "{ctx} {how}: rows");
        assert_eq!(
            sketch.nnz(),
            segs.iter().map(Vec::len).sum::<usize>(),
            "{ctx} {how}: nnz"
        );
        assert_eq!(
            sketch.max_row_len(),
            segs.iter().map(Vec::len).max().unwrap_or(0),
            "{ctx} {how}: max row"
        );
    }
    let mut cap = 1;
    while cap <= max_cap {
        let want = reference_sketches(segs, cap);
        for (sketch, how) in sketches.iter().zip(["sweep", "single"]) {
            let got = sketch.sketches_under_cap(cap);
            assert_eq!(got, want, "{ctx} {how} cap={cap}");
            for j in [1usize, 32, 128] {
                assert_eq!(
                    sketch.cost_under_cap(cap, j).to_bits(),
                    partition_cost(&got, j).to_bits(),
                    "{ctx} {how} cap={cap} J={j}: cost bits"
                );
            }
        }
        cap *= 2;
    }
}

/// `all_from_csr` and per-span `from_csr` against the reference for
/// every partition count the test suite sweeps.
fn check_matrix(csr: &CsrMatrix<f64>, name: &str) {
    let natural = (0..csr.rows())
        .map(|r| csr.row_cols(r).len())
        .max()
        .unwrap_or(0)
        .max(1)
        .next_power_of_two();
    for p in [1usize, 2, 3, 5, 16, csr.cols() + 3] {
        let spans = PartitionSketch::spans(csr.cols(), p);
        let swept = PartitionSketch::all_from_csr(csr, p);
        assert_eq!(swept.len(), spans.len(), "{name} p={p}: partitions");
        for (pi, (sketch, &(lo, hi))) in swept.iter().zip(&spans).enumerate() {
            let single = PartitionSketch::from_csr(csr, lo, hi);
            let ctx = format!("{name} p={p} pi={pi} span {lo}..{hi}");
            check_span([sketch, &single], &segments(csr, lo, hi), 2 * natural, &ctx);
        }
    }
}

fn csr_of(rows: usize, cols: usize, entries: &[(usize, usize)]) -> CsrMatrix<f64> {
    let trips: Vec<_> = entries.iter().map(|&(r, c)| (r, c, 1.0)).collect();
    CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, trips).unwrap())
}

#[test]
fn every_pattern_family_matches_the_reference() {
    // The last shape passes the worker heuristic's 8192-non-zero
    // threshold, so the sweep runs over several row chunks.
    for (rows, cols, nnz) in [(60, 50, 400), (150, 130, 2500), (400, 300, 20_000)] {
        for fam in PatternFamily::ALL {
            let mut rng = Pcg32::seed_from_u64(rows as u64 * 31 + nnz as u64);
            let csr = CsrMatrix::from_coo(&fam.generate::<f64>(rows, cols, nnz, &mut rng));
            check_matrix(&csr, &format!("{} {rows}x{cols}", fam.name()));
        }
    }
}

#[test]
fn empty_matrices_have_no_buckets() {
    for (rows, cols) in [(0, 0), (0, 5), (5, 0), (4, 9)] {
        let csr = CsrMatrix::<f64>::empty(rows, cols);
        check_matrix(&csr, &format!("empty {rows}x{cols}"));
        for sketch in PartitionSketch::all_from_csr(&csr, 3) {
            assert!(sketch.sketches_under_cap(4).is_empty());
            assert_eq!(sketch.cost_under_cap(4, 32), 0.0);
        }
    }
}

#[test]
fn empty_rows_and_empty_partitions() {
    // Rows 1, 3 and 5 are empty; every entry lies in columns 0..3 of 20,
    // so most partitions of most splits are empty.
    let csr = csr_of(6, 20, &[(0, 0), (0, 1), (0, 2), (2, 1), (4, 0), (4, 2)]);
    check_matrix(&csr, "empty rows");
    let swept = PartitionSketch::all_from_csr(&csr, 5);
    assert_eq!(swept[0].num_rows(), 3);
    assert!(swept[1..].iter().all(|s| s.num_rows() == 0));
}

#[test]
fn one_column_matrix() {
    let csr = csr_of(7, 1, &[(0, 0), (2, 0), (3, 0), (6, 0)]);
    check_matrix(&csr, "one column");
    assert_eq!(PartitionSketch::all_from_csr(&csr, 4).len(), 1);
}

#[test]
fn rows_that_fill_their_whole_span() {
    // Spans straddling and matching 64-column bitset words: the full
    // row fills every span to its last column, alongside short rows.
    for cols in [63usize, 64, 65, 128, 130, 200] {
        let mut entries: Vec<(usize, usize)> = (0..cols).map(|c| (0, c)).collect();
        entries.extend([(1, 0), (1, cols - 1), (2, cols / 2), (3, cols - 1)]);
        entries.extend((cols / 3..cols).map(|c| (4, c)));
        let csr = csr_of(5, cols, &entries);
        check_matrix(&csr, &format!("full row, {cols} columns"));
    }
}
