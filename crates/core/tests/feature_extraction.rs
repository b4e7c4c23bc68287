//! Feature extraction reads row lengths straight from `row_ptr`.
//!
//! `FormatFeatures::from_csr` and `PartitionFeatures::from_csr` feed
//! `RowStats::from_lengths` an iterator over `row_ptr` instead of a
//! collected `row_lengths()` vector. These tests hold every feature
//! bit-identical to the slice formula it replaced — same integer sums,
//! same float operations in the same order — on every `lf_sparse::gen`
//! family and on the GNN analogues, so the selector and the partition
//! predictor see the same inputs and make the same decisions; and they
//! hold the extraction free of heap allocation.

use lf_data::{Scale, GNN_GRAPHS};
use lf_sim::alloc::{since, snapshot};
use lf_sparse::gen::{
    banded, block_sparse, fuzz_case, mixed_regions, power_law, rmat, uniform_random,
    uniform_with_long_rows, PowerLawConfig, RmatConfig,
};
use lf_sparse::{CsrMatrix, FormatFeatures, PartitionFeatures, Pcg32, RowStats};

/// The slice formula `RowStats::from_lengths` used before it took an
/// iterator: the oracle.
fn slice_row_stats(lengths: &[usize]) -> RowStats {
    if lengths.is_empty() {
        return RowStats {
            avg: 0.0,
            min: 0.0,
            max: 0.0,
            std: 0.0,
        };
    }
    let n = lengths.len() as f64;
    let sum: usize = lengths.iter().sum();
    let avg = sum as f64 / n;
    let min = *lengths.iter().min().unwrap() as f64;
    let max = *lengths.iter().max().unwrap() as f64;
    let var = lengths
        .iter()
        .map(|&l| {
            let d = l as f64 - avg;
            d * d
        })
        .sum::<f64>()
        / n;
    RowStats {
        avg,
        min,
        max,
        std: var.sqrt(),
    }
}

fn bits<const N: usize>(v: [f64; N]) -> [u64; N] {
    v.map(f64::to_bits)
}

/// Assert both feature tables of `csr` are bitwise the slice formula's.
fn assert_bit_identical(csr: &CsrMatrix<f64>, what: &str) {
    let lengths = csr.row_lengths();
    let s = slice_row_stats(&lengths);
    let want = [
        csr.rows() as f64,
        csr.cols() as f64,
        csr.nnz() as f64,
        s.avg,
        s.min,
        s.max,
        s.std,
    ];
    let got = FormatFeatures::from_csr(csr).to_array();
    assert_eq!(bits(got), bits(want), "{what}: Table 2 features");
    let inv_cols = if csr.cols() == 0 {
        0.0
    } else {
        1.0 / csr.cols() as f64
    };
    let d = s.scaled(inv_cols);
    for j in [1, 32, 128] {
        let want = [
            csr.rows() as f64,
            csr.cols() as f64,
            csr.nnz() as f64,
            d.avg,
            d.min,
            d.max,
            d.std,
            j as f64,
        ];
        let got = PartitionFeatures::from_csr(csr, j).to_array();
        assert_eq!(bits(got), bits(want), "{what}: Table 3 features at J={j}");
    }
}

/// One matrix per `lf_sparse::gen` family (several shapes each), plus
/// every well-formed fuzz class.
fn gen_families() -> Vec<(String, CsrMatrix<f64>)> {
    let mut rng = Pcg32::seed_from_u64(0xFEA7);
    let mut out = Vec::new();
    for (rows, cols) in [(0, 0), (1, 1), (57, 211), (300, 300), (1000, 64)] {
        let mut push = |name: &str, coo: lf_sparse::CooMatrix<f64>| {
            out.push((format!("{name} {rows}x{cols}"), CsrMatrix::from_coo(&coo)));
        };
        let nnz = rows * cols / 20 + 1;
        push("banded", banded(rows, cols, 3, &mut rng));
        push(
            "block",
            block_sparse(rows, cols, 4, rows / 8 + 1, 0.6, &mut rng),
        );
        push("mixed", mixed_regions(rows, cols, nnz, 4, &mut rng));
        push("uniform", uniform_random(rows, cols, nnz, &mut rng));
        push(
            "long_rows",
            uniform_with_long_rows(rows, cols, nnz, 3, cols / 2 + 1, &mut rng),
        );
        let power = PowerLawConfig {
            rows,
            cols,
            target_nnz: nnz,
            exponent: 1.8,
            max_degree: Some(cols / 3 + 1),
        };
        push("power_law", power_law(&power, &mut rng));
        let graph = RmatConfig {
            rows,
            cols,
            target_nnz: nnz,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        };
        push("rmat", rmat(&graph, &mut rng));
    }
    for seed in 0..64 {
        let case = fuzz_case::<f64>(seed);
        if !case.malformed {
            out.push((format!("fuzz {seed} ({})", case.label), case.csr));
        }
    }
    out
}

#[test]
fn features_are_bit_identical_to_the_slice_formula_on_every_gen_family() {
    for (what, csr) in gen_families() {
        assert_bit_identical(&csr, &what);
    }
}

#[test]
fn features_are_bit_identical_to_the_slice_formula_on_the_gnn_analogues() {
    for g in &GNN_GRAPHS {
        assert_bit_identical(&g.build(Scale::Small), g.name);
    }
}

#[test]
fn feature_extraction_allocates_nothing() {
    let mut rng = Pcg32::seed_from_u64(0xA110C);
    let csr = CsrMatrix::<f64>::from_coo(&mixed_regions(2000, 2000, 40_000, 4, &mut rng));
    // The allocation counters are process-wide and other tests run
    // concurrently: an extraction that allocates shows up in every try,
    // a concurrent test's allocation in only some of them.
    let clean = (0..200).any(|_| {
        let before = snapshot();
        let features = (
            FormatFeatures::from_csr(&csr),
            PartitionFeatures::from_csr(&csr, 32),
        );
        let calls = since(before).calls;
        std::hint::black_box(features);
        calls == 0
    });
    assert!(clean, "feature extraction allocated on every try");
}
