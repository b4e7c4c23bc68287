//! The bucket cost model, Eq. 5–7 of the paper.

use lf_cell::span::SpanMap;
use lf_sparse::{CsrMatrix, Index, Scalar};
use serde::{Deserialize, Serialize};

/// The shape statistics of one bucket that the cost model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketSketch {
    /// Bucket width `W = 2^i`.
    pub width: usize,
    /// `I⁽¹⁾`: bucket rows, counting folded fragments separately.
    pub i1: usize,
    /// `I⁽²⁾`: distinct output rows.
    pub i2: usize,
    /// `|set(Ind[i,w])|`: distinct column indices in the bucket.
    pub unique_cols: usize,
    /// True non-zeros (for padding statistics; not in Eq. 7).
    pub nnz: usize,
}

/// Eq. 7: `cost(x) = 2·I⁽¹⁾·W + |set(Ind)|·J + I⁽¹⁾·J`.
///
/// * first term — reading the bucket's column-index and value grids
///   (padding included: the grid is `I⁽¹⁾ × W`);
/// * second term — reading the rows of the dense operand `B`, counted
///   once per distinct column (intra-bucket reuse);
/// * third term — writing `C`, `Atomic`-weighted: Eq. 6's
///   `Atomic·I⁽²⁾·J` with `Atomic = I⁽¹⁾/I⁽²⁾` (folded fragments each
///   issue their own atomic update) reduces to `I⁽¹⁾·J`.
pub fn bucket_cost(sketch: &BucketSketch, j: usize) -> f64 {
    let j = j as f64;
    2.0 * sketch.i1 as f64 * sketch.width as f64
        + sketch.unique_cols as f64 * j
        + sketch.i1 as f64 * j
}

/// Total Eq. 7 cost of a set of buckets (the paper's `GetAllCost`).
pub fn partition_cost(sketches: &[BucketSketch], j: usize) -> f64 {
    sketches.iter().map(|s| bucket_cost(s, j)).sum()
}

/// Per length-class statistics: class `k` holds the rows whose natural
/// bucket width is `2^k` (length in `(2^(k-1), 2^k]`).
#[derive(Debug, Clone, Copy, Default)]
struct ClassStats {
    /// Rows in this class.
    rows: usize,
    /// Their total non-zeros.
    nnz: usize,
    /// Distinct column indices among this class's rows.
    distinct_cols: usize,
    /// Distinct column indices over this class and every longer one:
    /// the cap bucket's `|set(Ind)|` under a cap of `2^k`.
    suffix_distinct: usize,
    /// `Σ⌈len/2^k⌉` over the rows of every longer class: the fragments
    /// they fold into under a cap of `2^k`.
    folded_fragments: usize,
}

/// A column partition's length histogram, extracted once from CSR so the
/// width search can re-bucket repeatedly without touching the matrix (or
/// any column data) again.
///
/// Per length class it keeps rows, non-zeros, distinct columns, the
/// distinct columns of the suffix union (`distinct over classes ≥ k`)
/// and the fold sums — exactly what [`crate::search::tune_width`] needs:
/// under a cap `2^c`, every class below `c` becomes its own bucket
/// unchanged, and all classes ≥ `c` merge into the cap bucket, whose
/// distinct-column count is the suffix union at `c` and whose extra
/// fragments are the fold sum at `c`.
#[derive(Debug, Clone, Default)]
pub struct PartitionSketch {
    /// Number of columns in the whole matrix (for span bookkeeping).
    pub cols: usize,
    num_rows: usize,
    nnz: usize,
    max_row_len: usize,
    /// `classes[k]` ⇒ natural width `2^k`; empty when the partition is,
    /// and never longer than the longest row's class.
    classes: Vec<ClassStats>,
}

/// Length class of a non-empty row segment: `⌈log₂ len⌉`, the exponent
/// of [`lf_cell::config::bucket_width_for_len`].
#[inline]
fn class_of(len: usize) -> usize {
    (usize::BITS - (len - 1).leading_zeros()) as usize
}

/// One length class's running tallies over the rows a sweep has seen.
#[derive(Debug, Clone, Default)]
struct ClassTally {
    rows: usize,
    nnz: usize,
    /// Span-wide column bitset, allocated on the class's first row.
    bits: Vec<u64>,
}

/// One column span's running tallies over a range of rows: what a
/// row-chunk worker accumulates. Chunks merge by add (counts, fold
/// sums), max (longest row) and OR (column bitsets).
#[derive(Debug)]
struct SpanTally {
    lo: usize,
    /// Span width in 64-column bitset words.
    words: usize,
    max_len: usize,
    /// `classes[k]`, for every class a segment of this span can reach.
    classes: Vec<ClassTally>,
    /// `folds[c]`: `Σ⌈len/2^c⌉` over the rows whose class exceeds `c`.
    folds: Vec<usize>,
}

impl SpanTally {
    fn new(lo: usize, hi: usize) -> Self {
        let n = class_of((hi - lo).max(1)) + 1;
        SpanTally {
            lo,
            words: (hi - lo).div_ceil(64),
            max_len: 0,
            classes: vec![ClassTally::default(); n],
            folds: vec![0; n],
        }
    }

    /// Count one row's segment (its columns, all inside the span).
    #[inline]
    fn add(&mut self, seg: &[Index]) {
        let len = seg.len();
        if len == 0 {
            return;
        }
        let k = class_of(len);
        self.max_len = self.max_len.max(len);
        for (c, fold) in self.folds[..k].iter_mut().enumerate() {
            *fold += len.div_ceil(1 << c);
        }
        let class = &mut self.classes[k];
        class.rows += 1;
        class.nnz += len;
        if class.bits.is_empty() {
            class.bits = vec![0; self.words];
        }
        for &col in seg {
            let x = col as usize - self.lo;
            class.bits[x / 64] |= 1 << (x % 64);
        }
    }
}

/// Balanced row chunks for a tally sweep: `chunks` contiguous row
/// ranges holding about equal shares of the non-zeros.
fn row_chunks<T: Scalar>(csr: &CsrMatrix<T>, chunks: usize) -> Vec<usize> {
    let row_ptr = csr.row_ptr();
    let mut bounds: Vec<usize> = (0..chunks)
        .map(|ci| row_ptr.partition_point(|&o| o < csr.nnz() * ci / chunks))
        .collect();
    bounds.push(csr.rows());
    bounds
}

impl PartitionSketch {
    /// Extract the rows of `csr` restricted to columns `[col_lo, col_hi)`.
    ///
    /// This rescans the whole matrix; to sketch *every* partition of a
    /// `p`-way split, [`PartitionSketch::all_from_csr`] does one shared
    /// O(nnz) sweep instead.
    pub fn from_csr<T: Scalar>(csr: &CsrMatrix<T>, col_lo: usize, col_hi: usize) -> Self {
        let mut tally = SpanTally::new(col_lo, col_hi);
        for r in 0..csr.rows() {
            let rcols = csr.row_cols(r);
            let start = rcols.partition_point(|&c| (c as usize) < col_lo);
            let end = rcols.partition_point(|&c| (c as usize) < col_hi);
            tally.add(&rcols[start..end]);
        }
        Self::merge(csr.cols(), &[&tally])
    }

    /// Sketch every partition of a `p`-way equal split with one O(nnz)
    /// tally sweep over the CSR, parallel over non-zero-balanced row
    /// chunks. Each chunk splits its rows with the CELL builder's own
    /// [`lf_cell::build::BoundaryFinder`], so the sketches describe
    /// exactly what `build_cell` builds; the chunk tallies then merge
    /// per partition.
    pub fn all_from_csr<T: Scalar>(csr: &CsrMatrix<T>, p: usize) -> Vec<Self> {
        let map = SpanMap::new(csr.cols(), p);
        let p = map.num_partitions();
        let workers = lf_cell::build::workers_for(csr.nnz());
        let bounds = row_chunks(csr, if workers == 1 { 1 } else { workers * 2 });
        let chunks = lf_sim::parallel::parallel_map(bounds.len() - 1, workers, |ci| {
            let mut tallies: Vec<SpanTally> = map
                .spans()
                .into_iter()
                .map(|(lo, hi)| SpanTally::new(lo, hi))
                .collect();
            let finder = lf_cell::build::BoundaryFinder::new(&map);
            let mut b = vec![0usize; p + 1];
            for r in bounds[ci]..bounds[ci + 1] {
                let rcols = csr.row_cols(r);
                if rcols.is_empty() {
                    continue;
                }
                finder.split(rcols, 0, &mut b);
                for (pi, tally) in tallies.iter_mut().enumerate() {
                    tally.add(&rcols[b[pi]..b[pi + 1]]);
                }
            }
            tallies
        });
        (0..p)
            .map(|pi| {
                let parts: Vec<&SpanTally> = chunks.iter().map(|tallies| &tallies[pi]).collect();
                Self::merge(csr.cols(), &parts)
            })
            .collect()
    }

    /// Merge one span's chunk tallies into its sketch. Distinct counts
    /// are popcounts: of each class's OR-merged bitset, and of a running
    /// OR from the longest class down for the suffix unions.
    fn merge(cols: usize, parts: &[&SpanTally]) -> Self {
        let max_row_len = parts.iter().map(|t| t.max_len).max().unwrap_or(0);
        let n_classes = if max_row_len == 0 {
            0
        } else {
            class_of(max_row_len) + 1
        };
        let words = parts[0].words;
        let mut union = vec![0u64; words];
        let mut running = vec![0u64; words];
        let mut classes = vec![ClassStats::default(); n_classes];
        for (k, class) in classes.iter_mut().enumerate().rev() {
            union.fill(0);
            for t in parts {
                let tally = &t.classes[k];
                class.rows += tally.rows;
                class.nnz += tally.nnz;
                class.folded_fragments += t.folds[k];
                for (u, &w) in union.iter_mut().zip(&tally.bits) {
                    *u |= w;
                }
            }
            for (r, &u) in running.iter_mut().zip(&union) {
                class.distinct_cols += u.count_ones() as usize;
                *r |= u;
                class.suffix_distinct += r.count_ones() as usize;
            }
        }
        PartitionSketch {
            cols,
            num_rows: classes.iter().map(|c| c.rows).sum(),
            nnz: classes.iter().map(|c| c.nnz).sum(),
            max_row_len,
            classes,
        }
    }

    /// Even column spans for `p` partitions of a matrix with `cols`
    /// columns — delegates to [`lf_cell::span::partition_spans`], the
    /// same function `build_cell` partitions with, so the two can never
    /// drift (including the clamp of `p` to the column count).
    pub fn spans(cols: usize, p: usize) -> Vec<(usize, usize)> {
        lf_cell::span::partition_spans(cols, p)
    }

    /// Number of non-empty rows in the partition.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Longest row length in the partition (0 when empty).
    pub fn max_row_len(&self) -> usize {
        self.max_row_len
    }

    /// Total non-zeros in the partition.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The paper's `TuneWidth` on the histogram: bucket sketches under a
    /// maximum width of `cap` (a power of two), folding longer rows into
    /// the cap bucket. O(classes); no column data touched.
    pub fn sketches_under_cap(&self, cap: usize) -> Vec<BucketSketch> {
        self.buckets_under_cap(cap).collect()
    }

    /// Total Eq. 7 cost under `cap`: the same buckets, summed in the same
    /// order, as `partition_cost(&self.sketches_under_cap(cap), j)` —
    /// so the same bits — without materializing the sketches.
    /// O(classes).
    pub fn cost_under_cap(&self, cap: usize, j: usize) -> f64 {
        self.buckets_under_cap(cap)
            .map(|s| bucket_cost(&s, j))
            .sum()
    }

    /// The buckets under `cap`, widths ascending: every non-empty class
    /// below the cap as its own bucket, then the cap bucket — class `c`'s
    /// rows plus every longer row folded into `⌈len/cap⌉` fragments.
    fn buckets_under_cap(&self, cap: usize) -> impl Iterator<Item = BucketSketch> + '_ {
        assert!(
            cap >= 1 && cap.is_power_of_two(),
            "cap must be a power of two"
        );
        let c = cap.trailing_zeros() as usize;
        let natural = self
            .classes
            .iter()
            .enumerate()
            .take(c)
            .filter(|(_, class)| class.rows > 0)
            .map(|(k, class)| BucketSketch {
                width: 1 << k,
                i1: class.rows,
                i2: class.rows,
                unique_cols: class.distinct_cols,
                nnz: class.nnz,
            });
        let capped = self.classes.get(c).map(|class| {
            let longer = &self.classes[c + 1..];
            BucketSketch {
                width: cap,
                i1: class.rows + class.folded_fragments,
                i2: class.rows + longer.iter().map(|l| l.rows).sum::<usize>(),
                unique_cols: class.suffix_distinct,
                nnz: class.nnz + longer.iter().map(|l| l.nnz).sum::<usize>(),
            }
        });
        natural.chain(capped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::CooMatrix;

    #[test]
    fn cost_formula_by_hand() {
        let s = BucketSketch {
            width: 4,
            i1: 10,
            i2: 10,
            unique_cols: 25,
            nnz: 30,
        };
        // 2*10*4 + 25*J + 10*J at J=32: 80 + 800 + 320 = 1200.
        assert_eq!(bucket_cost(&s, 32), 1200.0);
    }

    #[test]
    fn wider_bucket_trades_terms() {
        // Doubling the width halves I1 (same nnz re-packed) but doubles
        // the first term's per-row cost; the B and C terms shrink.
        let narrow = BucketSketch {
            width: 4,
            i1: 20,
            i2: 10,
            unique_cols: 40,
            nnz: 60,
        };
        let wide = BucketSketch {
            width: 8,
            i1: 10,
            i2: 10,
            unique_cols: 40,
            nnz: 60,
        };
        // First terms equal (2*20*4 == 2*10*8); third term differs.
        let j = 128;
        assert!(bucket_cost(&wide, j) < bucket_cost(&narrow, j));
    }

    #[test]
    fn partition_cost_sums() {
        let s = BucketSketch {
            width: 2,
            i1: 5,
            i2: 5,
            unique_cols: 7,
            nnz: 8,
        };
        assert_eq!(partition_cost(&[s, s], 16), 2.0 * bucket_cost(&s, 16));
        assert_eq!(partition_cost(&[], 16), 0.0);
    }

    #[test]
    fn sketch_extraction() {
        let coo = CooMatrix::from_triplets(
            4,
            8,
            vec![
                (0, 1, 1.0),
                (0, 6, 1.0),
                (1, 2, 1.0),
                (3, 0, 1.0),
                (3, 3, 1.0),
                (3, 7, 1.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let left = PartitionSketch::from_csr(&csr, 0, 4);
        assert_eq!(left.num_rows(), 3); // rows 0, 1, 3 have entries < col 4
        assert_eq!(left.nnz(), 4);
        assert_eq!(left.max_row_len(), 2);
        let right = PartitionSketch::from_csr(&csr, 4, 8);
        assert_eq!(right.nnz(), 2);
    }

    #[test]
    fn all_from_csr_matches_per_partition_extraction() {
        let coo = CooMatrix::from_triplets(
            6,
            10,
            vec![
                (0, 0, 1.0),
                (0, 4, 1.0),
                (0, 9, 1.0),
                (2, 3, 1.0),
                (2, 5, 1.0),
                (4, 1, 1.0),
                (4, 2, 1.0),
                (4, 6, 1.0),
                (4, 7, 1.0),
                (5, 8, 1.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        for p in [1usize, 2, 3, 5, 16] {
            let swept = PartitionSketch::all_from_csr(&csr, p);
            let spans = PartitionSketch::spans(csr.cols(), p);
            assert_eq!(swept.len(), spans.len());
            for (sk, &(lo, hi)) in swept.iter().zip(&spans) {
                let slow = PartitionSketch::from_csr(&csr, lo, hi);
                assert_eq!(sk.num_rows(), slow.num_rows(), "p={p} span {lo}..{hi}");
                assert_eq!(sk.nnz(), slow.nnz());
                assert_eq!(sk.max_row_len(), slow.max_row_len());
                for cap in [1usize, 2, 4, 1024] {
                    assert_eq!(
                        sk.sketches_under_cap(cap),
                        slow.sketches_under_cap(cap),
                        "p={p} span {lo}..{hi} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn spans_match_cell_builder() {
        assert_eq!(PartitionSketch::spans(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(PartitionSketch::spans(8, 1), vec![(0, 8)]);
        assert_eq!(PartitionSketch::spans(8, 0), vec![(0, 8)]);
        // Requested partitions beyond the column count are clamped, same
        // as `build_cell`: no empty spans.
        assert_eq!(PartitionSketch::spans(2, 5), vec![(0, 1), (1, 2)]);
    }
}
