//! The single source of truth for CELL's equal column partitioning.
//!
//! Both the CELL builder (`build_cell`) and the cost model's
//! `PartitionSketch` must agree exactly on which columns belong to which
//! partition — any drift silently decouples the cost model from the
//! format it prices. Every span computation in the workspace goes through
//! this module, and both sweeps split rows at the span boundaries with
//! one shared splitter, `crate::build::BoundaryFinder`.

/// Clamp a requested partition count to what the column space supports.
///
/// `cols / p` spans of width zero (requested partitions exceeding the
/// column count) would make every leading partition empty and the last
/// one absorb the whole matrix; instead the effective count is capped at
/// `cols` (and floored at 1).
pub fn effective_partitions(cols: usize, requested: usize) -> usize {
    requested.max(1).min(cols.max(1))
}

/// Equal column spans `[lo, hi)` for `p` partitions of `cols` columns;
/// the last span absorbs the remainder. The partition count is clamped
/// via [`effective_partitions`], so the result may have fewer than `p`
/// entries.
pub fn partition_spans(cols: usize, p: usize) -> Vec<(usize, usize)> {
    let p = effective_partitions(cols, p);
    let span = cols / p;
    (0..p)
        .map(|pi| {
            let lo = pi * span;
            let hi = if pi + 1 == p { cols } else { (pi + 1) * span };
            (lo, hi)
        })
        .collect()
}

/// The partition owning column `col`, in O(1) — the arithmetic inverse
/// of [`partition_spans`]. `p` must already be effective (clamped).
#[inline]
pub fn partition_of_col(cols: usize, p: usize, col: usize) -> usize {
    debug_assert!(p >= 1 && p <= cols.max(1), "p must be pre-clamped");
    debug_assert!(col < cols);
    let span = cols / p;
    (col / span).min(p - 1)
}

/// A precomputed span layout: clamp once, divide once, then map columns
/// to partitions in O(1) per element without re-deriving the span width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMap {
    cols: usize,
    p: usize,
    span: usize,
}

impl SpanMap {
    /// Layout for `cols` columns under a *requested* partition count
    /// (clamped via [`effective_partitions`]).
    pub fn new(cols: usize, requested_partitions: usize) -> Self {
        let p = effective_partitions(cols, requested_partitions);
        SpanMap {
            cols,
            p,
            span: cols / p,
        }
    }

    /// Effective (clamped) partition count.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.p
    }

    /// The partition owning column `col`.
    #[inline]
    pub fn of_col(&self, col: usize) -> usize {
        debug_assert!(col < self.cols);
        (col / self.span).min(self.p - 1)
    }

    /// The column span `[lo, hi)` of partition `pi`.
    #[inline]
    pub fn span_of(&self, pi: usize) -> (usize, usize) {
        debug_assert!(pi < self.p);
        let lo = pi * self.span;
        let hi = if pi + 1 == self.p {
            self.cols
        } else {
            (pi + 1) * self.span
        };
        (lo, hi)
    }

    /// All spans in order (same result as [`partition_spans`]).
    pub fn spans(&self) -> Vec<(usize, usize)> {
        (0..self.p).map(|pi| self.span_of(pi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_and_tile() {
        for cols in [1usize, 2, 7, 10, 64, 1000] {
            for p in [1usize, 2, 3, 4, 10, 64, 2000] {
                let spans = partition_spans(cols, p);
                assert_eq!(spans.len(), effective_partitions(cols, p));
                assert_eq!(spans[0].0, 0);
                assert_eq!(spans.last().unwrap().1, cols);
                for w in spans.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "spans must tile");
                    assert!(w[0].0 < w[0].1, "no empty span after clamping");
                }
            }
        }
    }

    #[test]
    fn clamp_degenerate_partition_counts() {
        assert_eq!(effective_partitions(4, 10), 4);
        assert_eq!(effective_partitions(4, 4), 4);
        assert_eq!(effective_partitions(4, 0), 1);
        assert_eq!(effective_partitions(0, 5), 1);
        assert_eq!(partition_spans(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(partition_spans(0, 3), vec![(0, 0)]);
    }

    #[test]
    fn partition_of_col_inverts_spans() {
        for cols in [1usize, 5, 10, 33, 257] {
            for p in [1usize, 2, 3, 7, 16] {
                let p_eff = effective_partitions(cols, p);
                let spans = partition_spans(cols, p);
                for col in 0..cols {
                    let pi = partition_of_col(cols, p_eff, col);
                    let (lo, hi) = spans[pi];
                    assert!(
                        lo <= col && col < hi,
                        "col {col} must fall in its partition's span (cols={cols} p={p})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_seed_layout() {
        // The exact spans the seed builder produced for its test matrix.
        assert_eq!(partition_spans(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(partition_spans(8, 1), vec![(0, 8)]);
    }

    #[test]
    fn span_map_agrees_with_functions() {
        for cols in [1usize, 9, 40, 100] {
            for p in [1usize, 2, 5, 200] {
                let map = SpanMap::new(cols, p);
                assert_eq!(map.num_partitions(), effective_partitions(cols, p));
                assert_eq!(map.spans(), partition_spans(cols, p));
                for col in 0..cols {
                    assert_eq!(
                        map.of_col(col),
                        partition_of_col(cols, map.num_partitions(), col)
                    );
                }
            }
        }
    }
}
