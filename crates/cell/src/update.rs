//! Incremental CELL maintenance under edge updates.
//!
//! The Adaptive Row-grouped CSR insight carried over to CELL: an edge
//! update only perturbs the buckets holding the *touched rows* of the
//! *touched partitions*. Both entry points re-bucket exactly those rows
//! against the post-update CSR — folding rows that crossed above a
//! configured width cap, unfolding rows that dropped back under it, and
//! migrating rows whose segment length crossed a power-of-two bucket
//! boundary:
//!
//! * [`updated_cell`] builds the successor of a shared CELL (a cached
//!   plan's payload) and copies every byte once: untouched partitions
//!   and buckets are cloned, and each affected bucket is assembled
//!   straight from its predecessor — one bulk copy per run of kept
//!   bucket rows, the touched rows' new fragments spliced in between;
//! * [`update_cell`] does the same in place, leaving every unaffected
//!   bucket's storage byte-for-byte alone.
//!
//! The result is **bitwise identical** to
//! [`build_cell`](crate::build::build_cell) on the updated matrix
//! (property-tested across the corpus), so a consumer can never tell
//! whether a CELL was maintained or rebuilt.
//!
//! Cost: O(size of the affected buckets), not O(nnz). The serving layer
//! falls back to a full rebuild past a measured churn crossover (see
//! `lf_cost::update`); this module implements only the incremental arm.

use crate::config::{bucket_width_for_len, CellConfig};
use crate::matrix::{Bucket, CellMatrix, Partition};
use crate::span::SpanMap;
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{CsrMatrix, Index, Result, Scalar, SparseError};
use std::collections::BTreeMap;

/// A re-bucketed fragment: `(row, absolute CSR range)` in `new_csr`.
type Fragment = (Index, usize, usize);

/// Re-bucket the touched rows of `cell` against `new_csr`, in place.
///
/// `touched` lists the `(row, col)` coordinates of the applied edge
/// updates (inserts, deletes and value changes alike — a value change
/// re-materializes its row's fragments so stored values stay exact).
/// `new_csr` must be the post-update matrix with the same shape the
/// CELL was built from; `cell.config()` keeps governing the layout.
///
/// On success `cell` equals `build_cell(new_csr, cell.config())`
/// bitwise. On error (shape mismatch, out-of-range coordinate) `cell`
/// is untouched.
pub fn update_cell<T: Scalar>(
    cell: &mut CellMatrix<T>,
    new_csr: &CsrMatrix<T>,
    touched: &[(usize, usize)],
) -> Result<()> {
    let touched_rows = touched_rows_by_partition(cell, new_csr, touched)?;
    let multi_partition = cell.partitions.len() > 1;
    for (pi, rows) in touched_rows.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let part = &mut cell.partitions[pi];
        let (spliced, fresh) = splice_partition(part, new_csr, rows, &cell.config, pi);
        for (b, next) in part.buckets.iter_mut().zip(spliced) {
            if let Some(next) = next {
                *b = next;
            }
        }
        finish_partition(&mut part.buckets, fresh, &cell.config, pi, multi_partition);
    }
    cell.nnz = new_csr.nnz();
    Ok(())
}

/// The successor of `cell` after the edge updates at `touched`, built
/// without modifying `cell`: the copy-once form of [`update_cell`] for a
/// CELL that stays shared (a cached plan's payload). Same contract:
/// the result equals `build_cell(new_csr, cell.config())` bitwise, and
/// the same inputs are rejected.
pub fn updated_cell<T: Scalar>(
    cell: &CellMatrix<T>,
    new_csr: &CsrMatrix<T>,
    touched: &[(usize, usize)],
) -> Result<CellMatrix<T>> {
    let touched_rows = touched_rows_by_partition(cell, new_csr, touched)?;
    let multi_partition = cell.partitions.len() > 1;
    let partitions = cell
        .partitions
        .iter()
        .zip(&touched_rows)
        .enumerate()
        .map(|(pi, (part, rows))| {
            if rows.is_empty() {
                return part.clone();
            }
            let (spliced, fresh) = splice_partition(part, new_csr, rows, &cell.config, pi);
            let mut buckets: Vec<Bucket<T>> = part
                .buckets
                .iter()
                .zip(spliced)
                .map(|(b, next)| next.unwrap_or_else(|| b.clone()))
                .collect();
            finish_partition(&mut buckets, fresh, &cell.config, pi, multi_partition);
            Partition {
                col_range: part.col_range,
                buckets,
            }
        })
        .collect();
    Ok(CellMatrix {
        rows: cell.rows,
        cols: cell.cols,
        nnz: new_csr.nnz(),
        partitions,
        config: cell.config.clone(),
    })
}

/// Check `new_csr` and `touched` against `cell`, and group the touched
/// rows by the partition their column falls in (each list sorted and
/// deduplicated).
fn touched_rows_by_partition<T: Scalar>(
    cell: &CellMatrix<T>,
    new_csr: &CsrMatrix<T>,
    touched: &[(usize, usize)],
) -> Result<Vec<Vec<usize>>> {
    let (rows, cols) = cell.shape();
    if new_csr.shape() != (rows, cols) {
        return Err(SparseError::DimensionMismatch {
            op: "update_cell",
            lhs: (rows, cols),
            rhs: new_csr.shape(),
        });
    }
    if new_csr.nnz() >= u32::MAX as usize {
        return Err(SparseError::InvalidConfig(format!(
            "matrix nnz {} exceeds the u32 fragment-offset range",
            new_csr.nnz()
        )));
    }
    let map = SpanMap::new(cols, cell.config.num_partitions);
    debug_assert_eq!(map.num_partitions(), cell.partitions.len());
    let mut touched_rows: Vec<Vec<usize>> = vec![Vec::new(); map.num_partitions()];
    for &(r, c) in touched {
        if r >= rows || c >= cols {
            return Err(SparseError::IndexOutOfBounds {
                index: (r, c),
                shape: (rows, cols),
            });
        }
        touched_rows[map.of_col(c)].push(r);
    }
    for rows in &mut touched_rows {
        rows.sort_unstable();
        rows.dedup();
    }
    Ok(touched_rows)
}

/// Re-bucket `touched` rows of one partition. Returns, per existing
/// bucket, its spliced successor (`None` when the bucket neither held a
/// touched row nor receives a fragment), plus fresh buckets for widths
/// the partition did not have yet.
fn splice_partition<T: Scalar>(
    part: &Partition<T>,
    new_csr: &CsrMatrix<T>,
    touched: &[usize],
    config: &CellConfig,
    pi: usize,
) -> (Vec<Option<Bucket<T>>>, Vec<Bucket<T>>) {
    let (col_lo, col_hi) = part.col_range;
    let cap = config.max_width_for(pi);

    // The touched rows' new fragments, binned by bucket width. Rows are
    // visited in ascending order, so each width's list is ascending too
    // (folded fragments of one row consecutive, ascending by offset) —
    // the same order the full builder's row sweep produces.
    let mut incoming: BTreeMap<usize, Vec<Fragment>> = BTreeMap::new();
    for &r in touched {
        let rcols = new_csr.row_cols(r);
        let base = new_csr.row_ptr()[r];
        let start = base + rcols.partition_point(|&c| (c as usize) < col_lo);
        let end = base + rcols.partition_point(|&c| (c as usize) < col_hi);
        let len = end - start;
        if len == 0 {
            continue;
        }
        match cap {
            Some(cap) if len > cap => {
                let frags = incoming.entry(cap).or_default();
                let mut s = start;
                while s < end {
                    let e = (s + cap).min(end);
                    frags.push((r as Index, s, e));
                    s = e;
                }
            }
            _ => {
                incoming
                    .entry(bucket_width_for_len(len))
                    .or_default()
                    .push((r as Index, start, end));
            }
        }
    }

    let mut cuts = Vec::with_capacity(touched.len());
    let spliced = part
        .buckets
        .iter()
        .map(|b| {
            let incoming = incoming.remove(&b.width).unwrap_or_default();
            splice_bucket(b, new_csr, touched, &incoming, &mut cuts)
        })
        .collect();
    let fresh = incoming
        .into_iter()
        .map(|(width, frags)| fresh_bucket(new_csr, width, &frags))
        .collect();
    (spliced, fresh)
}

/// Drop emptied buckets, slot `fresh` ones in at their widths, and
/// re-derive the builder's partition-level metadata (ascending
/// non-empty buckets, max-bucket flags, uniform block geometry).
fn finish_partition<T: Scalar>(
    buckets: &mut Vec<Bucket<T>>,
    fresh: Vec<Bucket<T>>,
    config: &CellConfig,
    pi: usize,
    multi_partition: bool,
) {
    buckets.retain(|b| !b.row_ind.is_empty());
    for bucket in fresh {
        let at = buckets.partition_point(|b| b.width < bucket.width);
        buckets.insert(at, bucket);
    }

    // Folding only ever happens under a configured cap and always
    // yields at least two fragments, so "any folded row" is exactly
    // "the cap bucket stores some row more than once".
    let cap = config.max_width_for(pi);
    let max_width = buckets.last().map(|b| b.width).unwrap_or(0);
    let block_nnz = (max_width.max(1) * config.block_nnz_multiple).next_power_of_two();
    let any_folded = cap.is_some_and(|cap| {
        buckets
            .iter()
            .find(|b| b.width == cap)
            .is_some_and(|b| b.row_ind.windows(2).any(|w| w[0] == w[1]))
    });
    for b in buckets.iter_mut() {
        let is_max = b.width == max_width;
        b.rows_per_block = if config.uniform_block_nnz {
            (block_nnz / b.width).max(1)
        } else {
            32
        };
        b.needs_atomic = multi_partition || (is_max && any_folded);
        b.has_folded = is_max && any_folded;
    }
}

/// The successor of bucket `old` in one pass: the touched rows' old
/// fragments are dropped, `incoming` fragments (row-ascending, every row
/// in `touched`) take their row-sorted slots, and each run of kept rows
/// between them moves with one copy per array. `None` when nothing in
/// the bucket changes. `cuts` is scratch space reused across buckets.
fn splice_bucket<T: Scalar>(
    old: &Bucket<T>,
    new_csr: &CsrMatrix<T>,
    touched: &[usize],
    incoming: &[Fragment],
    cuts: &mut Vec<(usize, usize)>,
) -> Option<Bucket<T>> {
    // Where each touched row's old fragments sit: `row_ind` is ascending,
    // so every touched row owns one (possibly empty) index range.
    let rows = &old.row_ind;
    cuts.clear();
    let mut dropped = 0;
    let mut at = 0;
    for &t in touched {
        let lo = gallop(rows, at, |r| r < t);
        let hi = gallop(rows, lo, |r| r == t);
        cuts.push((lo, hi));
        dropped += hi - lo;
        at = hi;
    }
    if dropped == 0 && incoming.is_empty() {
        return None;
    }

    let width = old.width;
    let new_n = rows.len() - dropped + incoming.len();
    let mut next = Bucket {
        row_ind: Vec::with_capacity(new_n),
        col_ind: Vec::with_capacity(new_n * width),
        values: Vec::with_capacity(new_n * width),
        ..*old
    };
    let mut incoming = incoming.iter().peekable();
    let mut kept = 0; // first row of the pending kept run
    for (&t, &(lo, hi)) in touched.iter().zip(cuts.iter()) {
        copy_rows(&mut next, old, kept..lo);
        while let Some(&frag) = incoming.next_if(|&&(r, _, _)| r as usize == t) {
            push_fragment(&mut next, new_csr, frag);
        }
        kept = hi;
    }
    copy_rows(&mut next, old, kept..rows.len());
    debug_assert!(incoming.next().is_none(), "fragment of an untouched row");
    Some(next)
}

/// `from` plus the length of the prefix of `rows[from..]` satisfying
/// `pred` (which must hold on a prefix only). Gallops, so a cut `gap`
/// rows past `from` costs O(log gap) probes rather than O(gap).
fn gallop(rows: &[Index], from: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step <= rows.len() && pred(rows[lo + step - 1] as usize) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(rows.len());
    lo + rows[lo..hi].partition_point(|&r| pred(r as usize))
}

/// Append bucket rows `range` of `old` to `next`, one copy per array.
fn copy_rows<T: Scalar>(next: &mut Bucket<T>, old: &Bucket<T>, range: std::ops::Range<usize>) {
    let w = old.width;
    next.row_ind.extend_from_slice(&old.row_ind[range.clone()]);
    next.col_ind
        .extend_from_slice(&old.col_ind[range.start * w..range.end * w]);
    next.values
        .extend_from_slice(&old.values[range.start * w..range.end * w]);
}

/// Materialize one fragment into a bucket row: payload then padding,
/// exactly like the builder's bucket fill.
fn push_fragment<T: Scalar>(b: &mut Bucket<T>, new_csr: &CsrMatrix<T>, (row, s, e): Fragment) {
    b.row_ind.push(row);
    b.col_ind.extend_from_slice(&new_csr.col_ind()[s..e]);
    b.values.extend_from_slice(&new_csr.values()[s..e]);
    let pad = b.width - (e - s);
    b.col_ind.extend(std::iter::repeat_n(ELL_PAD, pad));
    b.values.extend(std::iter::repeat_n(T::ZERO, pad));
}

/// A brand-new bucket for a width the partition did not have yet. Flags
/// and block geometry are filled by [`finish_partition`].
fn fresh_bucket<T: Scalar>(new_csr: &CsrMatrix<T>, width: usize, frags: &[Fragment]) -> Bucket<T> {
    let mut b = Bucket {
        width,
        row_ind: Vec::with_capacity(frags.len()),
        col_ind: Vec::with_capacity(frags.len() * width),
        values: Vec::with_capacity(frags.len() * width),
        rows_per_block: 1,
        needs_atomic: false,
        has_folded: false,
    };
    for &frag in frags {
        push_fragment(&mut b, new_csr, frag);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cell;
    use lf_sparse::update::EdgeUpdate;
    use lf_sparse::{CooMatrix, Pcg32};

    fn skewed() -> CsrMatrix<f64> {
        let mut trips = vec![(0, 0, 1.0), (1, 3, 2.0), (3, 7, 3.0), (4, 2, 4.0)];
        for j in 0..9 {
            trips.push((2, j, 10.0 + j as f64));
        }
        CsrMatrix::from_coo(&CooMatrix::from_triplets(5, 10, trips).unwrap())
    }

    fn assert_matches_rebuild(
        cell: &CellMatrix<f64>,
        csr: &CsrMatrix<f64>,
        cfg: &CellConfig,
        what: &str,
    ) {
        let rebuilt = build_cell(csr, cfg).unwrap();
        assert_eq!(cell, &rebuilt, "{what}: incremental != rebuild");
    }

    fn apply(
        cell: &mut CellMatrix<f64>,
        csr: &CsrMatrix<f64>,
        updates: &[EdgeUpdate<f64>],
    ) -> CsrMatrix<f64> {
        let new_csr = csr.apply_updates(updates).unwrap();
        let touched: Vec<(usize, usize)> = updates.iter().map(EdgeUpdate::coord).collect();
        update_cell(cell, &new_csr, &touched).unwrap();
        new_csr
    }

    #[test]
    fn value_change_updates_stored_values() {
        let csr = skewed();
        let cfg = CellConfig::with_partitions(2);
        let mut cell = build_cell(&csr, &cfg).unwrap();
        let new_csr = apply(
            &mut cell,
            &csr,
            &[EdgeUpdate::SetValue {
                row: 2,
                col: 4,
                value: -7.5,
            }],
        );
        assert_matches_rebuild(&cell, &new_csr, &cfg, "value change");
    }

    #[test]
    fn insert_migrates_row_across_bucket_boundary() {
        // Row 0 has 1 entry (width-1 bucket); inserting a second pushes
        // it into the width-2 bucket.
        let csr = skewed();
        let cfg = CellConfig::default();
        let mut cell = build_cell(&csr, &cfg).unwrap();
        let new_csr = apply(
            &mut cell,
            &csr,
            &[EdgeUpdate::Insert {
                row: 0,
                col: 9,
                value: 5.0,
            }],
        );
        assert_matches_rebuild(&cell, &new_csr, &cfg, "bucket migration");
    }

    #[test]
    fn delete_to_empty_row_drops_all_fragments() {
        let csr = skewed();
        let cfg = CellConfig::with_partitions(2);
        let mut cell = build_cell(&csr, &cfg).unwrap();
        let new_csr = apply(&mut cell, &csr, &[EdgeUpdate::Delete { row: 1, col: 3 }]);
        assert_matches_rebuild(&cell, &new_csr, &cfg, "delete to empty");
    }

    #[test]
    fn fold_and_unfold_across_the_cap() {
        // cap 4: row 2 (9 entries) is folded 3-ways. Deleting below the
        // cap unfolds it; re-inserting refolds.
        let csr = skewed();
        let cfg = CellConfig::default().with_max_widths(vec![4]);
        let mut cell = build_cell(&csr, &cfg).unwrap();

        // Unfold: drop row 2 to 4 entries.
        let dels: Vec<EdgeUpdate<f64>> = (4..9)
            .map(|c| EdgeUpdate::Delete { row: 2, col: c })
            .collect();
        let csr2 = apply(&mut cell, &csr, &dels);
        assert_matches_rebuild(&cell, &csr2, &cfg, "unfold");
        let max = cell.partitions()[0].buckets.last().unwrap();
        assert!(!max.has_folded, "row 2 must no longer fold");

        // Refold: push row 2 back above the cap.
        let ins: Vec<EdgeUpdate<f64>> = (4..9)
            .map(|c| EdgeUpdate::Insert {
                row: 2,
                col: c,
                value: c as f64,
            })
            .collect();
        let csr3 = apply(&mut cell, &csr2, &ins);
        assert_matches_rebuild(&cell, &csr3, &cfg, "refold");
        let max = cell.partitions()[0].buckets.last().unwrap();
        assert!(max.has_folded && max.needs_atomic);
    }

    #[test]
    fn max_width_shrink_and_grow_resets_block_geometry() {
        // Deleting the longest row shrinks max_width, which changes
        // every bucket's rows_per_block under uniform block nnz.
        let csr = skewed();
        let cfg = CellConfig::default();
        let mut cell = build_cell(&csr, &cfg).unwrap();
        let dels: Vec<EdgeUpdate<f64>> = (1..9)
            .map(|c| EdgeUpdate::Delete { row: 2, col: c })
            .collect();
        let csr2 = apply(&mut cell, &csr, &dels);
        assert_matches_rebuild(&cell, &csr2, &cfg, "max shrink");

        let ins: Vec<EdgeUpdate<f64>> = (1..9)
            .map(|c| EdgeUpdate::Insert {
                row: 0,
                col: c,
                value: 1.0,
            })
            .collect();
        let csr3 = apply(&mut cell, &csr2, &ins);
        assert_matches_rebuild(&cell, &csr3, &cfg, "max grow");
    }

    #[test]
    fn out_of_range_touch_is_rejected_and_cell_untouched() {
        let csr = skewed();
        let cfg = CellConfig::with_partitions(2);
        let mut cell = build_cell(&csr, &cfg).unwrap();
        let before = cell.clone();
        let err = update_cell(&mut cell, &csr, &[(99, 0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "{err}");
        assert_eq!(cell, before);
        let err = update_cell(&mut cell, &CsrMatrix::<f64>::empty(3, 3), &[(0, 0)]).unwrap_err();
        assert!(
            matches!(err, SparseError::DimensionMismatch { .. }),
            "{err}"
        );
        assert_eq!(cell, before);
    }

    #[test]
    fn copy_once_rejects_what_in_place_rejects() {
        let csr = skewed();
        let cell = build_cell(&csr, &CellConfig::with_partitions(2)).unwrap();
        let err = updated_cell(&cell, &csr, &[(99, 0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "{err}");
        let err = updated_cell(&cell, &CsrMatrix::<f64>::empty(3, 3), &[(0, 0)]).unwrap_err();
        assert!(
            matches!(err, SparseError::DimensionMismatch { .. }),
            "{err}"
        );
        // No touched coordinates: the successor is the source.
        assert_eq!(updated_cell(&cell, &csr, &[]).unwrap(), cell);
    }

    #[test]
    fn randomized_streams_match_rebuild_bitwise() {
        // The crate-level property in miniature (the full corpus sweep
        // lives in tests/incremental.rs): random update streams over
        // random matrices, every step compared to a from-scratch build.
        let mut rng = Pcg32::seed_from_u64(0x5EED);
        for trial in 0..20 {
            let rows = rng.usize_in(6, 40);
            let cols = rng.usize_in(6, 40);
            let nnz = rng.usize_in(rows, rows * 6);
            let mut trips = Vec::new();
            for _ in 0..nnz {
                let v = rng.f64_in(-1.0, 1.0);
                if v != 0.0 {
                    trips.push((rng.usize_in(0, rows), rng.usize_in(0, cols), v));
                }
            }
            let mut csr =
                CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, trips).unwrap());
            let cfg = CellConfig {
                num_partitions: rng.usize_in(1, 5),
                max_widths: if rng.bernoulli(0.5) {
                    Some(vec![1 << rng.usize_in(0, 4)])
                } else {
                    None
                },
                block_nnz_multiple: 4,
                uniform_block_nnz: rng.bernoulli(0.8),
            };
            let mut cell = build_cell(&csr, &cfg).unwrap();
            for step in 0..6 {
                let mut updates = Vec::new();
                for _ in 0..rng.usize_in(1, 5) {
                    let r = rng.usize_in(0, rows);
                    let c = rng.usize_in(0, cols);
                    if updates
                        .iter()
                        .any(|u: &EdgeUpdate<f64>| u.coord() == (r, c))
                    {
                        continue;
                    }
                    let present = csr.row_cols(r).binary_search(&(c as Index)).is_ok();
                    updates.push(match (present, rng.bernoulli(0.5)) {
                        (true, true) => EdgeUpdate::Delete { row: r, col: c },
                        (true, false) => EdgeUpdate::SetValue {
                            row: r,
                            col: c,
                            value: 0.5,
                        },
                        (false, _) => EdgeUpdate::Insert {
                            row: r,
                            col: c,
                            value: -0.5,
                        },
                    });
                }
                csr = apply(&mut cell, &csr, &updates);
                assert_matches_rebuild(&cell, &csr, &cfg, &format!("trial {trial} step {step}"));
            }
        }
    }
}
