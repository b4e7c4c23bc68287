//! Edge-delta updates on CSR matrices.
//!
//! Graph serving sees continuous edge churn: insertions, deletions and
//! weight changes. [`EdgeUpdate`] is the wire form of one such change and
//! [`CsrMatrix::apply_updates`] applies a *batch* of them atomically —
//! the whole batch is validated against the current matrix first, and
//! only then is a new matrix produced, so a rejected batch leaves
//! nothing half-applied. The input matrix is never mutated; callers
//! (the serving layer's handle epochs) swap the result in under their
//! own synchronization.
//!
//! Validation is strict and every failure is a typed [`SparseError`]:
//!
//! * coordinates must be in bounds ([`SparseError::IndexOutOfBounds`]);
//! * inserted / assigned values must be finite and non-zero
//!   ([`SparseError::NonFiniteValue`], [`SparseError::InvalidFormat`]) —
//!   a zero insert would silently desynchronize `nnz` from the stored
//!   pattern;
//! * a batch may touch each `(row, col)` at most once
//!   ([`SparseError::DuplicateUpdate`]) — batches are unordered sets, so
//!   two updates on one coordinate are ambiguous;
//! * inserts require the entry to be absent, deletes and value changes
//!   require it to be present ([`SparseError::UpdateConflict`]).

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{Index, Result};

/// One edge-level change to a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate<T> {
    /// Add a new stored entry at `(row, col)`; the slot must be absent.
    Insert {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
        /// New value (finite, non-zero).
        value: T,
    },
    /// Remove the stored entry at `(row, col)`; the slot must be present.
    Delete {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
    },
    /// Replace the value of the stored entry at `(row, col)`; the slot
    /// must be present. The pattern is unchanged.
    SetValue {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
        /// Replacement value (finite, non-zero).
        value: T,
    },
}

impl<T: Scalar> EdgeUpdate<T> {
    /// The `(row, col)` coordinate this update targets.
    pub fn coord(&self) -> (usize, usize) {
        match *self {
            EdgeUpdate::Insert { row, col, .. }
            | EdgeUpdate::Delete { row, col }
            | EdgeUpdate::SetValue { row, col, .. } => (row, col),
        }
    }
}

/// Internal per-coordinate operation after validation.
#[derive(Clone, Copy)]
enum Op<T> {
    Insert(T),
    Delete,
    Set(T),
}

/// Validate `updates` against `csr` without applying anything.
///
/// Checks bounds, value finiteness/non-zeroness, batch uniqueness, and
/// the pattern preconditions (insert ⇒ absent, delete / set ⇒ present).
/// On success the batch is guaranteed to apply cleanly.
pub fn validate_updates<T: Scalar>(csr: &CsrMatrix<T>, updates: &[EdgeUpdate<T>]) -> Result<()> {
    let shape = csr.shape();
    let mut seen: Vec<(usize, usize)> = Vec::with_capacity(updates.len());
    for u in updates {
        let (row, col) = u.coord();
        if row >= shape.0 || col >= shape.1 {
            return Err(SparseError::IndexOutOfBounds {
                index: (row, col),
                shape,
            });
        }
        match *u {
            EdgeUpdate::Insert { value, .. } | EdgeUpdate::SetValue { value, .. } => {
                if !value.is_finite() {
                    return Err(SparseError::NonFiniteValue { index: (row, col) });
                }
                if value == T::ZERO {
                    return Err(SparseError::InvalidFormat(format!(
                        "explicit zero update at ({row}, {col}): delete the entry instead"
                    )));
                }
            }
            EdgeUpdate::Delete { .. } => {}
        }
        let present = csr.row_cols(row).binary_search(&(col as Index)).is_ok();
        match *u {
            EdgeUpdate::Insert { .. } if present => {
                return Err(SparseError::UpdateConflict {
                    index: (row, col),
                    expected: "insert requires the entry to be absent",
                });
            }
            EdgeUpdate::Delete { .. } if !present => {
                return Err(SparseError::UpdateConflict {
                    index: (row, col),
                    expected: "delete requires the entry to be present",
                });
            }
            EdgeUpdate::SetValue { .. } if !present => {
                return Err(SparseError::UpdateConflict {
                    index: (row, col),
                    expected: "set-value requires the entry to be present",
                });
            }
            _ => {}
        }
        seen.push((row, col));
    }
    seen.sort_unstable();
    if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
        return Err(SparseError::DuplicateUpdate { index: w[0] });
    }
    Ok(())
}

impl<T: Scalar> CsrMatrix<T> {
    /// Apply a batch of edge updates, returning the updated matrix.
    ///
    /// The batch is atomic: it is validated in full first (see
    /// [`validate_updates`]) and an `Err` leaves `self` untouched with
    /// nothing half-applied. `self` is never mutated either way — the
    /// result is a freshly built matrix, so callers can publish it with
    /// a pointer swap.
    pub fn apply_updates(&self, updates: &[EdgeUpdate<T>]) -> Result<CsrMatrix<T>> {
        validate_updates(self, updates)?;
        // Sorted (row, col, op) stream for a single merge pass.
        let mut ops: Vec<(usize, usize, Op<T>)> = updates
            .iter()
            .map(|u| {
                let (r, c) = u.coord();
                let op = match *u {
                    EdgeUpdate::Insert { value, .. } => Op::Insert(value),
                    EdgeUpdate::Delete { .. } => Op::Delete,
                    EdgeUpdate::SetValue { value, .. } => Op::Set(value),
                };
                (r, c, op)
            })
            .collect();
        ops.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let inserts = ops
            .iter()
            .filter(|(_, _, op)| matches!(op, Op::Insert(_)))
            .count();
        let deletes = ops
            .iter()
            .filter(|(_, _, op)| matches!(op, Op::Delete))
            .count();
        let new_nnz = self.nnz() + inserts - deletes;
        let (rows, cols) = self.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_ind: Vec<Index> = Vec::with_capacity(new_nnz);
        let mut values: Vec<T> = Vec::with_capacity(new_nnz);
        row_ptr.push(0usize);

        // Untouched rows move in runs: one bulk copy of the run's entries
        // and its row pointers shifted by the entries gained or lost so
        // far. Only touched rows go through the two-pointer merge.
        let mut run = 0; // first row of the pending untouched run
        let mut k = 0; // cursor into `ops`
        while k < ops.len() {
            let r = ops[k].0;
            let row_ops_start = k;
            while k < ops.len() && ops[k].0 == r {
                k += 1;
            }
            copy_run(self, run..r, &mut row_ptr, &mut col_ind, &mut values);
            merge_row(
                self.row_cols(r),
                self.row_values(r),
                &ops[row_ops_start..k],
                &mut col_ind,
                &mut values,
            );
            row_ptr.push(col_ind.len());
            run = r + 1;
        }
        copy_run(self, run..rows, &mut row_ptr, &mut col_ind, &mut values);
        debug_assert_eq!(col_ind.len(), new_nnz);
        Ok(CsrMatrix::from_raw_unchecked(
            rows, cols, row_ptr, col_ind, values,
        ))
    }
}

/// Append the untouched rows `rows` unchanged: their entries in one
/// copy per array, their row pointers shifted to the output position.
fn copy_run<T: Scalar>(
    src: &CsrMatrix<T>,
    rows: std::ops::Range<usize>,
    row_ptr: &mut Vec<usize>,
    col_ind: &mut Vec<Index>,
    values: &mut Vec<T>,
) {
    if rows.is_empty() {
        return;
    }
    let old_ptr = src.row_ptr();
    let (lo, hi) = (old_ptr[rows.start], old_ptr[rows.end]);
    let base = col_ind.len();
    col_ind.extend_from_slice(&src.col_ind()[lo..hi]);
    values.extend_from_slice(&src.values()[lo..hi]);
    row_ptr.extend(
        old_ptr[rows.start + 1..=rows.end]
            .iter()
            .map(|&p| p - lo + base),
    );
}

/// Merge one existing row with its sorted, validated ops: the old
/// entries between consecutive ops move with one copy per array.
fn merge_row<T: Scalar>(
    old_cols: &[Index],
    old_vals: &[T],
    row_ops: &[(usize, usize, Op<T>)],
    col_ind: &mut Vec<Index>,
    values: &mut Vec<T>,
) {
    let mut i = 0;
    for &(_, uc, op) in row_ops {
        // Old entries left of the op's column pass through in one copy.
        let below = i + old_cols[i..].partition_point(|&c| (c as usize) < uc);
        col_ind.extend_from_slice(&old_cols[i..below]);
        values.extend_from_slice(&old_vals[i..below]);
        i = below;
        let present = old_cols.get(i).is_some_and(|&c| c as usize == uc);
        match (op, present) {
            (Op::Delete, true) => i += 1,
            (Op::Set(v), true) => {
                col_ind.push(old_cols[i]);
                values.push(v);
                i += 1;
            }
            (Op::Insert(v), false) => {
                col_ind.push(uc as Index);
                values.push(v);
            }
            // Validation rejected inserts on present entries and
            // delete/set on absent ones.
            _ => unreachable!("validated batch"),
        }
    }
    col_ind.extend_from_slice(&old_cols[i..]);
    values.extend_from_slice(&old_vals[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        let coo = CooMatrix::from_triplets(
            4,
            6,
            vec![
                (0, 1, 1.0),
                (0, 4, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (2, 3, 5.0),
                (2, 5, 6.0),
            ],
        )
        .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn mixed_batch_applies_atomically() {
        let a = sample();
        let b = a
            .apply_updates(&[
                EdgeUpdate::Insert {
                    row: 3,
                    col: 0,
                    value: 7.0,
                },
                EdgeUpdate::Delete { row: 0, col: 4 },
                EdgeUpdate::SetValue {
                    row: 2,
                    col: 3,
                    value: -5.0,
                },
                EdgeUpdate::Insert {
                    row: 0,
                    col: 0,
                    value: 8.0,
                },
            ])
            .unwrap();
        assert_eq!(b.nnz(), 7);
        assert_eq!(b.row_cols(0), &[0, 1]);
        assert_eq!(b.row_values(0), &[8.0, 1.0]);
        assert_eq!(b.row_values(2), &[4.0, -5.0, 6.0]);
        assert_eq!(b.row_cols(3), &[0]);
        b.validate_finite().unwrap();
        // The source is untouched.
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.row_cols(0), &[1, 4]);
    }

    #[test]
    fn delete_to_empty_row_and_refill() {
        let a = sample();
        let b = a
            .apply_updates(&[EdgeUpdate::Delete { row: 1, col: 0 }])
            .unwrap();
        assert_eq!(b.row_len(1), 0);
        b.validate_finite().unwrap();
        let c = b
            .apply_updates(&[EdgeUpdate::Insert {
                row: 1,
                col: 5,
                value: 9.0,
            }])
            .unwrap();
        assert_eq!(c.row_cols(1), &[5]);
    }

    #[test]
    fn out_of_range_is_typed() {
        let a = sample();
        let err = a
            .apply_updates(&[EdgeUpdate::Delete { row: 9, col: 0 }])
            .unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "{err}");
        let err = a
            .apply_updates(&[EdgeUpdate::Insert {
                row: 0,
                col: 6,
                value: 1.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "{err}");
    }

    #[test]
    fn duplicate_coordinate_is_typed() {
        let a = sample();
        let err = a
            .apply_updates(&[
                EdgeUpdate::SetValue {
                    row: 2,
                    col: 2,
                    value: 1.0,
                },
                EdgeUpdate::Delete { row: 2, col: 2 },
            ])
            .unwrap_err();
        assert!(
            matches!(err, SparseError::DuplicateUpdate { index: (2, 2) }),
            "{err}"
        );
    }

    #[test]
    fn pattern_preconditions_are_typed() {
        let a = sample();
        let err = a
            .apply_updates(&[EdgeUpdate::Insert {
                row: 0,
                col: 1,
                value: 1.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::UpdateConflict { .. }), "{err}");
        let err = a
            .apply_updates(&[EdgeUpdate::Delete { row: 0, col: 0 }])
            .unwrap_err();
        assert!(matches!(err, SparseError::UpdateConflict { .. }), "{err}");
        let err = a
            .apply_updates(&[EdgeUpdate::SetValue {
                row: 3,
                col: 3,
                value: 1.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::UpdateConflict { .. }), "{err}");
    }

    #[test]
    fn hostile_values_are_typed_and_nothing_is_applied() {
        let a = sample();
        for v in [f64::NAN, f64::INFINITY] {
            let err = a
                .apply_updates(&[
                    EdgeUpdate::Delete { row: 0, col: 1 },
                    EdgeUpdate::Insert {
                        row: 3,
                        col: 0,
                        value: v,
                    },
                ])
                .unwrap_err();
            assert!(matches!(err, SparseError::NonFiniteValue { .. }), "{err}");
        }
        let err = a
            .apply_updates(&[EdgeUpdate::SetValue {
                row: 0,
                col: 1,
                value: 0.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::InvalidFormat(_)), "{err}");
        // Atomicity: the passing prefix of a failed batch left no trace.
        assert_eq!(a.row_cols(0), &[1, 4]);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn empty_batch_is_identity() {
        let a = sample();
        let b = a.apply_updates(&[]).unwrap();
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_ind(), b.col_ind());
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn random_batches_match_coo_rebuild() {
        // Runs of untouched rows of every length (including none, and
        // the first and last rows), several ops on one row, and rows
        // emptied or filled from empty.
        let mut rng = crate::Pcg32::seed_from_u64(0xDE17A);
        for trial in 0..200 {
            let rows = rng.usize_in(1, 24);
            let cols = rng.usize_in(1, 24);
            let mut trips = Vec::new();
            for r in 0..rows {
                if rng.bernoulli(0.3) {
                    continue; // an empty row
                }
                for c in 0..cols {
                    if rng.bernoulli(0.3) {
                        trips.push((r, c, rng.f64_in(0.5, 1.5)));
                    }
                }
            }
            let a = CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, trips).unwrap());
            let mut want: std::collections::BTreeMap<(usize, usize), f64> =
                a.iter().map(|(r, c, v)| ((r, c), v)).collect();
            let mut batch = Vec::new();
            for r in 0..rows {
                if !rng.bernoulli(0.3) {
                    continue;
                }
                for c in 0..cols {
                    if !rng.bernoulli(0.4) {
                        continue;
                    }
                    let v = rng.f64_in(2.0, 3.0);
                    let (u, now) = match (want.contains_key(&(r, c)), rng.bernoulli(0.5)) {
                        (true, true) => (EdgeUpdate::Delete { row: r, col: c }, None),
                        (true, false) => (
                            EdgeUpdate::SetValue {
                                row: r,
                                col: c,
                                value: v,
                            },
                            Some(v),
                        ),
                        (false, _) => (
                            EdgeUpdate::Insert {
                                row: r,
                                col: c,
                                value: v,
                            },
                            Some(v),
                        ),
                    };
                    match now {
                        Some(v) => want.insert((r, c), v),
                        None => want.remove(&(r, c)),
                    };
                    batch.push(u);
                }
            }
            rng.shuffle(&mut batch);
            let b = a.apply_updates(&batch).unwrap();
            let trips: Vec<(usize, usize, f64)> =
                want.into_iter().map(|((r, c), v)| (r, c, v)).collect();
            let want = CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, trips).unwrap());
            assert_eq!(b.row_ptr(), want.row_ptr(), "trial {trial}");
            assert_eq!(b.col_ind(), want.col_ind(), "trial {trial}");
            let bits =
                |m: &CsrMatrix<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b), bits(&want), "trial {trial}");
        }
    }

    #[test]
    fn result_matches_coo_rebuild() {
        // Differential check: apply_updates equals rebuilding from
        // triplets with the same edits.
        let a = sample();
        let b = a
            .apply_updates(&[
                EdgeUpdate::Delete { row: 2, col: 3 },
                EdgeUpdate::Insert {
                    row: 1,
                    col: 4,
                    value: 2.5,
                },
            ])
            .unwrap();
        let mut trips: Vec<(usize, usize, f64)> =
            a.iter().filter(|&(r, c, _)| (r, c) != (2, 3)).collect();
        trips.push((1, 4, 2.5));
        let want = CsrMatrix::from_coo(&CooMatrix::from_triplets(4, 6, trips).unwrap());
        assert_eq!(b.row_ptr(), want.row_ptr());
        assert_eq!(b.col_ind(), want.col_ind());
        assert_eq!(b.values(), want.values());
    }
}
