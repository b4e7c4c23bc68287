//! Compressed Sparse Row (CSR): the fixed format used by cuSPARSE, Sputnik,
//! dgSPARSE and TACO in the paper's evaluation, and the input from which
//! every composable format is built.

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{Index, Result};

/// A sparse matrix in CSR form.
///
/// Invariants: `row_ptr` has `rows + 1` monotonically non-decreasing
/// entries with `row_ptr[0] == 0` and `row_ptr[rows] == nnz`; column
/// indices are strictly increasing within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_ind: Vec<Index>,
    values: Vec<T>,
}

/// Check every CSR structural invariant over raw arrays: `row_ptr` shape
/// and monotonicity, `col_ind`/`values` length agreement, in-range and
/// strictly increasing column indices per row. This is the single
/// validator behind [`CsrMatrix::from_raw`] and [`CsrMatrix::validate`],
/// so a payload accepted by one is accepted by the other.
///
/// A valid payload is accepted by [`structure_holds`], a few whole-array
/// folds; only a payload that fails them pays the per-row walk, which
/// finds and reports the first defect.
fn validate_parts<T>(
    rows: usize,
    cols: usize,
    row_ptr: &[usize],
    col_ind: &[Index],
    values: &[T],
) -> Result<()> {
    validate_lengths(rows, row_ptr, col_ind, values)?;
    if structure_holds(cols, row_ptr, col_ind) {
        return Ok(());
    }
    validate_rows(rows, cols, row_ptr, col_ind)
}

/// The O(1) framing checks: array lengths and the `row_ptr` end points.
fn validate_lengths<T>(
    rows: usize,
    row_ptr: &[usize],
    col_ind: &[Index],
    values: &[T],
) -> Result<()> {
    if row_ptr.len() != rows + 1 {
        return Err(SparseError::InvalidFormat(format!(
            "row_ptr length {} != rows + 1 = {}",
            row_ptr.len(),
            rows + 1
        )));
    }
    if row_ptr[0] != 0 {
        return Err(SparseError::InvalidFormat("row_ptr[0] != 0".into()));
    }
    if col_ind.len() != values.len() {
        return Err(SparseError::InvalidFormat(format!(
            "col_ind length {} != values length {}",
            col_ind.len(),
            values.len()
        )));
    }
    if *row_ptr.last().expect("non-empty row_ptr") != col_ind.len() {
        return Err(SparseError::InvalidFormat(format!(
            "row_ptr[rows] = {} != nnz = {}",
            row_ptr[rows],
            col_ind.len()
        )));
    }
    Ok(())
}

/// Whole-array form of the per-row invariants, for arrays whose lengths
/// and end points [`validate_lengths`] accepted: `row_ptr` is monotone
/// (so, ending at nnz, in bounds), every non-ascending neighbour pair in
/// `col_ind` straddles the start of a non-empty row (so columns strictly
/// increase within each row), and the largest column is below `cols`.
/// Equivalent to [`validate_rows`] returning `Ok`.
///
/// `col_ind` is read once, in cache-sized chunks: each chunk's
/// neighbour count and maximum are branch-free folds, and the row starts
/// falling inside the chunk are checked while it is still in cache.
fn structure_holds(cols: usize, row_ptr: &[usize], col_ind: &[Index]) -> bool {
    const CHUNK: usize = 4096;
    let decreasing = row_ptr
        .iter()
        .zip(&row_ptr[1..])
        .map(|(a, b)| usize::from(a > b))
        .sum::<usize>();
    if decreasing != 0 {
        return false;
    }
    let Some(&last) = col_ind.last() else {
        return true;
    };
    let (mut non_ascending, mut at_row_starts, mut max_col) = (0usize, 0usize, last);
    let mut row = 0; // next row whose start is still to be checked
    let mut lo = 0;
    while lo + 1 < col_ind.len() {
        // Neighbour pairs (k, k + 1) for k in lo..hi.
        let hi = (lo + CHUNK).min(col_ind.len() - 1);
        let (mut n, mut m) = (0u32, 0);
        for (&a, &b) in col_ind[lo..hi].iter().zip(&col_ind[lo + 1..=hi]) {
            n += u32::from(a >= b);
            m = m.max(a);
        }
        non_ascending += n as usize;
        max_col = max_col.max(m);
        while row + 1 < row_ptr.len() && row_ptr[row] <= hi {
            let (s, e) = (row_ptr[row], row_ptr[row + 1]);
            if s > 0 && s < e {
                at_row_starts += usize::from(col_ind[s - 1] >= col_ind[s]);
            }
            row += 1;
        }
        lo = hi;
    }
    non_ascending == at_row_starts && (max_col as usize) < cols
}

/// The per-row structural walk: reports the first defect with its row.
fn validate_rows(rows: usize, cols: usize, row_ptr: &[usize], col_ind: &[Index]) -> Result<()> {
    for i in 0..rows {
        if row_ptr[i] > row_ptr[i + 1] {
            return Err(SparseError::InvalidFormat(format!(
                "row_ptr not monotone at row {i}"
            )));
        }
        // A monotone interior entry can still exceed the (already
        // checked) final entry only via intermediate overshoot, which the
        // pairwise check above catches; bound-check anyway so a hostile
        // row_ptr can never index past col_ind.
        if row_ptr[i + 1] > col_ind.len() {
            return Err(SparseError::InvalidFormat(format!(
                "row_ptr[{}] = {} exceeds nnz = {}",
                i + 1,
                row_ptr[i + 1],
                col_ind.len()
            )));
        }
        let span = &col_ind[row_ptr[i]..row_ptr[i + 1]];
        for w in span.windows(2) {
            if w[0] >= w[1] {
                return Err(SparseError::InvalidFormat(format!(
                    "column indices not strictly increasing in row {i}"
                )));
            }
        }
        if let Some(&last) = span.last() {
            if last as usize >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    index: (i, last as usize),
                    shape: (rows, cols),
                });
            }
        }
    }
    Ok(())
}

/// The per-row value walk: reports the first non-finite value with its
/// coordinate.
fn validate_finite_rows<T: Scalar>(
    row_ptr: &[usize],
    col_ind: &[Index],
    values: &[T],
) -> Result<()> {
    for i in 0..row_ptr.len() - 1 {
        let cols = &col_ind[row_ptr[i]..row_ptr[i + 1]];
        for (k, &v) in values[row_ptr[i]..row_ptr[i + 1]].iter().enumerate() {
            if !v.is_finite() {
                return Err(SparseError::NonFiniteValue {
                    index: (i, cols[k] as usize),
                });
            }
        }
    }
    Ok(())
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build from raw arrays, validating every invariant.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_ind: Vec<Index>,
        values: Vec<T>,
    ) -> Result<Self> {
        validate_parts(rows, cols, &row_ptr, &col_ind, &values)?;
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_ind,
            values,
        })
    }

    /// Build from raw arrays **without** validating any invariant.
    ///
    /// Exists for the fault-injection and fuzzing layers, which need to
    /// materialize deliberately malformed payloads and prove the serving
    /// stack rejects them with a typed error. Production ingestion paths
    /// must use [`CsrMatrix::from_raw`] (or call [`CsrMatrix::validate`]
    /// before any kernel sees the matrix): every accessor and kernel
    /// assumes the invariants hold.
    pub fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_ind: Vec<Index>,
        values: Vec<T>,
    ) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_ind,
            values,
        }
    }

    /// Re-check every structural invariant on an existing matrix: the
    /// serving layer's ingress gate for untrusted payloads (which may
    /// have been produced by [`CsrMatrix::from_raw_unchecked`] or a buggy
    /// upstream producer). `Ok(())` means every accessor and kernel in
    /// the workspace can execute the matrix without panicking.
    pub fn validate(&self) -> Result<()> {
        validate_parts(
            self.rows,
            self.cols,
            &self.row_ptr,
            &self.col_ind,
            &self.values,
        )
    }

    /// [`CsrMatrix::validate`] plus the strict value policy: every stored
    /// value must be finite (no NaN, no ±Inf). The serving layer rejects
    /// non-finite payloads by default — a NaN silently poisons every
    /// accumulator it touches, which is a wrong-answer bug, not a crash.
    pub fn validate_finite(&self) -> Result<()> {
        self.validate()?;
        // Counted in 32-bit lanes per chunk, so the fold vectorizes; the
        // per-row walk locates a defect only when one exists.
        let non_finite = self
            .values
            .chunks(4096)
            .map(|c| c.iter().map(|v| u32::from(!v.is_finite())).sum::<u32>() as usize)
            .sum::<usize>();
        if non_finite == 0 {
            return Ok(());
        }
        validate_finite_rows(&self.row_ptr, &self.col_ind, &self.values)
    }

    /// Convert from COO (already sorted and deduplicated).
    pub fn from_coo(coo: &CooMatrix<T>) -> Self {
        let rows = coo.rows();
        let mut row_ptr = vec![0usize; rows + 1];
        for &r in coo.row_indices() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_ind: coo.col_indices().to_vec(),
            values: coo.values().to_vec(),
        }
    }

    /// Convert back to COO.
    pub fn to_coo(&self) -> CooMatrix<T> {
        CooMatrix::from_triplets(self.rows, self.cols, self.iter())
            .expect("valid CSR converts to valid COO")
    }

    /// An empty matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_ind: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density `nnz / (rows*cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Row pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_ind(&self) -> &[Index] {
        &self.col_ind
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Length (number of stored entries) of row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Index] {
        &self.col_ind[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[T] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Iterate `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |i| {
            self.row_cols(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Memory footprint: row pointers (stored as 4-byte ints on GPUs),
    /// column indices, values.
    pub fn memory_bytes(&self) -> usize {
        (self.rows + 1) * std::mem::size_of::<Index>()
            + self.nnz() * (std::mem::size_of::<Index>() + std::mem::size_of::<T>())
    }

    /// Materialize as dense (test helper).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            *d.get_mut(r, c) += v;
        }
        d
    }

    /// Reference sequential SpMM: `C = A * B`. Used as the ground truth all
    /// simulated kernels are checked against.
    pub fn spmm_reference(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        if self.cols != b.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spmm",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let mut c = DenseMatrix::zeros(self.rows, b.cols());
        for i in 0..self.rows {
            let cols = self.row_cols(i);
            let vals = self.row_values(i);
            let crow = c.row_mut(i);
            for (&k, &a) in cols.iter().zip(vals) {
                let brow = b.row(k as usize);
                for j in 0..brow.len() {
                    crow[j] += a * brow[j];
                }
            }
        }
        Ok(c)
    }

    /// Per-row non-zero counts.
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.rows).map(|i| self.row_len(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_every_constructor_output() {
        let m = sample();
        m.validate().unwrap();
        m.validate_finite().unwrap();
        CsrMatrix::<f64>::empty(0, 0).validate_finite().unwrap();
        CsrMatrix::<f64>::empty(5, 0).validate_finite().unwrap();
    }

    #[test]
    fn validate_rejects_each_corruption() {
        let m = sample();
        let (rp, ci, vals) = (
            m.row_ptr().to_vec(),
            m.col_ind().to_vec(),
            m.values().to_vec(),
        );

        // Non-monotone row_ptr (decrease between rows 1 and 2).
        let mut bad = rp.clone();
        bad[2] = bad[1] - 1;
        let c = CsrMatrix::from_raw_unchecked(3, 4, bad, ci.clone(), vals.clone());
        assert!(matches!(c.validate(), Err(SparseError::InvalidFormat(_))));

        // Interior row_ptr overshoot past nnz (the hostile slice-panic
        // case): monotone up to the overshoot, tail entry still == nnz.
        let c = CsrMatrix::from_raw_unchecked(3, 4, vec![0, 100, 4, 4], ci.clone(), vals.clone());
        assert!(matches!(c.validate(), Err(SparseError::InvalidFormat(_))));

        // Out-of-range column index.
        let mut bad = ci.clone();
        bad[0] = 99;
        let c = CsrMatrix::from_raw_unchecked(3, 4, rp.clone(), bad, vals.clone());
        assert!(c.validate().is_err());

        // Truncated values.
        let mut bad = vals.clone();
        bad.pop();
        let c = CsrMatrix::from_raw_unchecked(3, 4, rp.clone(), ci.clone(), bad);
        assert!(matches!(c.validate(), Err(SparseError::InvalidFormat(_))));

        // row_ptr tail disagrees with nnz.
        let mut bad = rp.clone();
        *bad.last_mut().unwrap() += 1;
        let c = CsrMatrix::from_raw_unchecked(3, 4, bad, ci.clone(), vals.clone());
        assert!(matches!(c.validate(), Err(SparseError::InvalidFormat(_))));

        // Structurally valid but non-finite value: validate passes, the
        // strict policy rejects with the offending coordinate.
        let mut bad = vals.clone();
        bad[2] = f64::NAN;
        let c = CsrMatrix::from_raw_unchecked(3, 4, rp, ci, bad);
        c.validate().unwrap();
        assert!(matches!(
            c.validate_finite(),
            Err(SparseError::NonFiniteValue { index: (1, 2) })
        ));
    }

    /// What `validate` / `validate_finite` returned before the
    /// whole-array checks: the per-row walks, run unconditionally.
    fn by_rows(m: &CsrMatrix<f64>, finite: bool) -> Result<()> {
        let (rp, ci, vals) = (m.row_ptr(), m.col_ind(), m.values());
        validate_lengths(m.rows(), rp, ci, vals)?;
        validate_rows(m.rows(), m.cols(), rp, ci)?;
        if finite {
            validate_finite_rows(rp, ci, vals)?;
        }
        Ok(())
    }

    #[test]
    fn whole_array_checks_return_exactly_what_the_row_walk_returns() {
        // 8 x 10 with empty rows at the start, between rows and at the
        // end, so row-boundary neighbours straddle empty rows.
        let coo = CooMatrix::from_triplets(
            8,
            10,
            vec![
                (1, 1, 1.0),
                (1, 4, 2.0),
                (1, 7, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (5, 3, 6.0),
                (5, 5, 7.0),
                (5, 8, 8.0),
                (5, 9, 9.0),
                (6, 6, 10.0),
            ],
        )
        .unwrap();
        let m = CsrMatrix::from_coo(&coo);
        let (rp, ci, vals) = (
            m.row_ptr().to_vec(),
            m.col_ind().to_vec(),
            m.values().to_vec(),
        );
        let nnz = ci.len();
        let mut cases = vec![m.clone()];
        // Row pointers: non-monotone steps, interior overshoot past nnz,
        // and every end-point defect.
        for i in 0..rp.len() {
            for p in [0, rp[i].saturating_sub(1), rp[i] + 1, nnz, nnz + 1, nnz + 5] {
                let mut bad = rp.clone();
                bad[i] = p;
                cases.push(CsrMatrix::from_raw_unchecked(
                    8,
                    10,
                    bad,
                    ci.clone(),
                    vals.clone(),
                ));
            }
        }
        // Columns: equal or descending neighbours inside a row and at a
        // row boundary (legal there, across empty rows too), and columns
        // at or past `cols`, at every slot.
        for k in 0..nnz {
            let near = [ci[k].saturating_sub(1), ci[k] + 1];
            let neighbours = [k.checked_sub(1).map(|j| ci[j]), ci.get(k + 1).copied()];
            for c in near
                .into_iter()
                .chain(neighbours.into_iter().flatten())
                .chain([0, 9, 10, 11, Index::MAX])
            {
                let mut bad = ci.clone();
                bad[k] = c;
                cases.push(CsrMatrix::from_raw_unchecked(
                    8,
                    10,
                    rp.clone(),
                    bad,
                    vals.clone(),
                ));
            }
        }
        // Values: NaN and +-Inf at the first, a middle and the last slot
        // (and every other).
        for k in 0..nnz {
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bad = vals.clone();
                bad[k] = v;
                cases.push(CsrMatrix::from_raw_unchecked(
                    8,
                    10,
                    rp.clone(),
                    ci.clone(),
                    bad,
                ));
            }
        }
        let mut rejected = 0;
        for (i, c) in cases.iter().enumerate() {
            let want = by_rows(c, false);
            rejected += usize::from(want.is_err());
            assert_eq!(
                format!("{:?}", c.validate()),
                format!("{want:?}"),
                "case {i}: {c:?}"
            );
            assert_eq!(
                format!("{:?}", c.validate_finite()),
                format!("{:?}", by_rows(c, true)),
                "case {i} (finite): {c:?}"
            );
        }
        assert!(
            rejected > cases.len() / 2,
            "the mutations must mostly be defects"
        );
    }

    #[test]
    fn from_raw_rejects_interior_overshoot_without_panicking() {
        // Regression: row_ptr [0, 5, 2] with nnz = 2 passes the tail and
        // per-pair monotonicity checks for row 0 but used to panic on the
        // col_ind slice before the row-1 check could fire.
        let got = CsrMatrix::<f64>::from_raw(2, 4, vec![0, 5, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(got, Err(SparseError::InvalidFormat(_))));
    }

    fn sample() -> CsrMatrix<f64> {
        // [1 0 0 2]
        // [0 0 -1 0]
        // [0 3 0 0]
        let coo = CooMatrix::from_triplets(
            3,
            4,
            vec![(0, 0, 1.0), (0, 3, 2.0), (1, 2, -1.0), (2, 1, 3.0)],
        )
        .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_correct_pointers() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(m.col_ind(), &[0, 3, 2, 1]);
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(1), 1);
        assert_eq!(m.row_cols(2), &[1]);
        assert_eq!(m.row_values(0), &[1.0, 2.0]);
    }

    #[test]
    fn coo_round_trip() {
        let m = sample();
        let coo = m.to_coo();
        let back = CsrMatrix::from_coo(&coo);
        assert_eq!(m, back);
    }

    #[test]
    fn from_raw_validates() {
        // Good.
        assert!(
            CsrMatrix::<f64>::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok()
        );
        // Bad row_ptr length.
        assert!(CsrMatrix::<f64>::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Non-monotone.
        assert!(
            CsrMatrix::<f64>::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
        // Unsorted columns in a row.
        assert!(CsrMatrix::<f64>::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::<f64>::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // nnz mismatch.
        assert!(CsrMatrix::<f64>::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn spmm_reference_matches_dense() {
        let m = sample();
        let b = DenseMatrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 - 1.5);
        let c = m.spmm_reference(&b).unwrap();
        let c_dense = m.to_dense().matmul(&b).unwrap();
        assert!(c.approx_eq(&c_dense, 1e-12));
    }

    #[test]
    fn spmm_shape_error() {
        let m = sample();
        let b = DenseMatrix::<f64>::zeros(3, 3);
        assert!(m.spmm_reference(&b).is_err());
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CsrMatrix::<f64>::empty(3, 3);
        assert_eq!(m.nnz(), 0);
        let b = DenseMatrix::zeros(3, 2);
        let c = m.spmm_reference(&b).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_lengths_and_density() {
        let m = sample();
        assert_eq!(m.row_lengths(), vec![2, 1, 1]);
        assert!((m.density() - 4.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn memory_bytes_formula() {
        let m = sample();
        // (3+1)*4 + 4*(4+8)
        assert_eq!(m.memory_bytes(), 16 + 48);
    }
}
