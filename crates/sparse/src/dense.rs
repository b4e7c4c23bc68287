//! Row-major dense matrix used as the `B` and `C` operands of SpMM.

use crate::error::SparseError;
use crate::rng::Pcg32;
use crate::scalar::Scalar;
use crate::Result;

/// A row-major dense matrix.
///
/// Row-major layout matches how SpMM kernels on GPUs access the dense
/// operand `B`: a warp reads a contiguous span of one row, which the
/// simulator's coalescing model rewards, exactly as real hardware does.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Build from a row-major vector; errors if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::InvalidFormat(format!(
                "dense data length {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Matrix with IID uniform values in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, rng: &mut Pcg32) -> Self {
        Self::from_fn(rows, cols, |_, _| T::from_f64(rng.f64_in(-1.0, 1.0)))
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element accessor (debug-checked).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor (debug-checked).
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }

    /// Set one element.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        *self.get_mut(i, j) = v;
    }

    /// Contiguous row slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable contiguous row slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Whole backing slice in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Whole mutable backing slice in row-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Memory footprint of the value payload in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Element-wise approximate equality with tolerance `tol`
    /// (relative/absolute hybrid, see [`Scalar::approx_eq`]).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Dense-dense product, a test reference for residual checks.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(SparseError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == T::ZERO {
                    continue;
                }
                let brow = rhs.row(k);
                let orow = out.row_mut(i);
                for j in 0..brow.len() {
                    orow[j] += a * brow[j];
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::<f64>::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.memory_bytes(), 3 * 4 * 8);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f32; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f32; 4]).is_ok());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = DenseMatrix::<f32>::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        *m.get_mut(1, 0) = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
    }

    #[test]
    fn random_in_range_and_deterministic() {
        let mut r1 = Pcg32::seed_from_u64(11);
        let mut r2 = Pcg32::seed_from_u64(11);
        let a = DenseMatrix::<f64>::random(5, 5, &mut r1);
        let b = DenseMatrix::<f64>::random(5, 5, &mut r2);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn matmul_identity() {
        let i2 = DenseMatrix::<f64>::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let m = DenseMatrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64 + 1.0);
        let p = i2.matmul(&m).unwrap();
        assert!(p.approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        let b = DenseMatrix::<f64>::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }
}
