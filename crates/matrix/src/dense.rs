//! Owned column-major matrix storage.

use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};
use std::fmt;
use std::ops::{Index, IndexMut};

/// An owned, column-major, dense matrix over a [`Scalar`] element type
/// (`f64` by default).
///
/// Element `(i, j)` lives at `data[i + j * rows]`. Column-major order
/// matches the BLAS conventions the reproduced paper assumes and makes
/// column operations (the hot path of the Schur algorithm's generator
/// updates) contiguous.
///
/// ```
/// use bs_matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// let mut c = Matrix::zeros(2, 2);
/// bs_matrix::gemm(
///     1.0,
///     a.rf(), bs_matrix::Trans::No,
///     a.rf(), bs_matrix::Trans::Yes,
///     0.0,
///     c.mt(),
/// );
/// assert_eq!(c[(0, 0)], 5.0); // (A Aᵀ)₀₀ = 1 + 4
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from column-major data. Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Consume the matrix, yielding its column-major storage. The
    /// inverse of [`Matrix::from_col_major`]; lets a scratch arena
    /// recycle a matrix's buffer without copying.
    pub fn into_col_major(self) -> Vec<T> {
        self.data
    }

    /// Build from row-major data (convenient for literals in tests).
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        for row in rows {
            assert_eq!(row.len(), c, "ragged row lengths");
        }
        Matrix::from_fn(r, c, |i, j| rows[i][j])
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` iff the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow as an immutable view of the whole matrix.
    #[inline]
    pub fn rf(&self) -> MatRef<'_, T> {
        MatRef::from_parts(&self.data, self.rows, self.cols, self.rows)
    }

    /// Borrow as a mutable view of the whole matrix.
    #[inline]
    pub fn mt(&mut self) -> MatMut<'_, T> {
        MatMut::from_parts(&mut self.data, self.rows, self.cols, self.rows)
    }

    /// Immutable sub-view of `nrows x ncols` starting at `(row, col)`.
    #[inline]
    pub fn sub(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> MatRef<'_, T> {
        self.rf().sub(row, col, nrows, ncols)
    }

    /// Mutable sub-view of `nrows x ncols` starting at `(row, col)`.
    #[inline]
    pub fn sub_mut(&mut self, row: usize, col: usize, nrows: usize, ncols: usize) -> MatMut<'_, T> {
        self.mt().sub_move(row, col, nrows, ncols)
    }

    /// Contiguous column as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Contiguous column as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: T, other: &Matrix<T>) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
        crate::flops::add(2 * self.data.len() as u64);
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for a in &mut self.data {
            *a *= alpha;
        }
        crate::flops::add(self.data.len() as u64);
    }

    /// Maximum absolute difference with `other` (shape must match),
    /// reported in f64 regardless of element type.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// Elementwise conversion to another scalar type: the demotion /
    /// promotion step of the mixed-precision pipeline (each element
    /// goes through f64, which is exact for widening and
    /// round-to-nearest for narrowing).
    pub fn convert<U: Scalar>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Symmetrize in place: `A <- (A + Aᵀ) / 2`. Panics if not square.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        let half = T::from_f64(0.5);
        for j in 0..self.cols {
            for i in 0..j {
                let v = half * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i + j * self.rows]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let rmax = self.rows.min(8);
        let cmax = self.cols.min(8);
        for i in 0..rmax {
            write!(f, "  ")?;
            for j in 0..cmax {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if cmax < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if rmax < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z: Matrix = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i: Matrix = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_is_column_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(4, 3, |i, j| (i + 7 * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn col_slices() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i + j * 3) as f64);
        assert_eq!(m.col(1), &[3.0, 4.0, 5.0]);
        m.col_mut(0)[2] = -1.0;
        assert_eq!(m[(2, 0)], -1.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(1, 0)], 6.0);
        a.scale(0.5);
        assert_eq!(a[(0, 1)], 2.0);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[6.0, 3.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], m[(1, 0)]);
        assert_eq!(m[(0, 1)], 4.0);
    }

    #[test]
    #[should_panic]
    fn from_col_major_length_mismatch_panics() {
        let _ = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
