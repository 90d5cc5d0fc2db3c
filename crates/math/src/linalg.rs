#![allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithms

//! A small dense-matrix toolkit: just enough linear algebra (Cholesky
//! factorization and triangular solves) to implement Gaussian-process
//! regression without an external BLAS.

use std::error::Error;
use std::fmt;

/// Error returned when a Cholesky factorization fails because the matrix is
/// not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CholeskyError {
    /// The pivot index at which a non-positive diagonal was encountered.
    pub pivot: usize,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite (non-positive pivot at index {})",
            self.pivot
        )
    }
}

impl Error for CholeskyError {}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use asha_math::Matrix;
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = a.cholesky()?;
/// let x = chol.solve(&[2.0, 1.0]);
/// // Verify A x = b.
/// let b = a.matvec(&x);
/// assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), asha_math::CholeskyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[cfg(test)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Cholesky factorization `A = L L^T` of a symmetric positive-definite
    /// matrix, returning the lower-triangular factor wrapped in a solver.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError`] when the matrix is not numerically positive
    /// definite; callers typically retry after increasing the diagonal
    /// jitter.
    pub fn cholesky(&self) -> Result<Cholesky, CholeskyError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(CholeskyError { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// A lower-triangular Cholesky factor with solve routines.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// The lower-triangular factor `L`.
    #[cfg(test)]
    pub(crate) fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solve `L y = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor size.
    pub(crate) fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "dimension mismatch in solve_lower");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solve `L^T x = y` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` does not match the factor size.
    pub(crate) fn solve_upper_transpose(&self, y: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(y.len(), n, "dimension mismatch in solve_upper_transpose");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solve `A x = b` where `A = L L^T`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper_transpose(&self.solve_lower(b))
    }

    /// Log-determinant of `A`: `2 * sum(log diag(L))`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn cholesky_known_factor() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let chol = spd3().cholesky().unwrap();
        let l = chol.factor();
        let expected = [[2.0, 0.0, 0.0], [6.0, 1.0, 0.0], [-8.0, 5.0, 3.0]];
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (l[(i, j)] - expected[i][j]).abs() < 1e-12,
                    "L[{i}][{j}] = {}",
                    l[(i, j)]
                );
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd3();
        let chol = a.cholesky().unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = chol.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn log_det_matches() {
        // det = (2*1*3)^2 = 36, log_det = ln(36).
        let chol = spd3().cholesky().unwrap();
        assert!((chol.log_det() - 36f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn non_spd_is_rejected() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // indefinite
        let err = m.cholesky().unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn identity_solves_trivially() {
        let chol = Matrix::identity(4).cholesky().unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(chol.solve(&b), b.to_vec());
        assert_eq!(chol.log_det(), 0.0);
    }

    #[test]
    fn from_fn_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Matrix::zeros(2, 2).matvec(&[1.0]);
    }
}
