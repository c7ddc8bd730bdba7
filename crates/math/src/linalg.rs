//! Minimal dense linear algebra: just enough to back the
//! Levenberg–Marquardt solver and polynomial least squares.
//!
//! Implements a small row-major matrix with LU decomposition (partial
//! pivoting) for solving the normal equations. Deliberately simple and
//! robust — the systems involved are tiny (≤ ~8 unknowns).

use crate::{MathError, Result};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows; all rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(MathError::EmptyInput("Matrix::from_rows"));
        }
        let cols = rows[0].len();
        for r in rows {
            if r.len() != cols {
                return Err(MathError::DimensionMismatch {
                    expected: cols,
                    got: r.len(),
                });
            }
        }
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                expected: self.cols,
                got: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Solves `A x = b` via LU decomposition with partial pivoting.
    ///
    /// `A` (self) must be square; consumed by value because the
    /// decomposition is done in place on a copy anyway.
    pub fn solve(mut self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.rows;
        if self.cols != n {
            return Err(MathError::InvalidParameter("solve on non-square matrix"));
        }
        if b.len() != n {
            return Err(MathError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivot: find the largest |entry| at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = self[(perm[col], col)].abs();
            for row in (col + 1)..n {
                let v = self[(perm[row], col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(MathError::SingularMatrix);
            }
            perm.swap(col, pivot_row);

            let pivot = self[(perm[col], col)];
            for row in (col + 1)..n {
                let factor = self[(perm[row], col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    let v = self[(perm[col], j)];
                    self[(perm[row], j)] -= factor * v;
                }
                x[perm[row]] -= factor * x[perm[col]];
            }
        }

        // Back substitution.
        let mut out = vec![0.0; n];
        for col in (0..n).rev() {
            let mut acc = x[perm[col]];
            for j in (col + 1)..n {
                acc -= self[(perm[col], j)] * out[j];
            }
            out[col] = acc / self[(perm[col], col)];
        }
        Ok(out)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(3);
        let x = a.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MathError::SingularMatrix));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let at = a.transpose();
        let p = at.matmul(&a).unwrap();
        // A^T A = [[10, 14], [14, 20]]
        assert_eq!(p[(0, 0)], 10.0);
        assert_eq!(p[(0, 1)], 14.0);
        assert_eq!(p[(1, 0)], 14.0);
        assert_eq!(p[(1, 1)], 20.0);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
        assert!(b.clone().solve(&[1.0]).is_err());
    }
}
