//! Dense symmetric positive-definite solvers.
//!
//! GPTQ needs the Cholesky factorization of the inverse Hessian, OWQ needs
//! the Hessian-diagonal sensitivities, and the constructed language model
//! fits its readout head by ridge regression — all of which reduce to SPD
//! factor/solve, implemented here in `f64` for stability.

use crate::Matrix;

/// Errors returned by the SPD solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not square.
    NotSquare,
    /// A non-positive pivot was encountered: the matrix is not positive
    /// definite (within floating-point tolerance).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// Dimension mismatch between the system matrix and right-hand side.
    ShapeMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare => write!(f, "matrix is not square"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::ShapeMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`, stored densely in
/// `f64`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element `L[r][c]` (zero above the diagonal).
    pub fn l(&self, r: usize, c: usize) -> f64 {
        if c > r {
            0.0
        } else {
            self.l[r * self.n + c]
        }
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    #[allow(clippy::needless_range_loop)] // triangular indexing is clearer explicit
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch);
        }
        let n = self.n;
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l[i * n + k] * y[k];
            }
            y[i] = acc / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in (i + 1)..n {
                acc -= self.l[k * n + i] * y[k];
            }
            y[i] = acc / self.l[i * n + i];
        }
        Ok(y)
    }
}

/// Computes the Cholesky factorization of a symmetric positive-definite
/// matrix given as `f32` [`Matrix`].
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
/// positive.
pub fn cholesky(a: &Matrix) -> Result<Cholesky, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare);
    }
    let n = a.rows();
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)] as f64;
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(Cholesky { n, l })
}

/// Solves `A X = B` for SPD `A` (`n x n`) and dense `B` (`n x m`),
/// returning `X` (`n x m`).
///
/// # Errors
///
/// Propagates factorization errors; returns [`LinalgError::ShapeMismatch`]
/// when `B` has the wrong row count.
pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch);
    }
    let ch = cholesky(a)?;
    let n = a.rows();
    let m = b.cols();
    let mut out = Matrix::zeros(n, m);
    let mut col = vec![0.0f64; n];
    for j in 0..m {
        for i in 0..n {
            col[i] = b[(i, j)] as f64;
        }
        let x = ch.solve_vec(&col)?;
        for i in 0..n {
            out[(i, j)] = x[i] as f32;
        }
    }
    Ok(out)
}

/// Computes the inverse of an SPD matrix via its Cholesky factorization.
///
/// GPTQ uses the Cholesky factor of this inverse (as in the reference
/// implementation) to propagate quantization error column by column.
///
/// # Errors
///
/// Propagates factorization errors.
pub fn cholesky_inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    solve_spd(a, &Matrix::identity(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let g = Matrix::from_fn(n, n, |_, _| rng.normal(0.0, 1.0));
        let mut a = g.matmul(&g.transpose());
        for i in 0..n {
            a[(i, i)] += n as f32; // well-conditioned
        }
        a
    }

    #[test]
    fn cholesky_factor_reconstructs_matrix() {
        let a = random_spd(8, 1);
        let ch = cholesky(&a).expect("spd");
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += ch.l(i, k) * ch.l(j, k);
                }
                assert!((acc - a[(i, j)] as f64).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = random_spd(12, 2);
        let mut rng = Rng::seed_from(3);
        let x_true = Matrix::from_fn(12, 3, |_, _| rng.normal(0.0, 1.0));
        let b = a.matmul(&x_true);
        let x = solve_spd(&a, &b).expect("solve");
        assert!(x.sub(&x_true).abs_max() < 1e-3);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = random_spd(10, 4);
        let inv = cholesky_inverse(&a).expect("invert");
        let prod = a.matmul(&inv);
        let eye = Matrix::identity(10);
        assert!(prod.sub(&eye).abs_max() < 1e-3);
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(cholesky(&a).unwrap_err(), LinalgError::NotSquare);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a).unwrap_err(), LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = random_spd(4, 5);
        let b = Matrix::zeros(3, 1);
        assert_eq!(solve_spd(&a, &b).unwrap_err(), LinalgError::ShapeMismatch);
    }

    #[test]
    fn one_by_one_system() {
        let a = Matrix::from_rows(&[vec![4.0]]);
        let b = Matrix::from_rows(&[vec![8.0]]);
        let x = solve_spd(&a, &b).expect("solve");
        assert!((x[(0, 0)] - 2.0).abs() < 1e-6);
    }
}
