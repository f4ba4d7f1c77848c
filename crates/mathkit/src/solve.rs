//! Direct linear-system solvers.
//!
//! These back the regression fits: Gaussian elimination with partial
//! pivoting for general square systems, Cholesky for symmetric positive
//! definite Gram matrices, and a ridge-regularized fallback that the
//! regression code uses when a Gram matrix is numerically rank deficient
//! (which happens routinely with near-constant performance-counter columns).

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// Relative pivot threshold below which a matrix is treated as singular.
const SINGULARITY_EPS: f64 = 1e-12;

/// Solves `a * x = b` by Gaussian elimination with partial pivoting.
///
/// # Errors
///
/// * [`MathError::ShapeMismatch`] if `a` is not square or `b` has the wrong
///   length.
/// * [`MathError::Singular`] if a pivot is (relatively) zero.
///
/// # Examples
///
/// ```
/// use mathkit::matrix::Matrix;
/// use mathkit::solve::solve;
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = solve(&a, &[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MathError::ShapeMismatch(format!(
            "matrix must be square, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if b.len() != n {
        return Err(MathError::ShapeMismatch(format!(
            "rhs length {} does not match matrix order {n}",
            b.len()
        )));
    }
    if n == 0 {
        return Ok(Vec::new());
    }

    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    let scale = m.max_abs().max(1.0);

    for col in 0..n {
        // Partial pivoting: find the largest magnitude entry in this column.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m[(r, col)]))
            .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
            .expect("non-empty pivot range");
        if pivot_val.abs() <= SINGULARITY_EPS * scale {
            return Err(MathError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m[(col, c)];
                m[(col, c)] = m[(pivot_row, c)];
                m[(pivot_row, c)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }
        for r in (col + 1)..n {
            let factor = m[(r, col)] / m[(col, col)];
            if factor == 0.0 {
                continue;
            }
            m[(r, col)] = 0.0;
            for c in (col + 1)..n {
                m[(r, c)] -= factor * m[(col, c)];
            }
            rhs[r] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = rhs[r];
        for c in (r + 1)..n {
            acc -= m[(r, c)] * x[c];
        }
        x[r] = acc / m[(r, r)];
    }
    Ok(x)
}

/// Cholesky factorization of a symmetric positive definite matrix,
/// returning the lower triangular factor `L` with `a = L * Lᵀ`.
///
/// # Errors
///
/// * [`MathError::ShapeMismatch`] if `a` is not square.
/// * [`MathError::Singular`] if `a` is not positive definite.
fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MathError::ShapeMismatch(format!(
            "matrix must be square, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(MathError::Singular);
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `a * x = b` for symmetric positive definite `a` via Cholesky.
///
/// # Errors
///
/// Propagates the Cholesky factorization's errors, plus
/// [`MathError::ShapeMismatch`] for a wrong-length right-hand side.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if b.len() != n {
        return Err(MathError::ShapeMismatch(format!(
            "rhs length {} does not match matrix order {n}",
            b.len()
        )));
    }
    let l = cholesky(a)?;
    // Forward solve L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = b[i];
        for k in 0..i {
            acc -= l[(i, k)] * y[k];
        }
        y[i] = acc / l[(i, i)];
    }
    // Back solve Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for k in (i + 1)..n {
            acc -= l[(k, i)] * x[k];
        }
        x[i] = acc / l[(i, i)];
    }
    Ok(x)
}

/// Solves the (possibly rank-deficient) normal equations `g * x = b` with a
/// small ridge term added to the diagonal: `(g + lambda I) x = b`.
///
/// The regression code calls this after plain solves fail; the ridge term
/// is scaled by the magnitude of `g` so the behavior is invariant to the
/// units of the inputs.
///
/// # Errors
///
/// Returns an error only if the system is so degenerate that even the
/// regularized solve fails after escalating the ridge term several times.
pub fn solve_ridge(g: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    let n = g.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let scale = g.max_abs().max(1e-30);
    let mut ridge = lambda.max(1e-12) * scale;
    for _ in 0..8 {
        let mut reg = g.clone();
        for i in 0..n {
            reg[(i, i)] += ridge;
        }
        match solve_spd(&reg, b).or_else(|_| solve(&reg, b)) {
            Ok(x) if x.iter().all(|v| v.is_finite()) => return Ok(x),
            _ => ridge *= 100.0,
        }
    }
    Err(MathError::Singular)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn solve_identity() {
        let i = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_close(&solve(&i, &b).unwrap(), &b, 1e-14);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_close(&x, &[3.0, 2.0], 1e-14);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(MathError::Singular));
    }

    #[test]
    fn solve_rejects_nonsquare() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(MathError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn solve_rejects_bad_rhs() {
        let a = Matrix::identity(2);
        assert!(matches!(
            solve(&a, &[1.0]),
            Err(MathError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn solve_empty_system() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(solve(&a, &[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn cholesky_of_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-14);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-14);
        let reconstructed = l.matmul(&l.transpose()).unwrap();
        assert!((reconstructed[(0, 1)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(cholesky(&a), Err(MathError::Singular));
    }

    #[test]
    fn solve_spd_matches_general_solver() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = [1.0, -2.0, 3.0];
        let x1 = solve(&a, &b).unwrap();
        let x2 = solve_spd(&a, &b).unwrap();
        assert_close(&x1, &x2, 1e-12);
    }

    #[test]
    fn ridge_handles_singular_gram() {
        // Perfectly collinear columns: ordinary solve fails, ridge succeeds.
        let g = Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 2.0]]);
        let b = [2.0, 2.0];
        let x = solve_ridge(&g, &b, 1e-8).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        // The ridge solution must still nearly satisfy the (consistent)
        // system: residual is O(ridge), far below 1e-3 here.
        let residual = g.matvec(&x).unwrap();
        for (r, t) in residual.iter().zip(&b) {
            assert!((r - t).abs() < 1e-3, "residual {r} vs {t}");
        }
    }

    #[test]
    fn ridge_on_well_conditioned_close_to_exact() {
        let g = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let x = solve_ridge(&g, &[4.0, 9.0], 1e-12).unwrap();
        assert_close(&x, &[1.0, 1.0], 1e-6);
    }
}
