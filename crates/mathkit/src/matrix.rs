//! Dense, row-major matrix type used by the regression machinery.
//!
//! This is intentionally a small, predictable matrix — only the operations
//! the workspace actually needs (construction, transpose, products,
//! column/row access, Gram matrices) are provided, all with explicit shape
//! validation.

use crate::{MathError, Result};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use mathkit::matrix::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::ShapeMismatch(format!(
                "expected {} elements for {rows}x{cols}, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Extracts the underlying row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::ShapeMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(MathError::ShapeMismatch(format!(
                "{}x{} * vector of length {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(&a, &b)| a * b).sum::<f64>())
            .collect())
    }

    /// Computes the Gram matrix `selfᵀ * self` directly (without forming
    /// the transpose), as used when assembling normal equations.
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..p {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..p {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        for i in 0..p {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Computes `selfᵀ * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `v.len() != self.rows()`.
    pub fn transpose_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(MathError::ShapeMismatch(format!(
                "({}x{})^T * vector of length {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for (r, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += w * x;
            }
        }
        Ok(out)
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Returns a new matrix keeping only the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index in `keep` is out of bounds.
    pub fn select_cols(&self, keep: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, keep.len());
        for r in 0..self.rows {
            for (j, &c) in keep.iter().enumerate() {
                out[(r, j)] = self[(r, c)];
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(MathError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(matches!(a.matmul(&b), Err(MathError::ShapeMismatch(_))));
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(
            a.transpose_matvec(&[1.0, 1.0, 1.0]).unwrap(),
            vec![9.0, 12.0]
        );
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.transpose_matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, -3.0, 2.0], &[2.0, 0.0, 1.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn select_cols_keeps_order() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = a.select_cols(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[3.0, 1.0], &[6.0, 4.0]]));
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(format!("{m}").contains("1.000000"));
    }

    #[test]
    fn col_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn max_abs_handles_negatives() {
        let a = Matrix::from_rows(&[&[1.0, -7.5], &[3.0, 4.0]]);
        assert_eq!(a.max_abs(), 7.5);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }
}
