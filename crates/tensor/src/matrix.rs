//! Row-major dense `f32` matrix with the small set of operations the
//! reproduction needs: blocked matmul, transposed variants, row access and
//! element-wise combinators.

use crate::panel::{for_each_row, restage_columns, PanelKernel};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// This is deliberately simple: the FineQ experiments operate on weight
/// matrices of at most a few thousand rows/columns, so a cache-blocked
/// scalar matmul is more than fast enough and keeps the workspace
/// dependency-free.
///
/// # Example
///
/// ```
/// use fineq_tensor::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from an owned row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self @ other` with a cache-friendly ikj loop order.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ other.T` — useful when `other` stores weights row-major
    /// (one output feature per row), which is the layout quantizers use.
    /// The dense twin of the packed `matmul_t`, on the same
    /// [`panel`](crate::panel) layout; every output is still one chain from
    /// `+0.0` in column order, multiply then add — `to_bits`-equal to a
    /// scalar dot of the two rows, whatever else is in the batch.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.rows;
        let mut out = Matrix::zeros(self.rows, n);
        let mut buf = Vec::new();
        let staged = restage_columns(self, &mut buf);
        // Zero columns yield no rows: every output stays the empty sum, +0.0.
        let kernels = other.data.chunks_exact(self.cols.max(1)).map(DotRow);
        for_each_row(kernels, staged, self.rows, self.cols, |j, t, y| out.data[t * n + j] = y);
        out
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Matrix, mut f: impl FnMut(f32, f32) -> f32) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_in_place(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean squared difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum();
        sum / self.data.len() as f64
    }
}

/// One weight row against a panel: `N` scalar dot chains side by side.
struct DotRow<'w>(&'w [f32]);

impl PanelKernel for DotRow<'_> {
    fn run<const N: usize>(&self, panel: &[f32]) -> [f32; N] {
        let (cols, _) = panel.as_chunks::<N>();
        let mut acc = [0.0f32; N];
        for (x, &w) in cols.iter().zip(self.0) {
            for (a, &x) in acc.iter_mut().zip(x) {
                *a += x * w;
            }
        }
        acc
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 5);
        assert_eq!((m.rows(), m.cols(), m.len()), (3, 5, 15));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_round_trips_through_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_matches_hand_computed_example() {
        // Fig. 7 of the paper: [1 1 2 2] x M = [35 29 26 37].
        let w = Matrix::from_rows(&[vec![1.0, 1.0, 2.0, 2.0]]);
        let m = Matrix::from_rows(&[
            vec![8.0, 4.0, 2.0, 3.0],
            vec![7.0, 9.0, 6.0, 6.0],
            vec![9.0, 5.0, 8.0, 8.0],
            vec![1.0, 3.0, 1.0, 6.0],
        ]);
        let y = w.matmul(&m);
        assert_eq!(y.row(0), &[35.0, 29.0, 26.0, 37.0]);
    }

    /// `got == want` bit for bit: unlike `==`, tells `-0.0` from `+0.0`.
    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what}: shape");
        for (k, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k} reads {g:e}, want {w:e}");
        }
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(5, 4, |r, c| ((r + 2 * c) % 7) as f32 - 3.0);
        assert_bits_eq(&a.matmul_transpose(&b), &a.matmul(&b.transpose()), "3x4 @ (5x4)^T");
    }

    /// The reference `matmul_transpose` must equal: one sequential chain
    /// per output, starting from `+0.0`, multiply then add, in column
    /// order.
    fn scalar_chain_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows, b.rows, |i, j| {
            let mut acc = 0.0f32;
            for (x, w) in a.row(i).iter().zip(b.row(j)) {
                acc += x * w;
            }
            acc
        })
    }

    #[test]
    fn matmul_transpose_is_bit_equal_to_one_scalar_chain_per_output() {
        // Every row count a panel split can meet (one row, each tile's
        // padding, full panels, a panel plus one) against empty, short, odd
        // and model-sized reductions. A quarter of the entries are ±0.0 and
        // three eighths small half-integers whose products cancel exactly;
        // every seventh row of `a` is all -0.0 and every fourth row of `b`
        // all 1.0, so those outputs are sums of -0.0 products alone — a
        // kernel whose chains start anywhere but +0.0 reads -0.0 there.
        let mut rng = Rng::seed_from(0xD07);
        let entry = |rng: &mut Rng| match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2..=4 => (rng.below(7) as f32 - 3.0) * 0.5,
            _ => rng.normal(0.0, 1.0),
        };
        for rows in [1usize, 2, 3, 4, 5, 8, 9, 15, 16, 17, 32, 33] {
            for cols in [0usize, 1, 7, 96, 256] {
                for others in [1usize, 5, 64, 256] {
                    let a = Matrix::from_fn(rows, cols, |r, _| {
                        if r % 7 == 2 {
                            -0.0
                        } else {
                            entry(&mut rng)
                        }
                    });
                    let b = Matrix::from_fn(others, cols, |r, _| {
                        if r % 4 == 3 {
                            1.0
                        } else {
                            entry(&mut rng)
                        }
                    });
                    assert_bits_eq(
                        &a.matmul_transpose(&b),
                        &scalar_chain_matmul_transpose(&a, &b),
                        &format!("{rows}x{cols} @ ({others}x{cols})^T"),
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_fn(4, 7, |r, c| (r as f32) * 10.0 + c as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_sub_are_inverse() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| (r * c) as f32 + 1.0);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mse_of_identical_matrices_is_zero() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * c) as f32);
        assert_eq!(a.mse(&a), 0.0);
    }

    #[test]
    fn mse_counts_average_squared_error() {
        let a = Matrix::zeros(1, 4);
        let b = Matrix::from_rows(&[vec![1.0, 1.0, 1.0, 1.0]]);
        assert_eq!(a.mse(&b), 1.0);
    }

    #[test]
    fn abs_max_finds_negative_extreme() {
        let m = Matrix::from_rows(&[vec![1.0, -5.0, 3.0]]);
        assert_eq!(m.abs_max(), 5.0);
    }

    #[test]
    fn scale_in_place_scales_all_elements() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        m.scale_in_place(0.5);
        assert_eq!(m.row(0), &[0.5, 1.0]);
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
