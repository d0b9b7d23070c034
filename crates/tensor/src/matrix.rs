use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::kernel::{accumulate_row, accumulate_row_pair};
use crate::ShapeError;

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the workhorse value type of the FARe reproduction: GNN
/// weights, node features, gradients and dense adjacency blocks are all
/// `Matrix` values. The API favours explicitness over operator magic —
/// shape mismatches panic in the operator forms and return a
/// [`ShapeError`] in the `try_*` forms.
///
/// # Example
///
/// ```
/// use fare_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows`×`cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use fare_tensor::Matrix;
    /// let m = Matrix::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert!(m.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows`×`cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged (different lengths) or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the backing row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the backing row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns element `(r, c)` or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        self[(r, c)] = value;
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutably iterates over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn try_zip_map(
        &self,
        other: &Self,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("zip_map", self.shape(), other.shape()));
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise combination of two matrices.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.try_zip_map(other, f)
            .expect("shape mismatch in zip_map")
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scaled(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Self) -> Result<Self, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        let inner = self.cols;
        // Output row i is Σ_k lhs[i][k] · rhs row k, ascending k. Nothing
        // skips zero terms: sparse operands go through `CsrMatrix::spmm`.
        combine_rows(&mut out, rhs, |i, k| self.data[i * inner + k]);
        Ok(out)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Self {
        self.try_matmul(rhs).expect("shape mismatch in matmul")
    }

    /// Matrix product `selfᵀ * rhs` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn t_matmul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.rows,
            rhs.rows,
            "shape mismatch in t_matmul: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Self::zeros(self.cols, rhs.cols);
        let lhs_cols = self.cols;
        // Output row i is Σ_k lhs[k][i] · rhs row k, ascending k.
        combine_rows(&mut out, rhs, |i, k| self.data[k * lhs_cols + i]);
        out
    }

    /// Matrix product `self * rhsᵀ`.
    ///
    /// Runs as [`Matrix::matmul`] over a materialised `rhsᵀ`, so it suits
    /// a small rhs such as a weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_t(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols,
            rhs.cols,
            "shape mismatch in matmul_t: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        // out[i][j] = Σ_k lhs[i][k] · rhs[j][k], ascending k from +0.0:
        // the same sum a dot product per element computes.
        self.matmul(&rhs.transpose())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum entry in each row.
    ///
    /// Used to turn class logits into predictions.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Clamps every element into `[-limit, limit]`.
    ///
    /// This is the "weight clipping" primitive from the paper's combination
    /// phase (Section IV-B).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is negative or NaN.
    pub fn clip_inplace(&mut self, limit: f32) {
        assert!(limit >= 0.0, "clip limit must be non-negative, got {limit}");
        for v in &mut self.data {
            *v = v.clamp(-limit, limit);
        }
    }

    /// Extracts the dense sub-matrix with rows `r0..r0+h`, cols `c0..c0+w`,
    /// zero-padding any region that falls outside `self`.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        Self::from_fn(h, w, |r, c| self.get(r0 + r, c0 + c).unwrap_or(0.0))
    }

    /// Counts elements for which `pred` holds.
    pub fn count_where(&self, pred: impl Fn(f32) -> bool) -> usize {
        self.data.iter().filter(|&&v| pred(v)).count()
    }
}

/// Writes every row `i` of `out` as `Σ_k coeff(i, k) · rhs row k` over
/// ascending `k`: row pairs through
/// [`accumulate_row_pair`](crate::kernel::accumulate_row_pair), an odd
/// last row through [`accumulate_row`]. `out` is `rhs.cols()` wide.
fn combine_rows(out: &mut Matrix, rhs: &Matrix, coeff: impl Fn(usize, usize) -> f32) {
    // A zero-width output has no rows to visit.
    let width = rhs.cols.max(1);
    let rhs_rows = || rhs.data.chunks_exact(width).enumerate();
    let mut pairs = out.data.chunks_exact_mut(2 * width);
    for (p, pair) in (&mut pairs).enumerate() {
        let (i0, i1) = (2 * p, 2 * p + 1);
        let (out0, out1) = pair.split_at_mut(width);
        let terms = rhs_rows().map(|(k, row)| ((coeff(i0, k), coeff(i1, k)), row));
        accumulate_row_pair(out0, out1, terms);
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        let i = out.rows - 1;
        accumulate_row(last, rhs_rows().map(|(k, row)| (coeff(i, k), row)));
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scaled(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in +=");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in -=");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  ")?;
            let cols = self.cols.min(8);
            for c in 0..cols {
                write!(f, "{:>9.4} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::{Rng, SeedableRng};

    use super::*;

    /// The plain loops the row kernel replaced, kept as the bit-exactness
    /// oracle: each output element starts at `+0.0` and adds `a * b` in
    /// ascending `k`.
    mod loop_oracle {
        use super::Matrix;

        pub fn matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
            for i in 0..lhs.rows() {
                for k in 0..lhs.cols() {
                    let a = lhs[(i, k)];
                    for (o, &b) in out.row_mut(i).iter_mut().zip(rhs.row(k)) {
                        *o += a * b;
                    }
                }
            }
            out
        }

        pub fn t_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(lhs.cols(), rhs.cols());
            for i in 0..lhs.cols() {
                for k in 0..lhs.rows() {
                    let a = lhs[(k, i)];
                    for (o, &b) in out.row_mut(i).iter_mut().zip(rhs.row(k)) {
                        *o += a * b;
                    }
                }
            }
            out
        }

        pub fn matmul_t(lhs: &Matrix, rhs: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(lhs.rows(), rhs.rows());
            for i in 0..lhs.rows() {
                for j in 0..rhs.rows() {
                    let mut acc = 0.0;
                    for (&a, &b) in lhs.row(i).iter().zip(rhs.row(j)) {
                        acc += a * b;
                    }
                    out[(i, j)] = acc;
                }
            }
            out
        }
    }

    /// A matrix whose entries are mostly ordinary values, with about one
    /// in four drawn from the IEEE edge cases: signed zeros, NaN, both
    /// infinities, subnormals and values whose products overflow.
    fn edge_case_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        const EDGE: [f32; 10] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -1e-45,
            f32::MIN_POSITIVE,
            3e38,
            -3e38,
        ];
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(0.25) {
                EDGE[rng.gen_range(0..EDGE.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
    }

    /// Bit patterns, with every NaN folded into one: Rust leaves the
    /// payload and sign of a NaN produced by arithmetic unspecified, so
    /// only "is NaN" is a result both sides promise.
    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    #[test]
    fn kernels_bit_identical_to_loop_oracle() {
        // Every shape with up to 9 rows and inner terms, at every output
        // width from 0 to 40: both sides of the 32-wide register cutoff.
        for rows in 0..=9 {
            for inner in 0..=9 {
                for width in 0..=40 {
                    let seed = ((rows * 10 + inner) * 41 + width) as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let shape = format!("rows {rows}, inner {inner}, width {width}");

                    let lhs = edge_case_matrix(rows, inner, &mut rng);
                    let rhs = edge_case_matrix(inner, width, &mut rng);
                    let got = lhs.matmul(&rhs);
                    assert_eq!(got.shape(), (rows, width), "matmul {shape}");
                    let want = loop_oracle::matmul(&lhs, &rhs);
                    assert_eq!(bits(&got), bits(&want), "matmul {shape}");

                    let lhs_t = edge_case_matrix(inner, rows, &mut rng);
                    let got = lhs_t.t_matmul(&rhs);
                    assert_eq!(got.shape(), (rows, width), "t_matmul {shape}");
                    let want = loop_oracle::t_matmul(&lhs_t, &rhs);
                    assert_eq!(bits(&got), bits(&want), "t_matmul {shape}");

                    let rhs_t = edge_case_matrix(width, inner, &mut rng);
                    let got = lhs.matmul_t(&rhs_t);
                    assert_eq!(got.shape(), (rows, width), "matmul_t {shape}");
                    let want = loop_oracle::matmul_t(&lhs, &rhs_t);
                    assert_eq!(bits(&got), bits(&want), "matmul_t {shape}");
                }
            }
        }
    }

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn try_matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err.op(), "matmul");
        assert_eq!(err.lhs(), (2, 3));
        assert_eq!(err.rhs(), (2, 3));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let m = Matrix::from_rows(&[&[0.1, 0.9, 0.0], &[2.0, 1.0, -1.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn clip_inplace_bounds_values() {
        let mut m = Matrix::from_rows(&[&[10.0, -10.0, 0.5]]);
        m.clip_inplace(1.0);
        assert_eq!(m.as_slice(), &[1.0, -1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "clip limit must be non-negative")]
    fn clip_negative_limit_panics() {
        Matrix::zeros(1, 1).clip_inplace(-1.0);
    }

    #[test]
    fn block_zero_pads_outside() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b.as_slice(), &[4.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn operators_add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_rows(&[&[1.0, 1.0]]);
        a += &b;
        a += &b;
        assert_eq!(a.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.0]]);
        assert_eq!(m.sum(), 2.0);
        assert_eq!(m.mean(), 0.5);
        assert_eq!(m.max(), 3.0);
        assert_eq!(m.min(), -2.0);
        assert!((m.frobenius_norm() - (14.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(m.count_where(|v| v > 0.0), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("Matrix 2x2"));
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let m = Matrix::zeros(2, 2);
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 2), None);
        assert_eq!(m.get(1, 1), Some(0.0));
    }
}
