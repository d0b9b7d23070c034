//! General weighted sparse matrices in CSR form.
//!
//! [`CsrMatrix`] stores the *normalised* propagation matrices the GNN
//! layers multiply by (Â = D^{-1/2}(A+I)D^{-1/2}, Ā = D^{-1}A and Āᵀ) so
//! aggregation runs at `O(nnz · d)` instead of `O(n² · d)`. Values are
//! kept in ascending column order per row; [`CsrMatrix::spmm`] therefore
//! accumulates each output row in exactly the order the dense `matmul`
//! over the same matrix would, which keeps the sparse and dense compute
//! paths numerically interchangeable.

use fare_tensor::Matrix;

/// A sparse `f32` matrix in compressed sparse row form.
///
/// Rows hold `(column, value)` pairs sorted by column; explicit zeros
/// are never stored.
///
/// # Example
///
/// ```
/// use fare_graph::CsrMatrix;
/// use fare_tensor::Matrix;
///
/// let dense = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
/// let sparse = CsrMatrix::from_dense(&dense);
/// assert_eq!(sparse.nnz(), 2);
/// let x = Matrix::identity(2);
/// assert_eq!(sparse.spmm(&x), dense);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// A binary pattern: every stored entry is `1.0`. Row `r` holds the
    /// columns `indices[offsets[r]..offsets[r + 1]]`.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` has `rows + 1` entries, starts at 0, never
    /// decreases and ends at `indices.len()`, and every row's columns are
    /// strictly ascending and below `cols`.
    pub fn from_pattern(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<usize>,
    ) -> Self {
        assert_eq!(offsets.len(), rows + 1, "pattern needs rows + 1 offsets");
        assert_eq!(offsets[0], 0, "pattern offsets must start at 0");
        assert_eq!(offsets[rows], indices.len(), "pattern offsets must end at nnz");
        for w in offsets.windows(2) {
            let row = &indices[w[0]..w[1]];
            assert!(
                row.windows(2).all(|p| p[0] < p[1]),
                "row columns must be strictly ascending"
            );
            assert!(
                row.last().is_none_or(|&c| c < cols),
                "column out of range for {cols} columns"
            );
        }
        let values = vec![1.0; indices.len()];
        Self { rows, cols, offsets, indices, values }
    }

    /// The binary pattern of a dense matrix: entry `(r, c)` is stored,
    /// as `1.0`, exactly when `m[(r, c)] > 0.5`, the threshold every
    /// crossbar path uses for a stored 1.
    pub fn binary_pattern(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        offsets.push(0);
        for r in 0..rows {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v > 0.5 {
                    indices.push(c);
                }
            }
            offsets.push(indices.len());
        }
        let values = vec![1.0; indices.len()];
        Self { rows, cols, offsets, indices, values }
    }

    /// Assembles a matrix from CSR arrays the caller has built valid.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        Self { rows, cols, offsets, indices, values }
    }

    /// Extracts the nonzero entries of a dense matrix.
    pub fn from_dense(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        offsets.push(0);
        for r in 0..rows {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            offsets.push(indices.len());
        }
        Self { rows, cols, offsets, indices, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row offsets: row `r`'s entries are stored at positions
    /// `offsets()[r]..offsets()[r + 1]` of [`CsrMatrix::indices`]
    /// (`rows() + 1` values).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Column index of every stored entry, row by row, ascending within
    /// each row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The columns of row `r`'s stored entries, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_indices(&self, r: usize) -> &[usize] {
        assert!(r < self.rows, "row {r} out of range");
        &self.indices[self.offsets[r]..self.offsets[r + 1]]
    }

    /// The `(column, value)` entries of row `r`, ascending by column.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(r < self.rows, "row {r} out of range");
        let span = self.offsets[r]..self.offsets[r + 1];
        self.indices[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// The transposed matrix (counting-sort construction, deterministic).
    ///
    /// Row `c` of the result holds `(r, self[r][c])` pairs ascending by
    /// `r` — exactly the accumulation order a dense `t_matmul` walks.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for k in self.offsets[r]..self.offsets[r + 1] {
                let c = self.indices[k];
                let slot = cursor[c];
                cursor[c] += 1;
                indices[slot] = r;
                values[slot] = self.values[k];
            }
        }
        Self { rows: self.cols, cols: self.rows, offsets, indices, values }
    }

    /// Dense copy (small matrices / tests).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Sparse × dense product `self · x`, parallelised over output rows.
    ///
    /// Each output row is accumulated serially in ascending column
    /// order by exactly one worker, so the result is bit-identical for
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows(),
            self.cols,
            "spmm: rhs has {} rows, lhs has {} columns",
            x.rows(),
            self.cols
        );
        let mut out = Matrix::zeros(self.rows, x.cols());
        let x_cols = x.cols();
        fare_rt::par::par_row_chunks(out.as_mut_slice(), x_cols, |r, out_row| {
            for k in self.offsets[r]..self.offsets[r + 1] {
                let a = self.values[k];
                for (o, &b) in out_row.iter_mut().zip(x.row(self.indices[k])) {
                    *o += a * b;
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_fn(7, 5, |r, c| {
            if (r * 5 + c) % 3 == 0 {
                (r as f32 - 2.0) * 0.5 + c as f32
            } else {
                0.0
            }
        })
    }

    #[test]
    fn from_dense_round_trips() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.nnz(), d.count_where(|v| v != 0.0));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.transpose().to_dense(), d.transpose());
    }

    #[test]
    fn transpose_involution() {
        let s = CsrMatrix::from_dense(&sample_dense());
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn spmm_matches_dense_matmul_exactly() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        let x = Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let sparse = s.spmm(&x);
        let dense = d.matmul(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn spmm_identical_across_thread_counts() {
        let d = Matrix::from_fn(40, 40, |r, c| {
            if (r * 7 + c * 3) % 5 == 0 {
                (r as f32 * 0.3 - c as f32 * 0.1).cos()
            } else {
                0.0
            }
        });
        let s = CsrMatrix::from_dense(&d);
        let x = Matrix::from_fn(40, 6, |r, c| ((r + 2 * c) as f32).sin());
        fare_rt::par::set_threads(1);
        let one = s.spmm(&x);
        fare_rt::par::set_threads(8);
        let eight = s.spmm(&x);
        fare_rt::par::set_threads(0);
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one), bits(&eight));
    }

    #[test]
    fn from_pattern_and_accessors() {
        let s = CsrMatrix::from_pattern(2, 3, vec![0, 2, 3], vec![0, 2, 1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.row_entries(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 1.0)]);
        assert_eq!(s.row_entries(1).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(s.offsets(), &[0, 2, 3]);
        assert_eq!(s.indices(), &[0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_pattern_rejects_unsorted() {
        CsrMatrix::from_pattern(1, 3, vec![0, 2], vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pattern_rejects_column_out_of_range() {
        CsrMatrix::from_pattern(1, 3, vec![0, 1], vec![3]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let s = CsrMatrix::from_dense(&Matrix::zeros(3, 4));
        assert_eq!(s.nnz(), 0);
        let x = Matrix::from_fn(4, 2, |r, c| (r + c) as f32);
        assert_eq!(s.spmm(&x), Matrix::zeros(3, 2));
    }
}
