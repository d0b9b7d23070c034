/// A dense rectangular cost matrix for assignment problems.
///
/// Row `r` / column `c` holds the cost of assigning row-object `r` to
/// column-object `c`. Costs must be finite; infinite or NaN costs panic at
/// construction so solver internals can assume well-formed input.
///
/// # Example
///
/// ```
/// use fare_matching::CostMatrix;
/// let c = CostMatrix::from_fn(2, 3, |r, c| (r + c) as f64);
/// assert_eq!(c.get(1, 2), 3.0);
/// assert_eq!(c.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Creates a cost matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or any cost is non-finite.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "cost data length mismatch");
        assert!(
            data.iter().all(|v| v.is_finite()),
            "cost matrix entries must be finite"
        );
        Self { rows, cols, data }
    }

    /// Creates a cost matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows, an empty row list, or non-finite costs.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Builds a cost matrix by evaluating `f(row, col)` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a non-finite cost.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Builds a cost matrix one row at a time: `f(r, row)` fills the
    /// zero-initialised `cols`-wide slice for row `r`. This is the bulk
    /// builder the mapping fast path uses — a row-wise kernel can fill a
    /// whole row from packed bitsets without paying a closure call per
    /// entry as [`CostMatrix::from_fn`] does.
    ///
    /// # Panics
    ///
    /// Panics if `f` leaves a non-finite cost in any row.
    pub fn from_row_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, &mut [f64])) -> Self {
        let mut data = vec![0.0; rows * cols];
        for (r, row) in data.chunks_exact_mut(cols).enumerate() {
            f(r, row);
        }
        Self::from_vec(rows, cols, data)
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

    /// Cost of assigning row `r` to column `c`.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "cost index out of bounds");
        self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout() {
        let c = CostMatrix::from_fn(2, 2, |r, c| (10 * r + c) as f64);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 0), 10.0);
        assert_eq!(c.get(1, 1), 11.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        CostMatrix::from_vec(1, 1, vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_length() {
        CostMatrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
