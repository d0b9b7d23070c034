//! Packed binary row sets for the mapping fast path.
//!
//! A [`PackedRows`] snapshots a binary matrix (an adjacency block) into
//! per-row `u64` bit masks, the counterpart of the crossbar's packed
//! SA0/SA1 fault planes: once both sides are packed, the mismatch cost of
//! placing logical row `p` on physical row `q` collapses to a couple of
//! `AND` + popcount passes per word ([`crate::Crossbar::row_mismatch_packed`]).

use fare_tensor::Matrix;

/// A binary matrix packed row-major into `u64` words, bit `c` of row `r`
/// set exactly when the matrix entry is a stored "1" (`> 0.5`, the same
/// threshold every crossbar read/mismatch path uses). Bits at columns
/// `≥ cols` are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedRows {
    rows: usize,
    cols: usize,
    words: usize,
    bits: Vec<u64>,
}

impl PackedRows {
    /// Packs `m`, thresholding entries at `> 0.5`.
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut packed = Self::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v > 0.5 {
                    packed.set(r, c);
                }
            }
        }
        packed
    }

    /// An all-zero `rows × cols` plane, to be filled with
    /// [`PackedRows::set`].
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64).max(1);
        Self {
            rows,
            cols,
            words,
            bits: vec![0; rows * words],
        }
    }

    /// Sets bit `(r, c)`: a stored "1".
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of range.
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "bit ({r}, {c}) out of range"
        );
        self.bits[r * self.words + c / 64] |= 1u64 << (c % 64);
    }

    /// Number of packed rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical width in bits.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `u64` words per row.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Packed row `r` (`words()` words).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Number of set bits (stored 1s) in row `r`.
    pub fn ones(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The full packed plane, row-major. A clone of this slice (plus the
    /// dimensions) is an exact content key for deduplication: equal
    /// planes ⇔ equal binary matrices under the `> 0.5` threshold.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_bits_equal_the_packed_matrix() {
        let m = Matrix::from_fn(5, 70, |r, c| ((r * 13 + c * 3) % 4 == 0) as u8 as f32);
        let mut p = PackedRows::zeros(5, 70);
        for r in 0..5 {
            for c in 0..70 {
                if m[(r, c)] > 0.5 {
                    p.set(r, c);
                }
            }
        }
        assert_eq!(p, PackedRows::from_matrix(&m));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_bit_past_the_width() {
        PackedRows::zeros(2, 3).set(1, 3);
    }

    #[test]
    fn packs_threshold_and_boundaries() {
        for cols in [1usize, 63, 64, 65, 130] {
            let m = Matrix::from_fn(3, cols, |r, c| {
                if (r * 31 + c * 7) % 5 == 0 {
                    1.0
                } else if (r + c) % 7 == 0 {
                    0.4 // below threshold: not a stored 1
                } else {
                    0.0
                }
            });
            let p = PackedRows::from_matrix(&m);
            assert_eq!(p.rows(), 3);
            assert_eq!(p.cols(), cols);
            for r in 0..3 {
                let mut expect_ones = 0;
                for c in 0..cols {
                    let bit = p.row(r)[c / 64] >> (c % 64) & 1 == 1;
                    assert_eq!(bit, m[(r, c)] > 0.5, "row {r} col {c} (cols={cols})");
                    expect_ones += (m[(r, c)] > 0.5) as usize;
                }
                assert_eq!(p.ones(r), expect_ones);
                // Tail bits beyond `cols` stay clear.
                if cols % 64 != 0 {
                    let tail = p.row(r)[p.words() - 1] >> (cols % 64);
                    assert_eq!(tail, 0, "garbage tail bits (cols={cols})");
                }
            }
        }
    }

    #[test]
    fn bits_key_distinguishes_content() {
        let a = Matrix::from_fn(2, 8, |r, c| ((r + c) % 2) as f32);
        let b = Matrix::from_fn(2, 8, |r, c| ((r + c + 1) % 2) as f32);
        let pa = PackedRows::from_matrix(&a);
        let pb = PackedRows::from_matrix(&b);
        assert_ne!(pa.bits(), pb.bits());
        assert_eq!(pa, PackedRows::from_matrix(&a.clone()));
    }
}
