use fare_tensor::fixed::StuckPolarity;
use fare_tensor::Matrix;

use crate::bits::PackedRows;

/// One square ReRAM crossbar: an `n × n` array of 2-bit cells, some of
/// which may be stuck.
///
/// The crossbar tracks only fault state — stored values are supplied at
/// read time (`read_binary`), matching how the simulator replays the same
/// physical fault pattern against whatever matrix is currently
/// programmed.
///
/// Its only fault state is two packed `n × n` bit planes, one per
/// polarity: bit `c` of row `r` is set in the SA0 (SA1) plane exactly
/// when cell `(r, c)` is stuck at 0 (1), and no cell is set in both.
/// The mapping pipeline's mismatch counts are a handful of popcounts
/// over them (see [`Crossbar::row_mismatch_packed`]), a row's stuck
/// cells ([`Crossbar::row_faults`]) are its set bits and the fault
/// totals are popcounts. A monotone [`Crossbar::fault_version`] counter
/// is bumped on every mutation so callers can cache work keyed on fault
/// state.
///
/// # Example
///
/// ```
/// use fare_reram::{Crossbar, StuckPolarity};
/// use fare_tensor::Matrix;
///
/// let mut xbar = Crossbar::new(4);
/// xbar.inject_fault(0, 1, StuckPolarity::StuckAtOne);
/// let stored = Matrix::zeros(4, 4);
/// let read = xbar.read_binary(&stored, None);
/// assert_eq!(read[(0, 1)], 1.0); // SA1 fabricated an edge
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    /// Stuck-at-0 cells.
    sa0: PackedRows,
    /// Stuck-at-1 cells; never shares a set bit with `sa0`.
    sa1: PackedRows,
    /// Bumped on every `inject_fault` / `clear_faults`.
    version: u64,
}

/// Whether bit `(r, c)` of `plane` is set.
fn bit(plane: &PackedRows, r: usize, c: usize) -> bool {
    plane.row(r)[c / 64] >> (c % 64) & 1 == 1
}

/// Number of set bits in `plane`.
fn popcount(plane: &PackedRows) -> usize {
    plane.bits().iter().map(|w| w.count_ones() as usize).sum()
}

impl Crossbar {
    /// Creates a fault-free `n × n` crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "crossbar size must be positive");
        Self {
            sa0: PackedRows::zeros(n, n),
            sa1: PackedRows::zeros(n, n),
            version: 0,
        }
    }

    /// Crossbar dimension.
    pub fn n(&self) -> usize {
        self.sa0.rows()
    }

    /// `u64` words per packed fault row (`ceil(n / 64)`).
    pub fn words(&self) -> usize {
        self.sa0.words()
    }

    /// Marks cell `(r, c)` stuck. A second injection at the same cell
    /// overwrites the polarity (the physically later failure wins).
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn inject_fault(&mut self, r: usize, c: usize, polarity: StuckPolarity) {
        match polarity {
            StuckPolarity::StuckAtZero => fare_obs::counters::RERAM_FAULTS_INJECTED_SA0.incr(),
            StuckPolarity::StuckAtOne => fare_obs::counters::RERAM_FAULTS_INJECTED_SA1.incr(),
        }
        assert!(r < self.n() && c < self.n(), "fault ({r},{c}) out of range");
        let (stuck, other) = match polarity {
            StuckPolarity::StuckAtZero => (&mut self.sa0, &mut self.sa1),
            StuckPolarity::StuckAtOne => (&mut self.sa1, &mut self.sa0),
        };
        stuck.set(r, c);
        other.unset(r, c);
        self.version += 1;
    }

    /// Fault state of cell `(r, c)`, if any; `None` out of range.
    pub fn fault_at(&self, r: usize, c: usize) -> Option<StuckPolarity> {
        if r >= self.n() || c >= self.n() {
            None
        } else if bit(&self.sa0, r, c) {
            Some(StuckPolarity::StuckAtZero)
        } else if bit(&self.sa1, r, c) {
            Some(StuckPolarity::StuckAtOne)
        } else {
            None
        }
    }

    /// The stuck cells of physical row `r` as `(column, polarity)`, in
    /// ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_faults(&self, r: usize) -> impl Iterator<Item = (usize, StuckPolarity)> + '_ {
        let words = self.sa0.row(r).iter().zip(self.sa1.row(r));
        words.enumerate().flat_map(|(w, (&sa0, &sa1))| {
            let mut stuck = sa0 | sa1;
            std::iter::from_fn(move || {
                (stuck != 0).then(|| {
                    let b = stuck.trailing_zeros();
                    stuck &= stuck - 1;
                    let pol = if sa1 >> b & 1 == 1 {
                        StuckPolarity::StuckAtOne
                    } else {
                        StuckPolarity::StuckAtZero
                    };
                    (w * 64 + b as usize, pol)
                })
            })
        })
    }

    /// Total number of stuck cells.
    pub fn fault_count(&self) -> usize {
        self.sa0_count() + self.sa1_count()
    }

    /// Number of stuck-at-0 cells.
    pub fn sa0_count(&self) -> usize {
        popcount(&self.sa0)
    }

    /// Number of stuck-at-1 cells.
    pub fn sa1_count(&self) -> usize {
        popcount(&self.sa1)
    }

    /// Monotone counter bumped on every [`Crossbar::inject_fault`] /
    /// [`Crossbar::clear_faults`] call. Callers caching derived work
    /// (e.g. row-permutation solutions) can compare versions to detect
    /// whether this crossbar's fault state may have changed. Overwriting
    /// a cell with its existing polarity still bumps the version — a
    /// spurious invalidation is safe, a missed one is not.
    pub fn fault_version(&self) -> u64 {
        self.version
    }

    /// Physical rows that carry at least one fault, ascending.
    pub fn faulty_rows(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&r| self.row_faults(r).next().is_some())
            .collect()
    }

    /// The packed SA0/SA1 fault planes (`n * words()` words each,
    /// row-major). A clone of these slices is an exact content
    /// fingerprint of the fault state: two crossbars of equal `n` with
    /// equal planes have identical fault sets.
    pub fn fault_bits(&self) -> (&[u64], &[u64]) {
        (self.sa0.bits(), self.sa1.bits())
    }

    /// Packed SA0 columns of physical row `r` (`words()` words).
    pub fn sa0_row_bits(&self, r: usize) -> &[u64] {
        self.sa0.row(r)
    }

    /// Packed SA1 columns of physical row `r` (`words()` words).
    pub fn sa1_row_bits(&self, r: usize) -> &[u64] {
        self.sa1.row(r)
    }

    /// Removes all faults (fresh die).
    pub fn clear_faults(&mut self) {
        fare_obs::counters::RERAM_FAULTS_CLEARED.incr();
        let n = self.n();
        self.sa0 = PackedRows::zeros(n, n);
        self.sa1 = PackedRows::zeros(n, n);
        self.version += 1;
    }

    /// Reads back a binary matrix stored on this crossbar.
    ///
    /// `stored` holds logical 0/1 values (anything > 0.5 is treated as a
    /// programmed "1"). `row_perm`, when given, maps **logical row →
    /// physical row**: logical row `i` of `stored` was written to physical
    /// row `row_perm[i]`, so it picks up that physical row's faults. SA0
    /// cells read as 0 (edge deletion), SA1 cells read as 1 (edge
    /// addition) — Fig. 1(b)'s corruption model.
    ///
    /// `stored` may be smaller than the crossbar (a partial block); only
    /// the stored region is returned.
    ///
    /// # Panics
    ///
    /// Panics if `stored` exceeds the crossbar dimensions, or if
    /// `row_perm` has the wrong length / out-of-range entries.
    pub fn read_binary(&self, stored: &Matrix, row_perm: Option<&[usize]>) -> Matrix {
        let n = self.n();
        assert!(
            stored.rows() <= n && stored.cols() <= n,
            "stored block {}x{} exceeds crossbar {}",
            stored.rows(),
            stored.cols(),
            n
        );
        if let Some(perm) = row_perm {
            assert_eq!(perm.len(), stored.rows(), "row permutation length mismatch");
            assert!(perm.iter().all(|&p| p < n), "row permutation out of range");
        }
        fare_obs::counters::RERAM_CROSSBARS_CORRUPTED.incr();
        let mut out = stored.clone();
        for logical in 0..stored.rows() {
            let physical = row_perm.map_or(logical, |p| p[logical]);
            for (c, pol) in self.row_faults(physical) {
                if c >= stored.cols() {
                    break;
                }
                out[(logical, c)] = match pol {
                    StuckPolarity::StuckAtZero => 0.0,
                    StuckPolarity::StuckAtOne => 1.0,
                };
            }
        }
        out
    }

    /// Number of mismatches caused by storing binary `stored` with
    /// logical→physical map `row_perm` (identity when `None`).
    ///
    /// This is the paper's cost function: an SA0 under a stored 1 or an
    /// SA1 under a stored 0 each count one mismatch.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Crossbar::read_binary`].
    pub fn mismatch_count(&self, stored: &Matrix, row_perm: Option<&[usize]>) -> usize {
        let read = self.read_binary(stored, row_perm);
        stored
            .iter()
            .zip(read.iter())
            .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
            .count()
    }

    /// Mismatches caused by mapping one logical binary row `row` onto
    /// physical row `physical`.
    ///
    /// Cheap (proportional to the faults in that physical row); used to
    /// build the row-permutation cost matrices of Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `physical` is out of range or `row` is wider than the
    /// crossbar.
    pub fn row_mismatch(&self, row: &[f32], physical: usize) -> usize {
        assert!(row.len() <= self.n(), "row wider than crossbar");
        self.row_faults(physical)
            .filter(|&(c, pol)| {
                c < row.len()
                    && match pol {
                        StuckPolarity::StuckAtZero => row[c] > 0.5,
                        StuckPolarity::StuckAtOne => row[c] <= 0.5,
                    }
            })
            .count()
    }

    /// SA1 mismatches only for mapping `row` onto `physical` (SA1 faults
    /// under stored zeros). Algorithm 1 uses this for its crossbar-pruning
    /// heuristic because SA1 faults are the more damaging polarity.
    ///
    /// # Panics
    ///
    /// Panics if `physical` is out of range or `row` is wider than the
    /// crossbar.
    pub fn row_sa1_mismatch(&self, row: &[f32], physical: usize) -> usize {
        assert!(row.len() <= self.n(), "row wider than crossbar");
        self.row_faults(physical)
            .filter(|&(c, pol)| c < row.len() && pol == StuckPolarity::StuckAtOne && row[c] <= 0.5)
            .count()
    }

    /// Bitset equivalent of [`Crossbar::row_mismatch`] for a **full-width**
    /// logical row packed into `words()` `u64`s (bit `c` set ⇔ the stored
    /// value at column `c` is a 1; bits at `c ≥ n` must be zero):
    ///
    /// ```text
    /// mismatches = Σ_w popcnt(sa0_w & row_w) + popcnt(sa1_w & !row_w)
    /// ```
    ///
    /// The `!row_w` tail bits beyond `n` never contribute because the SA1
    /// plane has no bits set there. Equals `row_mismatch` on the unpacked
    /// `n`-wide row — pinned by a property test.
    ///
    /// # Panics
    ///
    /// Panics if `physical` is out of range or `row_bits` is not exactly
    /// `words()` long.
    pub fn row_mismatch_packed(&self, row_bits: &[u64], physical: usize) -> usize {
        assert_eq!(row_bits.len(), self.words(), "packed row width mismatch");
        let (sa0, sa1) = (self.sa0.row(physical), self.sa1.row(physical));
        let mut hits = 0u32;
        for ((&row, &z), &o) in row_bits.iter().zip(sa0).zip(sa1) {
            hits += (z & row).count_ones();
            hits += (o & !row).count_ones();
        }
        hits as usize
    }

    /// Bitset equivalent of [`Crossbar::row_sa1_mismatch`]; same packing
    /// contract as [`Crossbar::row_mismatch_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `physical` is out of range or `row_bits` is not exactly
    /// `words()` long.
    pub fn row_sa1_mismatch_packed(&self, row_bits: &[u64], physical: usize) -> usize {
        assert_eq!(row_bits.len(), self.words(), "packed row width mismatch");
        let mut hits = 0u32;
        for (&row, &o) in row_bits.iter().zip(self.sa1.row(physical)) {
            hits += (o & !row).count_ones();
        }
        hits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_crossbar_fault_free() {
        let x = Crossbar::new(8);
        assert_eq!(x.fault_count(), 0);
        assert_eq!(x.fault_at(0, 0), None);
        assert_eq!(x.fault_version(), 0);
        assert!(x.faulty_rows().is_empty());
    }

    #[test]
    fn inject_and_query() {
        let mut x = Crossbar::new(4);
        x.inject_fault(1, 2, StuckPolarity::StuckAtOne);
        x.inject_fault(1, 0, StuckPolarity::StuckAtZero);
        assert_eq!(x.fault_at(1, 2), Some(StuckPolarity::StuckAtOne));
        assert_eq!(x.fault_at(1, 0), Some(StuckPolarity::StuckAtZero));
        assert_eq!(x.fault_count(), 2);
        assert_eq!(x.sa0_count(), 1);
        assert_eq!(x.sa1_count(), 1);
        // Sorted by column.
        let cols: Vec<usize> = x.row_faults(1).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2]);
        assert_eq!(x.faulty_rows(), vec![1]);
        assert_eq!(x.fault_version(), 2);
    }

    #[test]
    fn reinjection_overwrites_polarity() {
        let mut x = Crossbar::new(4);
        x.inject_fault(0, 0, StuckPolarity::StuckAtZero);
        x.inject_fault(0, 0, StuckPolarity::StuckAtOne);
        assert_eq!(x.fault_count(), 1);
        assert_eq!(x.sa0_count(), 0);
        assert_eq!(x.sa1_count(), 1);
        assert_eq!(x.fault_at(0, 0), Some(StuckPolarity::StuckAtOne));
        // The packed planes track the overwrite.
        assert_eq!(x.sa0_row_bits(0)[0], 0);
        assert_eq!(x.sa1_row_bits(0)[0], 1);
    }

    #[test]
    fn counts_match_recount() {
        let mut rng = fare_rt::rng(5);
        use fare_rt::rand::Rng;
        let mut x = Crossbar::new(70); // straddles a word boundary
        for _ in 0..200 {
            let r = rng.gen_range(0..70);
            let c = rng.gen_range(0..70);
            let pol = if rng.gen_range(0..2) == 0 {
                StuckPolarity::StuckAtZero
            } else {
                StuckPolarity::StuckAtOne
            };
            x.inject_fault(r, c, pol);
        }
        let recount: usize = (0..70).map(|r| x.row_faults(r).count()).sum();
        let sa0_recount = (0..70)
            .flat_map(|r| x.row_faults(r))
            .filter(|&(_, p)| p == StuckPolarity::StuckAtZero)
            .count();
        assert_eq!(x.fault_count(), recount);
        assert_eq!(x.sa0_count(), sa0_recount);
        assert_eq!(x.sa1_count(), recount - sa0_recount);
        // Packed planes agree with `fault_at` cell by cell.
        for r in 0..70 {
            for c in 0..70 {
                let bit0 = x.sa0_row_bits(r)[c / 64] >> (c % 64) & 1 == 1;
                let bit1 = x.sa1_row_bits(r)[c / 64] >> (c % 64) & 1 == 1;
                match x.fault_at(r, c) {
                    Some(StuckPolarity::StuckAtZero) => assert!(bit0 && !bit1),
                    Some(StuckPolarity::StuckAtOne) => assert!(bit1 && !bit0),
                    None => assert!(!bit0 && !bit1),
                }
            }
        }
    }

    #[test]
    fn packed_kernels_match_slice_kernels() {
        let mut rng = fare_rt::rng(9);
        use fare_rt::rand::Rng;
        for n in [8usize, 63, 64, 65, 128] {
            let mut x = Crossbar::new(n);
            for _ in 0..n {
                let pol = if rng.gen_range(0..2) == 0 {
                    StuckPolarity::StuckAtZero
                } else {
                    StuckPolarity::StuckAtOne
                };
                x.inject_fault(rng.gen_range(0..n), rng.gen_range(0..n), pol);
            }
            let block = Matrix::from_fn(
                n,
                n,
                |_, _| {
                    if rng.gen_range(0..3) == 0 {
                        1.0
                    } else {
                        0.0
                    }
                },
            );
            let packed = PackedRows::from_matrix(&block);
            for p in 0..n {
                for q in 0..n {
                    assert_eq!(
                        x.row_mismatch_packed(packed.row(p), q),
                        x.row_mismatch(block.row(p), q),
                        "mismatch kernel n={n} p={p} q={q}"
                    );
                    assert_eq!(
                        x.row_sa1_mismatch_packed(packed.row(p), q),
                        x.row_sa1_mismatch(block.row(p), q),
                        "sa1 kernel n={n} p={p} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut x = Crossbar::new(4);
        assert_eq!(x.fault_version(), 0);
        x.inject_fault(0, 0, StuckPolarity::StuckAtOne);
        assert_eq!(x.fault_version(), 1);
        // Same-polarity overwrite still bumps (conservative invalidation).
        x.inject_fault(0, 0, StuckPolarity::StuckAtOne);
        assert_eq!(x.fault_version(), 2);
        x.clear_faults();
        assert_eq!(x.fault_version(), 3);
        assert_eq!(x.fault_count(), 0);
        assert!(x.fault_bits().0.iter().all(|&w| w == 0));
        assert!(x.fault_bits().1.iter().all(|&w| w == 0));
    }

    #[test]
    fn read_binary_applies_both_polarities() {
        let mut x = Crossbar::new(3);
        x.inject_fault(0, 0, StuckPolarity::StuckAtZero); // under a 1
        x.inject_fault(2, 2, StuckPolarity::StuckAtOne); // under a 0
        let stored = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]);
        let read = x.read_binary(&stored, None);
        assert_eq!(read[(0, 0)], 0.0); // edge deleted
        assert_eq!(read[(2, 2)], 1.0); // edge fabricated
        assert_eq!(read[(1, 1)], 0.0);
    }

    #[test]
    fn row_permutation_dodges_fault() {
        let mut x = Crossbar::new(2);
        x.inject_fault(0, 0, StuckPolarity::StuckAtZero);
        let stored = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        // Identity placement hits the fault.
        assert_eq!(x.mismatch_count(&stored, None), 1);
        // Swap rows: the 1 lands on physical row 1, no fault.
        assert_eq!(x.mismatch_count(&stored, Some(&[1, 0])), 0);
    }

    #[test]
    fn matching_fault_costs_nothing() {
        let mut x = Crossbar::new(2);
        // SA1 under a stored 1: harmless.
        x.inject_fault(0, 0, StuckPolarity::StuckAtOne);
        let stored = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        assert_eq!(x.mismatch_count(&stored, None), 0);
    }

    #[test]
    fn row_mismatch_agrees_with_full_read() {
        let mut x = Crossbar::new(4);
        x.inject_fault(2, 1, StuckPolarity::StuckAtOne);
        x.inject_fault(2, 3, StuckPolarity::StuckAtZero);
        let row = [0.0f32, 0.0, 0.0, 1.0];
        // SA1 under 0 at col1 (mismatch) + SA0 under 1 at col3 (mismatch).
        assert_eq!(x.row_mismatch(&row, 2), 2);
        assert_eq!(x.row_sa1_mismatch(&row, 2), 1);
        let row2 = [0.0f32, 1.0, 0.0, 0.0];
        // SA1 under 1 is fine; SA0 under 0 is fine.
        assert_eq!(x.row_mismatch(&row2, 2), 0);
    }

    #[test]
    fn partial_block_only_sees_covered_faults() {
        let mut x = Crossbar::new(8);
        x.inject_fault(0, 7, StuckPolarity::StuckAtOne); // outside a 4-wide block
        let stored = Matrix::zeros(4, 4);
        assert_eq!(x.mismatch_count(&stored, None), 0);
    }

    #[test]
    fn clear_faults_resets() {
        let mut x = Crossbar::new(4);
        x.inject_fault(0, 0, StuckPolarity::StuckAtOne);
        x.clear_faults();
        assert_eq!(x.fault_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_out_of_range_panics() {
        Crossbar::new(2).inject_fault(2, 0, StuckPolarity::StuckAtOne);
    }

    #[test]
    #[should_panic(expected = "exceeds crossbar")]
    fn oversized_block_panics() {
        let x = Crossbar::new(2);
        x.read_binary(&Matrix::zeros(3, 3), None);
    }
}
