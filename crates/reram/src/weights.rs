//! The weight storage path: 16-bit fixed-point weights distributed over
//! eight 2-bit cells, corrupted by stuck-at faults.
//!
//! A weight matrix of shape `rows × cols` occupies a grid of crossbars:
//! each crossbar row holds `n / 8` weights (Section III-A's distributed
//! mapping), so the grid is `ceil(rows / n) × ceil(cols / (n/8))`
//! crossbars. A stuck cell corrupts exactly one 2-bit slice of one
//! weight; slices near the MSB cause "weight explosion".
//!
//! Which slices are stuck depends only on the fault state and the row
//! placement, not on the weights. [`WeightFabric::fault_overlay`] folds
//! them once into a [`FaultOverlay`]: per affected weight, an AND and an
//! OR mask on its sign-magnitude cell word ([`CellMasks`]). A read
//! ([`WeightFabric::read_through`]) quantises every weight and then
//! patches only the listed ones, so a caller that keeps the overlay
//! until the faults or the placement change pays one quantise plus a
//! sparse patch per read.

use fare_rt::rand::Rng;

use fare_tensor::fixed::CELLS_PER_WORD;
use fare_tensor::{CellMasks, FixedFormat, Matrix};

use crate::{CrossbarArray, FaultSpec};

/// The set of crossbars backing one weight matrix, with its quantisation
/// format.
///
/// # Example
///
/// ```
/// use fare_reram::weights::WeightFabric;
/// use fare_reram::FaultSpec;
/// use fare_tensor::{FixedFormat, Matrix};
/// use fare_rt::rand::SeedableRng;
///
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(1);
/// let mut fabric = WeightFabric::for_shape(16, 8, 32, FixedFormat::default());
/// fabric.inject(&FaultSpec::density(0.05), &mut rng);
/// let w = Matrix::filled(16, 8, 0.25);
/// let faulty = fabric.corrupt(&w);
/// assert_eq!(faulty.shape(), (16, 8));
/// ```
#[derive(Debug, Clone)]
pub struct WeightFabric {
    fmt: FixedFormat,
    rows: usize,
    cols: usize,
    n: usize,
    weights_per_row: usize,
    grid_rows: usize,
    grid_cols: usize,
    array: CrossbarArray,
}

/// A fabric's stuck cells under one row placement, folded into one
/// [`CellMasks`] per affected weight.
///
/// Built by [`WeightFabric::fault_overlay`] and applied by
/// [`WeightFabric::read_through`]. It stays valid until the fabric's
/// faults or the placement change.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOverlay {
    shape: (usize, usize),
    /// `(flat row-major weight index, masks)` for every weight with at
    /// least one stuck cell, in ascending index order.
    patches: Vec<(usize, CellMasks)>,
}

impl WeightFabric {
    /// Allocates crossbars for a `rows × cols` weight matrix on `n × n`
    /// crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `rows`/`cols` are zero or `n` is not a multiple of the
    /// 8 cells each weight occupies.
    pub fn for_shape(rows: usize, cols: usize, n: usize, fmt: FixedFormat) -> Self {
        assert!(rows > 0 && cols > 0, "weight matrix must be non-empty");
        assert_eq!(
            n % CELLS_PER_WORD,
            0,
            "crossbar size {n} must be a multiple of {CELLS_PER_WORD} cells/weight"
        );
        let weights_per_row = n / CELLS_PER_WORD;
        let grid_rows = rows.div_ceil(n);
        let grid_cols = cols.div_ceil(weights_per_row);
        let array = CrossbarArray::new(grid_rows * grid_cols, n);
        Self {
            fmt,
            rows,
            cols,
            n,
            weights_per_row,
            grid_rows,
            grid_cols,
            array,
        }
    }

    /// The quantisation format.
    pub fn format(&self) -> FixedFormat {
        self.fmt
    }

    /// Shape of the weight matrix this fabric stores.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of crossbars allocated.
    pub fn num_crossbars(&self) -> usize {
        self.array.len()
    }

    /// Borrows the underlying crossbar array.
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Mutably borrows the underlying crossbar array (e.g. for targeted
    /// fault placement in tests).
    pub fn array_mut(&mut self) -> &mut CrossbarArray {
        &mut self.array
    }

    /// Injects stuck-at faults into the backing crossbars (additive).
    pub fn inject(&mut self, spec: &FaultSpec, rng: &mut impl Rng) {
        self.array.inject(spec, rng);
    }

    /// Reads back `weights` through the faulty fabric with the identity
    /// row placement.
    ///
    /// Each weight is quantised to the fabric's fixed-point format, its
    /// stuck cells are forced, and the result is decoded — so even a
    /// fault-free fabric returns *quantised* weights, exactly like real
    /// hardware.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the fabric's shape.
    pub fn corrupt(&self, weights: &Matrix) -> Matrix {
        self.corrupt_permuted(weights, None)
    }

    /// Reads back `weights` with an optional logical→physical global row
    /// permutation (`placement[r]` = physical row of logical row `r`).
    ///
    /// This is the hook the neuron-reordering baseline uses to steer
    /// weight rows away from (or onto benign) faults. It builds the
    /// placement's [`FaultOverlay`] and reads through it; callers that
    /// read the same fault state repeatedly should keep the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the fabric's shape, or the
    /// placement has the wrong length, out-of-range entries or two
    /// logical rows on one physical row.
    pub fn corrupt_permuted(&self, weights: &Matrix, placement: Option<&[usize]>) -> Matrix {
        self.check_shape(weights);
        self.read_through(weights, &self.fault_overlay(placement))
    }

    /// Folds the fabric's stuck cells under `placement` (identity when
    /// `None`) into a [`FaultOverlay`].
    ///
    /// # Panics
    ///
    /// Panics if the placement has the wrong length, out-of-range
    /// entries or two logical rows on one physical row.
    pub fn fault_overlay(&self, placement: Option<&[usize]>) -> FaultOverlay {
        if let Some(p) = placement {
            assert_eq!(p.len(), self.rows, "placement length mismatch");
            let mut used = vec![false; self.physical_rows()];
            for &r in p {
                assert!(r < used.len(), "placement row out of range");
                assert!(
                    !used[r],
                    "placement maps two logical rows to physical row {r}"
                );
                used[r] = true;
            }
        }
        let mut patches = Vec::new();
        for logical in 0..self.rows {
            let physical = placement.map_or(logical, |p| p[logical]);
            self.for_each_row_patch(physical, |col, masks| {
                patches.push((logical * self.cols + col, masks));
            });
        }
        FaultOverlay {
            shape: (self.rows, self.cols),
            patches,
        }
    }

    /// Reads back `weights` through `overlay`: quantises every weight,
    /// then re-encodes each listed one with its stuck cells forced.
    ///
    /// # Panics
    ///
    /// Panics if `weights` or `overlay` does not match the fabric's
    /// shape.
    pub fn read_through(&self, weights: &Matrix, overlay: &FaultOverlay) -> Matrix {
        self.check_shape(weights);
        assert_eq!(
            overlay.shape,
            (self.rows, self.cols),
            "overlay built for a different fabric shape"
        );
        let mut out = weights.map(|v| self.fmt.quantise(v));
        let clean = weights.as_slice();
        let read = out.as_mut_slice();
        for &(i, masks) in &overlay.patches {
            read[i] = self.fmt.decode(masks.apply(self.fmt.encode(clean[i])));
        }
        out
    }

    fn check_shape(&self, weights: &Matrix) {
        assert_eq!(
            weights.shape(),
            (self.rows, self.cols),
            "weight shape mismatch: fabric {}x{}, got {:?}",
            self.rows,
            self.cols,
            weights.shape()
        );
    }

    /// Calls `f(col, masks)` for every weight column of physical global
    /// row `physical` that has a stuck cell, in ascending column order.
    /// All eight cells of a weight sit in one crossbar row, so each
    /// column's faults arrive together and fold into one [`CellMasks`].
    fn for_each_row_patch(&self, physical: usize, mut f: impl FnMut(usize, CellMasks)) {
        let (gi, pr) = (physical / self.n, physical % self.n);
        for gj in 0..self.grid_cols {
            let mut pending: Option<(usize, CellMasks)> = None;
            for (pc, pol) in self.array.crossbar(gi * self.grid_cols + gj).row_faults(pr) {
                let col = gj * self.weights_per_row + pc / CELLS_PER_WORD;
                if col >= self.cols {
                    break; // faults are sorted by column: the rest is padding too
                }
                let masks = match pending {
                    Some((c, masks)) if c == col => masks,
                    Some((c, masks)) => {
                        f(c, masks);
                        CellMasks::NONE
                    }
                    None => CellMasks::NONE,
                };
                pending = Some((col, masks.stick(pc % CELLS_PER_WORD, pol)));
            }
            if let Some((c, masks)) = pending {
                f(c, masks);
            }
        }
    }

    /// Expected corruption cost of a candidate row placement: the sum of
    /// |faulty − clean| over all weights, given the current weights.
    ///
    /// The neuron-reordering baseline minimises this via bipartite
    /// matching over row placements.
    ///
    /// # Panics
    ///
    /// Same conditions as [`WeightFabric::corrupt_permuted`].
    pub fn placement_cost(&self, weights: &Matrix, placement: Option<&[usize]>) -> f64 {
        let clean = weights.map(|v| self.fmt.quantise(v));
        let faulty = self.corrupt_permuted(weights, placement);
        clean
            .iter()
            .zip(faulty.iter())
            .map(|(a, b)| (a - b).abs() as f64)
            .sum()
    }

    /// Corruption cost of placing one logical weight row onto one physical
    /// global row (used to build NR's assignment cost matrix cheaply),
    /// summed in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `logical` or `physical` is out of range.
    pub fn row_placement_cost(&self, weights: &Matrix, logical: usize, physical: usize) -> f64 {
        assert!(logical < self.rows, "logical row out of range");
        assert!(physical < self.physical_rows(), "physical row out of range");
        let row = weights.row(logical);
        let mut cost = 0.0f64;
        self.for_each_row_patch(physical, |col, masks| {
            let clean = self.fmt.quantise(row[col]);
            let faulty = self.fmt.decode(masks.apply(self.fmt.encode(row[col])));
            cost += (faulty - clean).abs() as f64;
        });
        cost
    }

    /// Total physical rows available (`grid_rows × n`).
    pub fn physical_rows(&self) -> usize {
        self.grid_rows * self.n
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    use fare_rt::prop::prelude::*;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::seq::SliceRandom;
    use fare_rt::rand::SeedableRng;
    use fare_tensor::fixed::StuckPolarity;
    use fare_tensor::CellWord;

    use super::*;

    fn fabric(rows: usize, cols: usize) -> WeightFabric {
        WeightFabric::for_shape(rows, cols, 32, FixedFormat::default())
    }

    /// The per-read fault walk the overlay replaced, kept as the oracle:
    /// invert the placement, group every fault by the weight it hits,
    /// and stick the cells of a fresh [`CellWord`] one by one.
    fn oracle_corrupt(f: &WeightFabric, weights: &Matrix, placement: Option<&[usize]>) -> Matrix {
        let mut out = weights.map(|v| f.fmt.quantise(v));
        let inverse: Option<HashMap<usize, usize>> = placement.map(|p| {
            p.iter()
                .enumerate()
                .map(|(logical, &phys)| (phys, logical))
                .collect()
        });
        let mut per_weight: HashMap<(usize, usize), Vec<(usize, StuckPolarity)>> = HashMap::new();
        for gi in 0..f.grid_rows {
            for gj in 0..f.grid_cols {
                let xbar = f.array.crossbar(gi * f.grid_cols + gj);
                for pr in 0..f.n {
                    let phys_global = gi * f.n + pr;
                    let logical = match &inverse {
                        Some(inv) => match inv.get(&phys_global) {
                            Some(&l) => l,
                            None => continue,
                        },
                        None => phys_global,
                    };
                    if logical >= f.rows {
                        continue;
                    }
                    for (pc, pol) in xbar.row_faults(pr) {
                        let col = gj * f.weights_per_row + pc / CELLS_PER_WORD;
                        if col < f.cols {
                            per_weight
                                .entry((logical, col))
                                .or_default()
                                .push((pc % CELLS_PER_WORD, pol));
                        }
                    }
                }
            }
        }
        for ((r, c), cell_faults) in per_weight {
            out[(r, c)] = stuck_read(f.fmt, weights[(r, c)], &cell_faults);
        }
        out
    }

    /// The per-row cost walk the overlay replaced: group one physical
    /// row's faults by column in a `BTreeMap`.
    fn oracle_row_cost(f: &WeightFabric, weights: &Matrix, logical: usize, physical: usize) -> f64 {
        let (gi, pr) = (physical / f.n, physical % f.n);
        let mut cost = 0.0f64;
        for gj in 0..f.grid_cols {
            let xbar = f.array.crossbar(gi * f.grid_cols + gj);
            let mut per_col: BTreeMap<usize, Vec<(usize, StuckPolarity)>> = BTreeMap::new();
            for (pc, pol) in xbar.row_faults(pr) {
                let col = gj * f.weights_per_row + pc / CELLS_PER_WORD;
                if col < f.cols {
                    per_col
                        .entry(col)
                        .or_default()
                        .push((pc % CELLS_PER_WORD, pol));
                }
            }
            for (col, cell_faults) in per_col {
                let value = weights[(logical, col)];
                cost +=
                    (stuck_read(f.fmt, value, &cell_faults) - f.fmt.quantise(value)).abs() as f64;
            }
        }
        cost
    }

    fn stuck_read(fmt: FixedFormat, value: f32, cell_faults: &[(usize, StuckPolarity)]) -> f32 {
        let mut word = CellWord::from_fixed(fmt.encode(value));
        for &(cell, pol) in cell_faults {
            match pol {
                StuckPolarity::StuckAtZero => word.stick_at_zero(cell),
                StuckPolarity::StuckAtOne => word.stick_at_one(cell),
            }
        }
        fmt.decode(word.to_fixed())
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    /// Random weights salted with the encoder's edge cases: NaN, ±inf,
    /// −0.0, ±max_value and values past saturation.
    fn hostile_weights(rows: usize, cols: usize, fmt: FixedFormat, rng: &mut StdRng) -> Matrix {
        let max = fmt.max_value();
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            max,
            -max,
            max * 1.5,
            -max * 1.5,
            max + fmt.resolution() / 2.0,
        ];
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..4) {
            0 => specials[rng.gen_range(0..specials.len())],
            1 => rng.gen_range(-1.2 * max..1.2 * max),
            _ => rng.gen_range(-1.0f32..1.0),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn overlay_read_bit_identical_to_oracle(
            seed in 0u64..100_000,
            n_pick in 0usize..3,
            density_pick in 0usize..4,
            sa1_pick in 0usize..3,
            permuted in any::<bool>(),
        ) {
            let n = [8, 16, 32][n_pick];
            let density = [0.0, 0.05, 0.5, 1.0][density_pick];
            let sa1 = [0.0, 0.5, 1.0][sa1_pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(1..=2 * n + 3);
            let cols = rng.gen_range(1..=3 * (n / CELLS_PER_WORD) + 2);
            let mut f = WeightFabric::for_shape(rows, cols, n, FixedFormat::default());
            let placement: Option<Vec<usize>> = permuted.then(|| {
                let mut phys: Vec<usize> = (0..f.physical_rows()).collect();
                phys.shuffle(&mut rng);
                phys.truncate(rows);
                phys
            });
            let placement = placement.as_deref();
            // Repeated additive injections, checked after each one.
            for _ in 0..rng.gen_range(1..=3) {
                f.inject(&FaultSpec::with_sa1_fraction(density, sa1), &mut rng);
                let w = hostile_weights(rows, cols, f.format(), &mut rng);
                let overlay = f.fault_overlay(placement);
                prop_assert!(overlay.patches.windows(2).all(|p| p[0].0 < p[1].0));
                let oracle = bits(&oracle_corrupt(&f, &w, placement));
                prop_assert_eq!(bits(&f.read_through(&w, &overlay)), oracle.clone());
                prop_assert_eq!(bits(&f.corrupt_permuted(&w, placement)), oracle);
                let logical = rng.gen_range(0..rows);
                let physical = rng.gen_range(0..f.physical_rows());
                prop_assert_eq!(
                    f.row_placement_cost(&w, logical, physical).to_bits(),
                    oracle_row_cost(&f, &w, logical, physical).to_bits()
                );
            }
        }
    }

    #[test]
    fn grid_allocation() {
        let f = fabric(64, 10);
        // 64 rows / 32 = 2 grid rows; 10 cols / (32/8 = 4) = 3 grid cols.
        assert_eq!(f.num_crossbars(), 6);
        assert_eq!(f.physical_rows(), 64);
    }

    #[test]
    fn fault_free_fabric_only_quantises() {
        let f = fabric(8, 4);
        let w = Matrix::from_fn(8, 4, |r, c| (r as f32 - 4.0) * 0.1 + c as f32 * 0.01);
        let out = f.corrupt(&w);
        for (a, b) in w.iter().zip(out.iter()) {
            assert!((a - b).abs() <= f.format().resolution());
        }
    }

    #[test]
    fn single_msb_sa1_explodes_one_weight() {
        let mut f = fabric(32, 4);
        // Weight (0, 0) occupies crossbar 0, row 0, cells 0..8. Cell 0 is
        // the MSB slice.
        f.array_mut()
            .crossbar_mut(0)
            .inject_fault(0, 0, StuckPolarity::StuckAtOne);
        let w = Matrix::filled(32, 4, 0.1);
        let out = f.corrupt(&w);
        assert!(out[(0, 0)].abs() > 10.0, "no explosion: {}", out[(0, 0)]);
        // Every other weight is untouched (mod quantisation).
        for r in 0..32 {
            for c in 0..4 {
                if (r, c) != (0, 0) {
                    assert!((out[(r, c)] - 0.1).abs() < 0.01);
                }
            }
        }
    }

    #[test]
    fn lsb_fault_is_mild() {
        let mut f = fabric(32, 4);
        f.array_mut().crossbar_mut(0).inject_fault(
            0,
            CELLS_PER_WORD - 1,
            StuckPolarity::StuckAtOne,
        );
        let w = Matrix::filled(32, 4, 0.1);
        let out = f.corrupt(&w);
        assert!(
            (out[(0, 0)] - 0.1).abs() < 0.02,
            "lsb fault too strong: {}",
            out[(0, 0)]
        );
    }

    #[test]
    fn second_column_group_maps_to_second_crossbar() {
        let mut f = fabric(32, 8); // 1 grid row x 2 grid cols
        assert_eq!(f.num_crossbars(), 2);
        // Crossbar 1 covers weight cols 4..8; fault at its row 3, cell 0
        // hits weight (3, 4) MSB.
        f.array_mut()
            .crossbar_mut(1)
            .inject_fault(3, 0, StuckPolarity::StuckAtOne);
        let w = Matrix::filled(32, 8, 0.05);
        let out = f.corrupt(&w);
        assert!(out[(3, 4)].abs() > 10.0);
        assert!((out[(3, 0)] - 0.05).abs() < 0.01);
    }

    #[test]
    fn permutation_moves_row_away_from_fault() {
        let mut f = fabric(32, 4);
        f.array_mut()
            .crossbar_mut(0)
            .inject_fault(0, 0, StuckPolarity::StuckAtOne);
        let w = Matrix::filled(32, 4, 0.1);
        // Swap logical rows 0 and 1: logical 0 -> physical 1 (clean),
        // logical 1 -> physical 0 (faulty).
        let mut placement: Vec<usize> = (0..32).collect();
        placement.swap(0, 1);
        let out = f.corrupt_permuted(&w, Some(&placement));
        assert!((out[(0, 0)] - 0.1).abs() < 0.01);
        assert!(out[(1, 0)].abs() > 10.0);
    }

    #[test]
    fn placement_cost_reflects_damage() {
        let mut f = fabric(32, 4);
        f.array_mut()
            .crossbar_mut(0)
            .inject_fault(0, 0, StuckPolarity::StuckAtOne);
        let mut w = Matrix::filled(32, 4, 0.1);
        let identity_cost = f.placement_cost(&w, None);
        assert!(identity_cost > 10.0);
        // A weight whose MSB cell is already 0b11 region (large negative)
        // suffers less from the same SA1.
        w[(0, 0)] = -30.0;
        assert!(f.placement_cost(&w, None) < identity_cost);
    }

    #[test]
    fn row_placement_cost_matches_full_cost() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut f = fabric(32, 8);
        f.inject(&FaultSpec::density(0.05), &mut rng);
        let w = Matrix::from_fn(32, 8, |r, c| ((r * 8 + c) as f32 * 0.7).sin() * 0.3);
        // Identity placement: sum of per-row costs equals total cost.
        let total: f64 = (0..32).map(|r| f.row_placement_cost(&w, r, r)).sum();
        let full = f.placement_cost(&w, None);
        assert!(
            (total - full).abs() < 1e-4,
            "per-row {total} vs full {full}"
        );
    }

    #[test]
    fn multiple_faults_compose_on_one_word() {
        let mut f = fabric(32, 4);
        {
            let x = f.array_mut().crossbar_mut(0);
            x.inject_fault(0, 0, StuckPolarity::StuckAtOne);
            x.inject_fault(0, 1, StuckPolarity::StuckAtZero);
        }
        let w = Matrix::filled(32, 4, 0.1);
        let out = f.corrupt(&w);
        // Composition must match applying both faults to the CellWord.
        let fmt = f.format();
        let mut word = CellWord::from_fixed(fmt.encode(0.1));
        word.stick_at_one(0);
        word.stick_at_zero(1);
        assert_eq!(out[(0, 0)], fmt.decode(word.to_fixed()));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn corrupt_rejects_wrong_shape() {
        fabric(8, 4).corrupt(&Matrix::zeros(4, 8));
    }

    #[test]
    fn overlay_lists_each_faulty_weight_once() {
        let mut f = fabric(32, 8);
        {
            let x = f.array_mut().crossbar_mut(1);
            x.inject_fault(2, 8, StuckPolarity::StuckAtOne); // weight (2, 5), cell 0
            x.inject_fault(2, 15, StuckPolarity::StuckAtZero); // weight (2, 5), cell 7
        }
        f.array_mut()
            .crossbar_mut(0)
            .inject_fault(0, 3, StuckPolarity::StuckAtZero); // (0, 0)
        let overlay = f.fault_overlay(None);
        let expected = vec![
            (0, CellMasks::NONE.stick(3, StuckPolarity::StuckAtZero)),
            (
                2 * 8 + 5,
                CellMasks::NONE
                    .stick(0, StuckPolarity::StuckAtOne)
                    .stick(7, StuckPolarity::StuckAtZero),
            ),
        ];
        assert_eq!(overlay.patches, expected);
    }

    #[test]
    #[should_panic(expected = "placement maps two logical rows to physical row 5")]
    fn corrupt_rejects_non_injective_placement() {
        let f = fabric(4, 4);
        f.corrupt_permuted(&Matrix::zeros(4, 4), Some(&[0, 5, 2, 5]));
    }

    #[test]
    #[should_panic(expected = "placement row out of range")]
    fn corrupt_rejects_out_of_range_placement() {
        let f = fabric(4, 4);
        f.corrupt_permuted(&Matrix::zeros(4, 4), Some(&[0, 1, 2, 32]));
    }

    #[test]
    #[should_panic(expected = "overlay built for a different fabric shape")]
    fn read_through_rejects_foreign_overlay() {
        let overlay = fabric(8, 4).fault_overlay(None);
        fabric(4, 4).read_through(&Matrix::zeros(4, 4), &overlay);
    }

    #[test]
    #[should_panic(expected = "must be a multiple")]
    fn rejects_indivisible_crossbar() {
        WeightFabric::for_shape(4, 4, 12, FixedFormat::default());
    }
}
