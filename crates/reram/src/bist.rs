//! Built-in self-test (BIST) fault detection.
//!
//! The paper assumes a BIST circuit (per Xia et al., TCAD'19) that can
//! locate every stuck-at fault, runs once before deployment and once per
//! epoch afterwards, and costs ~0.13 % extra area / execution time. In
//! simulation detection is exact: a scan simply snapshots the ground-truth
//! fault state into a [`FaultMap`]. What matters architecturally is the
//! *interface* — the mapping algorithm only ever sees BIST output, never
//! the simulator's internals — and the per-epoch timing charge, which the
//! [`crate::timing`] model accounts for.

use fare_tensor::fixed::StuckPolarity;

use crate::CrossbarArray;

/// Snapshot of all detected faults, one sparse list per crossbar.
#[derive(Debug, Clone)]
pub struct FaultMap {
    n: usize,
    /// `per_crossbar[j]` = sorted `(row, col, polarity)` triples.
    per_crossbar: Vec<Vec<(usize, usize, StuckPolarity)>>,
}

impl FaultMap {
    /// Crossbar dimension the map was scanned from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of crossbars covered.
    pub fn num_crossbars(&self) -> usize {
        self.per_crossbar.len()
    }

    /// Detected faults of crossbar `j`, sorted by `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn crossbar_faults(&self, j: usize) -> &[(usize, usize, StuckPolarity)] {
        &self.per_crossbar[j]
    }

    /// Total detected faults.
    pub fn fault_count(&self) -> usize {
        self.per_crossbar.iter().map(Vec::len).sum()
    }

    /// Detected fault density over all scanned cells.
    pub fn density(&self) -> f64 {
        let cells = self.num_crossbars() * self.n * self.n;
        if cells == 0 {
            0.0
        } else {
            self.fault_count() as f64 / cells as f64
        }
    }

    /// Faults present in `self` but not in `earlier` — i.e. the faults
    /// that appeared between two BIST scans (post-deployment faults).
    ///
    /// # Panics
    ///
    /// Panics if the two maps cover different geometry.
    pub fn new_faults_since(
        &self,
        earlier: &FaultMap,
    ) -> Vec<(usize, usize, usize, StuckPolarity)> {
        assert_eq!(self.n, earlier.n, "fault map geometry mismatch");
        assert_eq!(
            self.per_crossbar.len(),
            earlier.per_crossbar.len(),
            "fault map crossbar count mismatch"
        );
        let mut out = Vec::new();
        for (j, (now, before)) in self
            .per_crossbar
            .iter()
            .zip(&earlier.per_crossbar)
            .enumerate()
        {
            let old: std::collections::HashSet<(usize, usize)> =
                before.iter().map(|&(r, c, _)| (r, c)).collect();
            for &(r, c, p) in now {
                if !old.contains(&(r, c)) {
                    out.push((j, r, c, p));
                }
            }
        }
        out
    }
}

/// The BIST scan engine.
///
/// # Example
///
/// ```
/// use fare_reram::{Bist, CrossbarArray, FaultSpec};
/// use fare_rt::rand::SeedableRng;
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(0);
/// let mut array = CrossbarArray::new(4, 16);
/// array.inject(&FaultSpec::density(0.05), &mut rng);
/// let map = Bist::scan(&array);
/// assert_eq!(map.fault_count(), array.fault_count());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bist;

impl Bist {
    /// Scans the array and returns the complete fault map.
    pub fn scan(array: &CrossbarArray) -> FaultMap {
        let per_crossbar = array
            .iter()
            .map(|xbar| {
                let mut faults = Vec::with_capacity(xbar.fault_count());
                for r in 0..xbar.n() {
                    for &(c, p) in xbar.row_faults(r) {
                        faults.push((r, c, p));
                    }
                }
                faults
            })
            .collect();
        FaultMap {
            n: array.n(),
            per_crossbar,
        }
    }

    /// Fractional execution-time overhead of one scan (paper: ~0.13 %).
    pub fn time_overhead_fraction() -> f64 {
        0.0013
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::FaultSpec;

    fn faulty_array(seed: u64, density: f64) -> CrossbarArray {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut array = CrossbarArray::new(6, 16);
        array.inject(&FaultSpec::density(density), &mut rng);
        array
    }

    #[test]
    fn scan_detects_every_fault() {
        let array = faulty_array(1, 0.05);
        let map = Bist::scan(&array);
        assert_eq!(map.fault_count(), array.fault_count());
        assert_eq!(map.num_crossbars(), array.len());
        for j in 0..array.len() {
            for &(r, c, p) in map.crossbar_faults(j) {
                assert_eq!(array.crossbar(j).fault_at(r, c), Some(p));
            }
        }
    }

    #[test]
    fn scan_of_clean_array_is_empty() {
        let array = CrossbarArray::new(3, 8);
        let map = Bist::scan(&array);
        assert_eq!(map.fault_count(), 0);
        assert_eq!(map.density(), 0.0);
    }

    #[test]
    fn density_matches_array() {
        let array = faulty_array(2, 0.03);
        let map = Bist::scan(&array);
        assert!((map.density() - array.fault_density()).abs() < 1e-12);
    }

    #[test]
    fn new_faults_since_detects_post_deployment() {
        let mut array = faulty_array(3, 0.02);
        let before = Bist::scan(&array);
        let mut rng = StdRng::seed_from_u64(4);
        array.inject(&FaultSpec::density(0.01), &mut rng);
        let after = Bist::scan(&array);
        let fresh = after.new_faults_since(&before);
        assert_eq!(fresh.len(), after.fault_count() - before.fault_count());
        // Every reported fresh fault really is new.
        for &(j, r, c, _) in &fresh {
            assert!(!before
                .crossbar_faults(j)
                .iter()
                .any(|&(br, bc, _)| br == r && bc == c));
        }
    }

    #[test]
    fn new_faults_since_empty_when_unchanged() {
        let array = faulty_array(5, 0.02);
        let a = Bist::scan(&array);
        let b = Bist::scan(&array);
        assert!(b.new_faults_since(&a).is_empty());
    }

    #[test]
    fn overhead_constant_matches_paper() {
        assert!((Bist::time_overhead_fraction() - 0.0013).abs() < 1e-12);
    }
}
