use fare_rt::rand::Rng;

use fare_tensor::fixed::StuckPolarity;

use crate::{poisson_sample, Crossbar, FaultSpec};

/// A bank of identically sized crossbars — the resource pool the FARe
/// mapping algorithm assigns adjacency blocks to.
///
/// Fault injection follows the paper's model: per-crossbar fault counts
/// are Poisson-distributed (clustered fault centres make some crossbars
/// much worse than others) and fault positions are uniform within a
/// crossbar.
///
/// # Example
///
/// ```
/// use fare_reram::{CrossbarArray, FaultSpec};
/// use fare_rt::rand::SeedableRng;
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(9);
/// let mut array = CrossbarArray::new(16, 32);
/// array.inject(&FaultSpec::with_ratio(0.03, 9.0, 1.0), &mut rng);
/// assert!((array.fault_density() - 0.03).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    n: usize,
    crossbars: Vec<Crossbar>,
}

impl CrossbarArray {
    /// Creates `count` fault-free `n × n` crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `n == 0`.
    pub fn new(count: usize, n: usize) -> Self {
        assert!(count > 0, "need at least one crossbar");
        Self {
            n,
            crossbars: vec![Crossbar::new(n); count],
        }
    }

    /// Crossbar dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of crossbars.
    pub fn len(&self) -> usize {
        self.crossbars.len()
    }

    /// Always `false` (construction requires at least one crossbar);
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.crossbars.is_empty()
    }

    /// Borrows crossbar `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crossbar(&self, i: usize) -> &Crossbar {
        &self.crossbars[i]
    }

    /// Mutably borrows crossbar `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crossbar_mut(&mut self, i: usize) -> &mut Crossbar {
        &mut self.crossbars[i]
    }

    /// Iterates over the crossbars.
    pub fn iter(&self) -> std::slice::Iter<'_, Crossbar> {
        self.crossbars.iter()
    }

    /// Injects stuck-at faults per `spec`.
    ///
    /// Injection is **additive**: calling this again models
    /// post-deployment faults appearing on top of the existing ones
    /// (endurance wear-out). A fault landing on an already stuck cell
    /// overwrites its polarity.
    pub fn inject(&mut self, spec: &FaultSpec, rng: &mut impl Rng) {
        let lambda = spec.density * (self.n * self.n) as f64;
        for xbar in &mut self.crossbars {
            let count = poisson_sample(lambda, rng);
            let mut placed = 0usize;
            let mut attempts = 0usize;
            let budget = count.saturating_mul(20).max(64);
            while placed < count && attempts < budget {
                attempts += 1;
                let r = rng.gen_range(0..self.n);
                let c = rng.gen_range(0..self.n);
                if xbar.fault_at(r, c).is_some() {
                    continue; // keep the effective density additive
                }
                let pol = if rng.gen_bool(spec.sa1_fraction) {
                    StuckPolarity::StuckAtOne
                } else {
                    StuckPolarity::StuckAtZero
                };
                xbar.inject_fault(r, c, pol);
                placed += 1;
            }
        }
    }

    /// Total stuck cells across all crossbars.
    pub fn fault_count(&self) -> usize {
        self.crossbars.iter().map(Crossbar::fault_count).sum()
    }

    /// Fraction of all cells that are stuck.
    pub fn fault_density(&self) -> f64 {
        self.fault_count() as f64 / (self.crossbars.len() * self.n * self.n) as f64
    }

    /// Total SA1 cells.
    pub fn sa1_count(&self) -> usize {
        self.crossbars.iter().map(Crossbar::sa1_count).sum()
    }

    /// Total SA0 cells.
    pub fn sa0_count(&self) -> usize {
        self.crossbars.iter().map(Crossbar::sa0_count).sum()
    }

    /// Clears all faults from every crossbar.
    pub fn clear_faults(&mut self) {
        for x in &mut self.crossbars {
            x.clear_faults();
        }
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    #[test]
    fn injection_hits_target_density() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut array = CrossbarArray::new(32, 32);
        array.inject(&FaultSpec::density(0.05), &mut rng);
        assert!(
            (array.fault_density() - 0.05).abs() < 0.01,
            "{}",
            array.fault_density()
        );
    }

    #[test]
    fn ratio_nine_to_one_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut array = CrossbarArray::new(64, 32);
        array.inject(&FaultSpec::with_ratio(0.05, 9.0, 1.0), &mut rng);
        let sa1_frac = array.sa1_count() as f64 / array.fault_count() as f64;
        assert!((sa1_frac - 0.1).abs() < 0.03, "sa1 fraction {sa1_frac}");
    }

    #[test]
    fn poisson_clustering_creates_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut array = CrossbarArray::new(100, 32);
        array.inject(&FaultSpec::density(0.02), &mut rng);
        let counts: Vec<usize> = array.iter().map(Crossbar::fault_count).collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        // Poisson(20.48) over 100 draws: spread should be visible.
        assert!(max > min, "no clustering variance: min={min} max={max}");
    }

    #[test]
    fn additive_injection_increases_density() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut array = CrossbarArray::new(16, 32);
        array.inject(&FaultSpec::density(0.02), &mut rng);
        let before = array.fault_count();
        array.inject(&FaultSpec::density(0.01), &mut rng);
        assert!(array.fault_count() > before);
        assert!((array.fault_density() - 0.03).abs() < 0.01);
    }

    #[test]
    fn zero_density_injects_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut array = CrossbarArray::new(4, 16);
        array.inject(&FaultSpec::fault_free(), &mut rng);
        assert_eq!(array.fault_count(), 0);
    }

    #[test]
    fn sa1_only_spec() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut array = CrossbarArray::new(8, 32);
        array.inject(&FaultSpec::density(0.05).sa1_only(), &mut rng);
        assert_eq!(array.sa0_count(), 0);
        assert!(array.sa1_count() > 0);
    }

    #[test]
    fn clear_faults_resets_all() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut array = CrossbarArray::new(4, 16);
        array.inject(&FaultSpec::density(0.05), &mut rng);
        array.clear_faults();
        assert_eq!(array.fault_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one crossbar")]
    fn empty_array_rejected() {
        CrossbarArray::new(0, 8);
    }
}
