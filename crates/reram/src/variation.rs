//! Conductance-variation model (extension beyond the paper's SAF focus).
//!
//! Stuck-at faults are the most severe ReRAM non-ideality, but the
//! paper's related work (He et al., DAC'19) lists device-to-device
//! variation and noise as the other sources of unreliable computation.
//! This module models **programming variation**: each stored weight's
//! conductance deviates from its target by a static, multiplicative
//! log-normal factor `exp(σ·z)`, `z ~ N(0, 1)` — positive by
//! construction (conductances cannot change sign) and centred near 1.
//!
//! The field is drawn once at programming time and stays fixed (like a
//! pre-deployment fault pattern), composing with stuck-at corruption in
//! [`crate::weights::WeightFabric`]-based readers.

use fare_rt::rand::Rng;
use fare_tensor::Matrix;

/// Statistical description of programming variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Log-normal σ of the conductance factor (0 = ideal programming;
    /// real devices are typically 0.05–0.3).
    pub sigma: f64,
}

impl VariationSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid sigma {sigma}");
        Self { sigma }
    }
}

/// A frozen per-weight multiplicative variation field.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationField {
    factors: Matrix,
}

impl VariationField {
    /// Draws a `rows × cols` field from `spec`.
    ///
    /// # Example
    ///
    /// ```
    /// use fare_reram::variation::{VariationField, VariationSpec};
    /// use fare_rt::rand::SeedableRng;
    /// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(1);
    /// let field = VariationField::generate(8, 8, &VariationSpec::new(0.1), &mut rng);
    /// assert!(field.factors().iter().all(|&f| f > 0.0));
    /// ```
    pub fn generate(rows: usize, cols: usize, spec: &VariationSpec, rng: &mut impl Rng) -> Self {
        let factors = Matrix::from_fn(rows, cols, |_, _| {
            if spec.sigma == 0.0 {
                1.0
            } else {
                // Box–Muller standard normal.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (spec.sigma * z).exp() as f32
            }
        });
        Self { factors }
    }

    /// The per-weight factors.
    pub fn factors(&self) -> &Matrix {
        &self.factors
    }

    /// Applies the field: each weight's *magnitude* is scaled by its
    /// factor (sign preserved — variation affects conductance, not the
    /// differential pair's polarity).
    ///
    /// # Panics
    ///
    /// Panics if `weights` has a different shape.
    pub fn apply(&self, weights: &Matrix) -> Matrix {
        assert_eq!(weights.shape(), self.factors.shape(), "shape mismatch");
        weights.zip_map(&self.factors, |w, f| w * f)
    }

    /// Compounds conductance **drift** onto the field: each factor is
    /// multiplied by a fresh log-normal sample of width `sigma`.
    ///
    /// Called once per epoch, this models retention drift — conductances
    /// wander further from their programmed targets the longer a cell
    /// goes without reprogramming (the temporal sibling of the paper's
    /// post-deployment faults).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn drift(&mut self, sigma: f64, rng: &mut impl Rng) {
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid sigma {sigma}");
        if sigma == 0.0 {
            return;
        }
        let (rows, cols) = self.factors.shape();
        let step = VariationField::generate(rows, cols, &VariationSpec::new(sigma), rng);
        self.factors = self.factors.zip_map(step.factors(), |a, b| a * b);
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let field = VariationField::generate(4, 4, &VariationSpec::new(0.0), &mut rng);
        let w = Matrix::from_fn(4, 4, |r, c| (r + c) as f32 - 3.0);
        assert_eq!(field.apply(&w), w);
    }

    #[test]
    fn factors_positive_and_centred() {
        let mut rng = StdRng::seed_from_u64(2);
        let field = VariationField::generate(50, 50, &VariationSpec::new(0.1), &mut rng);
        assert!(field.factors().iter().all(|&f| f > 0.0));
        let mean = field.factors().mean();
        // Log-normal mean is exp(σ²/2) ≈ 1.005 for σ = 0.1.
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn sign_is_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let field = VariationField::generate(10, 10, &VariationSpec::new(0.3), &mut rng);
        let w = Matrix::from_fn(10, 10, |r, c| if (r + c) % 2 == 0 { 0.5 } else { -0.5 });
        let out = field.apply(&w);
        for (a, b) in w.iter().zip(out.iter()) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let a = VariationField::generate(
            6,
            6,
            &VariationSpec::new(0.2),
            &mut StdRng::seed_from_u64(7),
        );
        let b = VariationField::generate(
            6,
            6,
            &VariationSpec::new(0.2),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn larger_sigma_spreads_more() {
        let spread = |sigma: f64| {
            let mut rng = StdRng::seed_from_u64(9);
            let f = VariationField::generate(40, 40, &VariationSpec::new(sigma), &mut rng);
            f.factors().max() - f.factors().min()
        };
        assert!(spread(0.3) > spread(0.05));
    }

    #[test]
    fn drift_compounds_spread() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut field = VariationField::generate(30, 30, &VariationSpec::new(0.05), &mut rng);
        let spread = |f: &VariationField| f.factors().max() - f.factors().min();
        let before = spread(&field);
        for _ in 0..20 {
            field.drift(0.05, &mut rng);
        }
        assert!(spread(&field) > before, "drift should widen the field");
    }

    #[test]
    fn zero_drift_is_noop() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut field = VariationField::generate(5, 5, &VariationSpec::new(0.1), &mut rng);
        let snapshot = field.clone();
        field.drift(0.0, &mut rng);
        assert_eq!(field, snapshot);
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn rejects_negative_sigma() {
        VariationSpec::new(-0.1);
    }
}
