//! The stuck-at-fault statistical model (paper Section V-A).
//!
//! Faults cluster around fault centres, so the paper draws the *number*
//! of faults per crossbar from a Poisson distribution and places them
//! uniformly *within* each crossbar. The SA0:SA1 ratio defaults to 9:1
//! (SA0 nine times likelier) with 1:1 as the alternative scenario.

use fare_rt::rand::Rng;

/// Statistical description of a stuck-at-fault injection campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fraction of all cells that are faulty (paper sweeps 0–5 %).
    pub density: f64,
    /// Fraction of faults that are stuck-at-1 (0.1 for the 9:1 ratio,
    /// 0.5 for 1:1, 1.0 for an SA1-only study).
    pub sa1_fraction: f64,
}

fare_rt::json_struct_to!(FaultSpec {
    density,
    sa1_fraction
});

impl FaultSpec {
    /// Fault spec with the paper's default 9:1 SA0:SA1 ratio.
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `[0, 1]`.
    ///
    /// # Example
    ///
    /// ```
    /// use fare_reram::FaultSpec;
    /// let spec = FaultSpec::density(0.05);
    /// assert_eq!(spec.sa1_fraction, 0.1);
    /// ```
    pub fn density(density: f64) -> Self {
        Self::with_sa1_fraction(density, 0.1)
    }

    /// Fault spec with an explicit SA1 fraction.
    ///
    /// # Panics
    ///
    /// Panics if either argument is outside `[0, 1]`.
    pub fn with_sa1_fraction(density: f64, sa1_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&density),
            "density out of range: {density}"
        );
        assert!(
            (0.0..=1.0).contains(&sa1_fraction),
            "sa1_fraction out of range: {sa1_fraction}"
        );
        Self {
            density,
            sa1_fraction,
        }
    }

    /// Fault spec from an `SA0:SA1` ratio pair, e.g. `(9.0, 1.0)`.
    ///
    /// # Panics
    ///
    /// Panics if both ratio components are zero or any argument is
    /// negative.
    pub fn with_ratio(density: f64, sa0: f64, sa1: f64) -> Self {
        assert!(
            sa0 >= 0.0 && sa1 >= 0.0 && sa0 + sa1 > 0.0,
            "invalid ratio {sa0}:{sa1}"
        );
        Self::with_sa1_fraction(density, sa1 / (sa0 + sa1))
    }

    /// A spec with zero faults.
    pub fn fault_free() -> Self {
        Self {
            density: 0.0,
            sa1_fraction: 0.1,
        }
    }

    /// SA0-only variant of this spec (for the Fig. 3 severity study).
    pub fn sa0_only(self) -> Self {
        Self {
            sa1_fraction: 0.0,
            ..self
        }
    }

    /// SA1-only variant of this spec (for the Fig. 3 severity study).
    pub fn sa1_only(self) -> Self {
        Self {
            sa1_fraction: 1.0,
            ..self
        }
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::fault_free()
    }
}

/// Draws a Poisson-distributed sample with mean `lambda`.
///
/// Knuth's multiplication method for small means, normal approximation
/// (rounded, clamped at zero) for large means. Implemented here to avoid
/// an extra dependency on `rand_distr`.
///
/// # Panics
///
/// Panics if `lambda` is negative or non-finite.
pub fn poisson_sample(lambda: f64, rng: &mut impl Rng) -> usize {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "invalid lambda {lambda}"
    );
    fare_obs::counters::RERAM_POISSON_SAMPLES.incr();
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation N(lambda, lambda).
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    #[test]
    fn ratio_constructor_nine_to_one() {
        let spec = FaultSpec::with_ratio(0.03, 9.0, 1.0);
        assert!((spec.sa1_fraction - 0.1).abs() < 1e-12);
        assert_eq!(spec.density, 0.03);
    }

    #[test]
    fn ratio_constructor_one_to_one() {
        let spec = FaultSpec::with_ratio(0.05, 1.0, 1.0);
        assert!((spec.sa1_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn polarity_only_variants() {
        let spec = FaultSpec::density(0.05);
        assert_eq!(spec.sa0_only().sa1_fraction, 0.0);
        assert_eq!(spec.sa1_only().sa1_fraction, 1.0);
        assert_eq!(spec.sa0_only().density, 0.05);
    }

    #[test]
    fn fault_free_has_zero_density() {
        assert_eq!(FaultSpec::fault_free().density, 0.0);
        assert_eq!(FaultSpec::default().density, 0.0);
    }

    #[test]
    #[should_panic(expected = "density out of range")]
    fn rejects_bad_density() {
        FaultSpec::density(1.5);
    }

    #[test]
    #[should_panic(expected = "invalid ratio")]
    fn rejects_zero_ratio() {
        FaultSpec::with_ratio(0.01, 0.0, 0.0);
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(poisson_sample(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let lambda = 3.5;
        let mean: f64 = (0..n)
            .map(|_| poisson_sample(lambda, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let lambda = 200.0;
        let samples: Vec<f64> = (0..n)
            .map(|_| poisson_sample(lambda, &mut rng) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 3.0, "mean {mean}");
        // Poisson variance ≈ lambda.
        assert!((var - lambda).abs() < 20.0, "var {var}");
    }
}
