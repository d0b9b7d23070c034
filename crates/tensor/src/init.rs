//! Weight initialisers.
//!
//! All initialisers take an explicit [`fare_rt::rand::Rng`] so experiments are
//! reproducible from a seed.

use fare_rt::rand::Rng;

use crate::Matrix;

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// # Example
///
/// ```
/// use fare_tensor::init;
/// use fare_rt::rand::SeedableRng;
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(7);
/// let w = init::xavier_uniform(64, 32, &mut rng);
/// assert_eq!(w.shape(), (64, 32));
/// let a = (6.0f32 / 96.0).sqrt();
/// assert!(w.iter().all(|v| v.abs() <= a));
/// ```
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..=a))
}

/// Uniform initialisation in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Matrix {
    assert!(lo < hi, "invalid uniform range [{lo}, {hi})");
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Standard normal initialisation scaled by `std` (Box–Muller).
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        // Box–Muller transform; avoids pulling in rand_distr.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    })
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    #[test]
    fn xavier_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(10, 20, &mut rng);
        let a = (6.0f32 / 30.0).sqrt();
        assert!(w.iter().all(|v| v.abs() <= a + 1e-6));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let w1 = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(42));
        let w2 = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(w1, w2);
    }

    #[test]
    fn normal_mean_approximately_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = normal(100, 100, 1.0, &mut rng);
        assert!(w.mean().abs() < 0.05, "mean {}", w.mean());
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_bad_range_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        uniform(1, 1, 1.0, 1.0, &mut rng);
    }
}
