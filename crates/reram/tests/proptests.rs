//! Property-based tests for the ReRAM substrate.

use fare_reram::weights::WeightFabric;
use fare_reram::{Crossbar, CrossbarArray, FaultSpec, StuckPolarity};
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;
use fare_tensor::{FixedFormat, Matrix};

fn faulty_crossbar(n: usize, seed: u64, density: f64) -> Crossbar {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut array = CrossbarArray::new(1, n);
    array.inject(&FaultSpec::with_sa1_fraction(density, 0.5), &mut rng);
    array.crossbar(0).clone()
}

fn binary_matrix(n: usize, seed: u64, p: f64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |_, _| {
        if fare_rt::rand::Rng::gen_bool(&mut rng, p) {
            1.0
        } else {
            0.0
        }
    })
}

proptest! {
    #[test]
    fn read_binary_output_is_binary(
        seed in 0u64..500,
        density in 0.0f64..0.2,
        p in 0.0f64..0.5,
    ) {
        let xbar = faulty_crossbar(16, seed, density);
        let stored = binary_matrix(16, seed ^ 1, p);
        let read = xbar.read_binary(&stored, None);
        prop_assert!(read.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn mismatch_count_equals_read_diff(
        seed in 0u64..500,
        density in 0.0f64..0.2,
        p in 0.0f64..0.5,
    ) {
        let xbar = faulty_crossbar(16, seed, density);
        let stored = binary_matrix(16, seed ^ 2, p);
        let read = xbar.read_binary(&stored, None);
        let diff = stored
            .iter()
            .zip(read.iter())
            .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
            .count();
        prop_assert_eq!(xbar.mismatch_count(&stored, None), diff);
    }

    #[test]
    fn mismatch_bounded_by_fault_count(
        seed in 0u64..500,
        density in 0.0f64..0.2,
        p in 0.0f64..0.9,
    ) {
        let xbar = faulty_crossbar(16, seed, density);
        let stored = binary_matrix(16, seed ^ 3, p);
        prop_assert!(xbar.mismatch_count(&stored, None) <= xbar.fault_count());
    }

    #[test]
    fn row_mismatch_sums_to_total(
        seed in 0u64..300,
        density in 0.0f64..0.15,
        p in 0.0f64..0.5,
    ) {
        let xbar = faulty_crossbar(16, seed, density);
        let stored = binary_matrix(16, seed ^ 4, p);
        let per_row: usize = (0..16).map(|r| xbar.row_mismatch(stored.row(r), r)).sum();
        prop_assert_eq!(per_row, xbar.mismatch_count(&stored, None));
    }

    #[test]
    fn permutation_preserves_mismatch_multiset(
        seed in 0u64..300,
        density in 0.0f64..0.15,
        shift in 0usize..16,
    ) {
        // Rotating the rows of a *uniform* matrix cannot change the cost:
        // each physical row sees the same stored content either way.
        let xbar = faulty_crossbar(16, seed, density);
        let ones = Matrix::filled(16, 16, 1.0);
        let perm: Vec<usize> = (0..16).map(|i| (i + shift) % 16).collect();
        prop_assert_eq!(
            xbar.mismatch_count(&ones, None),
            xbar.mismatch_count(&ones, Some(&perm))
        );
    }

    #[test]
    fn weight_corruption_affects_only_faulty_words(
        seed in 0u64..200,
        value in -2.0f32..2.0,
    ) {
        let mut fabric = WeightFabric::for_shape(16, 4, 16, FixedFormat::default());
        let mut rng = StdRng::seed_from_u64(seed);
        fabric.inject(&FaultSpec::density(0.05), &mut rng);
        let w = Matrix::filled(16, 4, value);
        let out = fabric.corrupt(&w);
        let fmt = fabric.format();
        // Words without any fault must read back exactly the quantised
        // value; we verify by counting: changed words <= fault count.
        let changed = w
            .iter()
            .zip(out.iter())
            .filter(|(a, b)| (fmt.quantise(**a) - **b).abs() > 1e-9)
            .count();
        prop_assert!(changed <= fabric.array().fault_count());
    }

    #[test]
    fn sa1_clip_interaction(
        seed in 0u64..200,
        value in -0.9f32..0.9,
    ) {
        // An SA1 MSB fault explodes any small weight beyond |1|; clipping
        // at 1 therefore always binds on that word.
        let mut fabric = WeightFabric::for_shape(16, 4, 16, FixedFormat::default());
        let cell = (seed % 2) as usize; // MSB or next cell
        fabric
            .array_mut()
            .crossbar_mut(0)
            .inject_fault(0, cell, StuckPolarity::StuckAtOne);
        let w = Matrix::filled(16, 4, value);
        let out = fabric.corrupt(&w);
        prop_assert!(out[(0, 0)].abs() > 1.0, "no explosion: {}", out[(0, 0)]);
    }

    #[test]
    fn injection_density_tracks_spec(density in 0.0f64..0.08) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut array = CrossbarArray::new(64, 32);
        array.inject(&FaultSpec::density(density), &mut rng);
        let measured = array.fault_density();
        prop_assert!(
            (measured - density).abs() < density * 0.4 + 0.003,
            "target {density}, measured {measured}"
        );
    }
}
