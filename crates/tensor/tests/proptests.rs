//! Property-based tests for the tensor crate.

use fare_rt::prop::prelude::*;
use fare_tensor::fixed::{apply_cell_fault, StuckPolarity, CELLS_PER_WORD};
use fare_tensor::{ops, CellWord, Fixed16, FixedFormat, Matrix};

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        fare_rt::prop::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_and_right(m in small_matrix(10)) {
        let il = Matrix::identity(m.rows());
        let ir = Matrix::identity(m.cols());
        prop_assert_eq!(il.matmul(&m), m.clone());
        prop_assert_eq!(m.matmul(&ir), m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        dims in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (m, k, n) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed);
        let mut rnd = |r: usize, c: usize| {
            Matrix::from_fn(r, c, |_, _| rng.gen_range(-2.0f32..2.0))
        };
        let a = rnd(m, k);
        let b = rnd(k, n);
        let c = rnd(k, n);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul(
        dims in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (m, k, n) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(k, m, |_, _| rng.gen_range(-2.0f32..2.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0f32..2.0));
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.iter().zip(slow.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_are_probability_distributions(m in small_matrix(8)) {
        let s = ops::softmax_rows(&m);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn clip_never_exceeds_limit(m in small_matrix(8), limit in 0.0f32..50.0) {
        let mut c = m;
        c.clip_inplace(limit);
        prop_assert!(c.iter().all(|v| v.abs() <= limit + 1e-6));
    }

    #[test]
    fn fixed_round_trip_error_bounded(v in -50.0f32..50.0, frac in 4u32..12) {
        let fmt = FixedFormat::new(frac);
        if v.abs() < fmt.max_value() {
            let err = (fmt.quantise(v) - v).abs();
            prop_assert!(err <= fmt.resolution(), "err {err} res {}", fmt.resolution());
        }
    }

    #[test]
    fn cell_word_round_trip(v in (-i16::MAX)..=i16::MAX) {
        // Sign-magnitude cannot represent i16::MIN, which the FixedFormat
        // encoder never produces; every other value round-trips exactly.
        let w = CellWord::from_fixed(Fixed16(v));
        prop_assert_eq!(w.to_fixed(), Fixed16(v));
    }

    #[test]
    fn sa0_never_increases_magnitude_prop(
        v in -60.0f32..60.0,
        cell in 0usize..CELLS_PER_WORD,
    ) {
        // The Fig. 3 asymmetry: stuck-at-0 can only shrink a weight's
        // magnitude (it clears sign/magnitude bits), never explode it.
        let fmt = FixedFormat::default();
        let faulty = apply_cell_fault(v, fmt, cell, StuckPolarity::StuckAtZero);
        prop_assert!(faulty.abs() <= v.abs() + fmt.resolution());
    }

    #[test]
    fn cell_fault_is_idempotent(
        v in -10.0f32..10.0,
        cell in 0usize..CELLS_PER_WORD,
        sa1 in any::<bool>(),
    ) {
        let fmt = FixedFormat::default();
        let pol = if sa1 { StuckPolarity::StuckAtOne } else { StuckPolarity::StuckAtZero };
        let once = apply_cell_fault(v, fmt, cell, pol);
        let twice = apply_cell_fault(once, fmt, cell, pol);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn gcn_normalise_row_sums_bounded(seed in 0u64..500, n in 2usize..10) {
        use fare_rt::rand::{Rng, SeedableRng};
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed);
        let mut adj = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.4) {
                    adj[(i, j)] = 1.0;
                    adj[(j, i)] = 1.0;
                }
            }
        }
        let norm = ops::gcn_normalise(&adj);
        // Symmetric normalisation keeps entries in [0, 1] and the matrix
        // symmetric.
        for i in 0..n {
            for j in 0..n {
                prop_assert!((norm[(i, j)] - norm[(j, i)]).abs() < 1e-6);
                prop_assert!(norm[(i, j)] >= 0.0 && norm[(i, j)] <= 1.0 + 1e-6);
            }
        }
    }
}

/// Bitwise view of a matrix so thread-count comparisons catch even a
/// single reordered floating-point reduction.
fn bits(m: &Matrix) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

// The dense matmul family is serial: its results must not depend on the
// worker-pool thread count, bit for bit (C-DETERMINISM).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_thread_invariant(
        dims in (1usize..20, 1usize..20, 1usize..20),
        seed in 0u64..1000,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (m, k, n) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0f32..2.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0f32..2.0));
        let at = a.transpose();
        let bt = b.transpose();
        let run = |t: usize| {
            fare_rt::par::set_threads(t);
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        fare_rt::par::set_threads(0);
        for par in [&two, &eight] {
            prop_assert_eq!(bits(&one.0), bits(&par.0));
            prop_assert_eq!(bits(&one.1), bits(&par.1));
            prop_assert_eq!(bits(&one.2), bits(&par.2));
        }
        // The three formulations share one accumulation order, so they
        // agree bitwise with each other too.
        prop_assert_eq!(bits(&one.0), bits(&one.1));
        prop_assert_eq!(bits(&one.0), bits(&one.2));
    }
}
