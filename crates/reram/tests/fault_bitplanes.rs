//! Property tests pinning a crossbar's packed SA0/SA1 fault planes, its
//! only fault state, to a naive per-cell model.
//!
//! The mapping and the corruption paths trust three things about
//! `Crossbar`:
//!
//! 1. everything read from the planes equals the naive model: the
//!    planes themselves (`fault_bits` / `sa0_row_bits` / `sa1_row_bits`),
//!    the per-row walk `row_faults`, the cell query `fault_at` and the
//!    three popcount totals,
//! 2. the popcount mismatch kernels (`row_mismatch_packed`,
//!    `row_sa1_mismatch_packed`) equal a per-cell recount,
//! 3. `fault_version` ticks on **every** mutation (the `RemapCache`
//!    invalidation rule) and only on mutations.
//!
//! Each property drives a random *mutation sequence* — interleaved
//! injections (both polarities, including overwrites of the same cell)
//! and full clears — and rechecks the invariants after every step, so a
//! stale bit left by an overwrite or a clear cannot hide behind a
//! single-shot construction.

use fare_reram::bits::PackedRows;
use fare_reram::{Crossbar, StuckPolarity};
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::Matrix;

/// The naive model: a dense `n × n` map of `Option<StuckPolarity>`.
#[derive(Clone)]
struct NaiveFaults {
    n: usize,
    cells: Vec<Option<StuckPolarity>>,
}

impl NaiveFaults {
    fn new(n: usize) -> Self {
        NaiveFaults {
            n,
            cells: vec![None; n * n],
        }
    }

    fn inject(&mut self, r: usize, c: usize, pol: StuckPolarity) {
        self.cells[r * self.n + c] = Some(pol);
    }

    fn clear(&mut self) {
        self.cells.fill(None);
    }

    fn count(&self, pol: StuckPolarity) -> usize {
        self.cells.iter().filter(|&&f| f == Some(pol)).count()
    }

    /// Per-cell mismatch recount for binary `stored` read through the
    /// faults of physical row `phys`: SA0 under a stored 1, SA1 under a
    /// stored 0.
    fn row_mismatch(&self, stored: &Matrix, logical: usize, phys: usize) -> usize {
        (0..stored.cols())
            .filter(|&c| match self.cells[phys * self.n + c] {
                Some(StuckPolarity::StuckAtZero) => stored[(logical, c)] > 0.5,
                Some(StuckPolarity::StuckAtOne) => stored[(logical, c)] <= 0.5,
                None => false,
            })
            .count()
    }

    fn row_sa1_mismatch(&self, stored: &Matrix, logical: usize, phys: usize) -> usize {
        (0..stored.cols())
            .filter(|&c| {
                self.cells[phys * self.n + c] == Some(StuckPolarity::StuckAtOne)
                    && stored[(logical, c)] <= 0.5
            })
            .count()
    }
}

/// Asserts every packed-plane invariant of `xbar` against `naive`.
fn check_planes(xbar: &Crossbar, naive: &NaiveFaults) {
    let n = xbar.n();
    let words = xbar.words();
    let (sa0, sa1) = xbar.fault_bits();

    // The totals equal the per-cell recount…
    prop_assert_eq!(xbar.sa0_count(), naive.count(StuckPolarity::StuckAtZero));
    prop_assert_eq!(xbar.sa1_count(), naive.count(StuckPolarity::StuckAtOne));
    prop_assert_eq!(xbar.fault_count(), xbar.sa0_count() + xbar.sa1_count());
    // …and so does the popcount of the packed planes.
    let pop = |bits: &[u64]| bits.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    prop_assert_eq!(pop(sa0), xbar.sa0_count());
    prop_assert_eq!(pop(sa1), xbar.sa1_count());

    for r in 0..n {
        prop_assert_eq!(&sa0[r * words..(r + 1) * words], xbar.sa0_row_bits(r));
        prop_assert_eq!(&sa1[r * words..(r + 1) * words], xbar.sa1_row_bits(r));
        // The row walk yields the naive row's faults, sorted by column.
        let naive_row: Vec<(usize, StuckPolarity)> = (0..n)
            .filter_map(|c| naive.cells[r * n + c].map(|p| (c, p)))
            .collect();
        prop_assert_eq!(xbar.row_faults(r).collect::<Vec<_>>(), naive_row);
        for c in 0..n {
            let bit0 = sa0[r * words + c / 64] >> (c % 64) & 1 == 1;
            let bit1 = sa1[r * words + c / 64] >> (c % 64) & 1 == 1;
            let expect = naive.cells[r * n + c];
            prop_assert_eq!(
                bit0,
                expect == Some(StuckPolarity::StuckAtZero),
                "sa0 bit ({}, {})",
                r,
                c
            );
            prop_assert_eq!(
                bit1,
                expect == Some(StuckPolarity::StuckAtOne),
                "sa1 bit ({}, {})",
                r,
                c
            );
            prop_assert_eq!(xbar.fault_at(r, c), expect);
        }
    }
}

/// Asserts the popcount mismatch kernels equal the naive recount (and
/// the unpacked slice kernels) for a random stored block.
fn check_kernels(xbar: &Crossbar, naive: &NaiveFaults, stored: &Matrix) {
    let packed = PackedRows::from_matrix(stored);
    for logical in 0..stored.rows() {
        // Logical row `logical` written to physical row `logical` …
        for phys in [logical, (logical + 7) % xbar.n()] {
            // … and to a shifted physical row (permutations matter).
            let naive_mm = naive.row_mismatch(stored, logical, phys);
            let naive_sa1 = naive.row_sa1_mismatch(stored, logical, phys);
            prop_assert_eq!(
                xbar.row_mismatch_packed(packed.row(logical), phys),
                naive_mm
            );
            prop_assert_eq!(xbar.row_mismatch(stored.row(logical), phys), naive_mm);
            prop_assert_eq!(
                xbar.row_sa1_mismatch_packed(packed.row(logical), phys),
                naive_sa1
            );
            prop_assert_eq!(xbar.row_sa1_mismatch(stored.row(logical), phys), naive_sa1);
        }
    }
}

fn random_stored(n: usize, rng: &mut StdRng, p: f64) -> Matrix {
    Matrix::from_fn(n, n, |_, _| if rng.gen_bool(p) { 1.0 } else { 0.0 })
}

proptest! {
    // Random mutation sequences keep the packed planes, everything read
    // from them and the popcount kernels bit-consistent with the naive
    // per-cell model at every step.
    #[test]
    fn planes_and_kernels_match_naive_recount_under_mutation(
        seed in 0u64..200,
        n in 9usize..70,
        steps in 1usize..40,
        p in 0.05f64..0.8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(n as u64));
        let mut xbar = Crossbar::new(n);
        let mut naive = NaiveFaults::new(n);
        let stored = random_stored(n, &mut rng, p);

        for step in 0..steps {
            if rng.gen_bool(0.06) {
                xbar.clear_faults();
                naive.clear();
            } else {
                let r = rng.gen_range(0..n);
                let c = rng.gen_range(0..n);
                // Bias towards re-injecting hot cells so polarity
                // overwrites (a bit moving between planes) actually happen.
                let (r, c) = if step > 0 && rng.gen_bool(0.3) { (r % 3, c % 3) } else { (r, c) };
                let pol = if rng.gen_bool(0.5) {
                    StuckPolarity::StuckAtZero
                } else {
                    StuckPolarity::StuckAtOne
                };
                xbar.inject_fault(r, c, pol);
                naive.inject(r, c, pol);
            }
            check_planes(&xbar, &naive);
        }
        check_kernels(&xbar, &naive, &stored);

        // Whole-block consistency: mismatch_count equals the summed
        // per-row naive recount under identity placement.
        let total: usize = (0..n).map(|r| naive.row_mismatch(&stored, r, r)).sum();
        prop_assert_eq!(xbar.mismatch_count(&stored, None), total);
    }

    // `fault_version` ticks exactly once per mutation — injections
    // (including same-cell overwrites) and clears — and never on reads.
    // This is the contract `RemapCache` invalidation stands on.
    #[test]
    fn fault_version_ticks_on_every_mutation(
        seed in 0u64..300,
        n in 4usize..40,
        steps in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xbar = Crossbar::new(n);
        let mut expected = xbar.fault_version();
        let stored = random_stored(n, &mut rng, 0.3);

        for _ in 0..steps {
            if rng.gen_bool(0.1) {
                xbar.clear_faults();
            } else {
                xbar.inject_fault(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    if rng.gen_bool(0.5) {
                        StuckPolarity::StuckAtZero
                    } else {
                        StuckPolarity::StuckAtOne
                    },
                );
            }
            expected += 1;
            prop_assert_eq!(xbar.fault_version(), expected);

            // Reads leave the version untouched.
            let _ = xbar.read_binary(&stored, None);
            let _ = xbar.mismatch_count(&stored, None);
            let _ = xbar.fault_bits();
            prop_assert_eq!(xbar.fault_version(), expected);
        }
    }
}
