//! Bertsekas' auction algorithm for the assignment problem.
//!
//! A third serious solver alongside Hungarian (exact, O(n³)) and
//! b-Suitor (½-approximation): rows "bid" for their most valuable column
//! with an increment that includes a slack `ε`; the result is optimal to
//! within `n·ε`, which for integer-valued costs (mismatch counts are
//! integers) means **exactly optimal** once `ε < 1/n`.
//!
//! The implementation runs a single phase from zero prices rather than
//! `ε`-scaling: for *rectangular* problems (`rows < cols`), carrying
//! prices across phases lets a column end unassigned with a stale
//! inflated price, which voids the asymmetric duality bound. From zero
//! prices, any column ever bid on stays assigned to completion, so
//! unassigned columns keep price 0 and the `n·ε` bound holds.
//!
//! Included because the row-permutation costs of Algorithm 1 are small
//! integers, exactly the regime the auction algorithm is famously fast
//! in, making it a natural candidate for the mapping's inner solver.

use crate::{Assignment, CostMatrix};

/// Solves the min-cost assignment with the auction algorithm.
///
/// For integer costs the result is exactly optimal; for fractional costs
/// it is optimal to within `rows × ε` (`ε = 1 / (rows + 1)`).
///
/// # Panics
///
/// Panics if `cost.rows() > cost.cols()` or the matrix is empty.
///
/// # Example
///
/// ```
/// use fare_matching::{auction, CostMatrix};
/// let cost = CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]);
/// let sol = auction(&cost);
/// assert_eq!(sol.total_cost, 5.0);
/// ```
pub fn auction(cost: &CostMatrix) -> Assignment {
    let n = cost.rows();
    let m = cost.cols();
    assert!(n > 0 && m > 0, "empty cost matrix");
    assert!(n <= m, "auction requires rows <= cols, got {n}x{m}");

    // Work in *value* space: value(r, c) = max_cost - cost(r, c) ≥ 0.
    let max_cost = cost.max_cost();
    let value = |r: usize, c: usize| max_cost - cost.get(r, c);

    let mut prices = vec![0.0f64; m];
    let mut owner: Vec<Option<usize>> = vec![None; m]; // column -> row
    let mut assigned: Vec<Option<usize>> = vec![None; n]; // row -> column

    // ε below 1/(n+1) so integer instances resolve exactly (see module
    // docs for why a single phase from zero prices is required).
    let eps = 1.0 / (n as f64 + 1.0);
    let mut unassigned: Vec<usize> = (0..n).collect();
    while let Some(r) = unassigned.pop() {
        // Find best and second-best column for row r at current prices.
        let mut best = (0usize, f64::NEG_INFINITY);
        let mut second = f64::NEG_INFINITY;
        for (c, &price) in prices.iter().enumerate() {
            let net = value(r, c) - price;
            if net > best.1 {
                second = best.1;
                best = (c, net);
            } else if net > second {
                second = net;
            }
        }
        let (c, best_net) = best;
        // Bid: raise the price by the margin over the runner-up, plus ε.
        let increment = if second.is_finite() {
            best_net - second + eps
        } else {
            eps
        };
        prices[c] += increment;
        if let Some(evicted) = owner[c].replace(r) {
            assigned[evicted] = None;
            unassigned.push(evicted);
        }
        assigned[r] = Some(c);
    }

    let total_cost = assigned
        .iter()
        .enumerate()
        .map(|(r, c)| cost.get(r, c.expect("auction assigns every row")))
        .sum();
    Assignment {
        assignment: assigned,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian;
    use fare_rt::rand::{Rng, SeedableRng};

    #[test]
    fn one_by_one() {
        let sol = auction(&CostMatrix::from_rows(&[&[2.5]]));
        assert_eq!(sol.total_cost, 2.5);
    }

    #[test]
    fn classic_three_by_three() {
        let cost = CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]);
        let sol = auction(&cost);
        assert_eq!(sol.total_cost, 5.0);
        assert!(sol.is_valid());
    }

    #[test]
    fn matches_hungarian_on_integer_instances() {
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(n..=10);
            let cost = CostMatrix::from_fn(n, m, |_, _| rng.gen_range(0..25) as f64);
            let a = auction(&cost);
            let h = hungarian(&cost);
            assert!(a.is_valid());
            assert_eq!(a.matched_count(), n);
            assert_eq!(
                a.total_cost, h.total_cost,
                "auction {} vs hungarian {} on {n}x{m}",
                a.total_cost, h.total_cost
            );
        }
    }

    #[test]
    fn near_optimal_on_fractional_instances() {
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(18);
        for _ in 0..20 {
            let n = rng.gen_range(2..=7);
            let cost = CostMatrix::from_fn(n, n, |_, _| rng.gen_range(0.0..10.0));
            let a = auction(&cost);
            let h = hungarian(&cost);
            assert!(a.is_valid());
            // Within the n·ε theoretical bound (generous slack).
            assert!(
                a.total_cost <= h.total_cost + 1.0,
                "auction {} vs hungarian {}",
                a.total_cost,
                h.total_cost
            );
        }
    }

    #[test]
    fn uniform_costs() {
        let cost = CostMatrix::from_fn(5, 5, |_, _| 2.0);
        let sol = auction(&cost);
        assert!(sol.is_valid());
        assert_eq!(sol.total_cost, 10.0);
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn rejects_tall_matrices() {
        auction(&CostMatrix::from_rows(&[&[1.0], &[2.0]]));
    }
}
