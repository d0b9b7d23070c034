//! b-Suitor for FARe's one-to-one assignments.
//!
//! Khan et al., *Efficient Approximation Algorithms for Weighted
//! b-Matching* (SIAM J. Sci. Comput., 2016) — the solver the FARe paper
//! uses for its bipartite matchings. Every vertex proposes to its best
//! eligible neighbour, and a vertex keeps the best suitor it has seen.
//! The result weighs at least half the optimum.
//!
//! Khan et al. also show that, with ties broken consistently, b-Suitor
//! returns the matching of the greedy algorithm that takes edges in that
//! order. Both FARe matchings are one-to-one (`b ≡ 1`) minimum-cost
//! problems on a complete bipartite graph, so [`bsuitor_assignment`]
//! computes b-Suitor as the greedy matching over the edges in
//! `(cost, row, col)` order; no proposals are replayed.

use crate::{Assignment, CostMatrix};

/// b-Suitor min-cost assignment, computed as the greedy edge-order
/// matching it equals.
///
/// Walks every `(row, col)` edge in ascending `(cost, row, col)` order
/// (costs compared by [`f64::total_cmp`]) and matches an edge when both
/// its ends are still free, until every row is matched. Since
/// `rows <= cols`, every row is assigned.
///
/// # Panics
///
/// Panics if `cost.rows() > cost.cols()`.
///
/// # Example
///
/// ```
/// use fare_matching::{bsuitor_assignment, CostMatrix};
/// // (0, 0) is the cheapest edge, so row 1 takes the leftover column.
/// let cost = CostMatrix::from_rows(&[&[1.0, 2.0], &[1.5, 9.0]]);
/// let sol = bsuitor_assignment(&cost);
/// assert_eq!(sol.to_permutation(), vec![0, 1]);
/// assert_eq!(sol.total_cost, 10.0);
/// ```
pub fn bsuitor_assignment(cost: &CostMatrix) -> Assignment {
    let (n, m) = cost.shape();
    assert!(
        n <= m,
        "bsuitor_assignment requires rows <= cols, got {n}x{m}"
    );
    let mut edges: Vec<(f64, usize, usize)> = (0..n)
        .flat_map(|r| (0..m).map(move |c| (cost.get(r, c), r, c)))
        .collect();
    edges.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));

    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut used = vec![false; m];
    let mut matched = 0;
    for (_, r, c) in edges {
        if matched == n {
            break;
        }
        if assignment[r].is_none() && !used[c] {
            assignment[r] = Some(c);
            used[c] = true;
            matched += 1;
        }
    }
    let total_cost = assignment
        .iter()
        .enumerate()
        .map(|(r, c)| cost.get(r, c.expect("all rows assigned")))
        .sum();
    Assignment {
        assignment,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian;

    #[test]
    fn half_approximation_guarantee_on_random_bipartite() {
        use fare_rt::rand::{Rng, SeedableRng};
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..=6);
            let cost = CostMatrix::from_fn(n, n, |_, _| rng.gen_range(0.0..10.0f64).round());
            let approx = bsuitor_assignment(&cost);
            let exact = hungarian(&cost);
            assert!(approx.is_valid());
            assert_eq!(approx.matched_count(), n);
            // In weight space (max_cost - cost) the approximation is >= 1/2
            // of the optimum.
            let max_cost = (0..n)
                .flat_map(|r| (0..n).map(move |c| (r, c)))
                .map(|(r, c)| cost.get(r, c))
                .fold(0.0, f64::max);
            let w_approx = n as f64 * max_cost - approx.total_cost;
            let w_exact = n as f64 * max_cost - exact.total_cost;
            assert!(
                w_approx >= 0.5 * w_exact - 1e-6,
                "approx weight {w_approx} < half of exact {w_exact}"
            );
        }
    }

    #[test]
    fn assignment_on_uniform_costs_is_complete() {
        let cost = CostMatrix::from_fn(5, 5, |_, _| 3.0);
        let sol = bsuitor_assignment(&cost);
        assert!(sol.is_valid());
        assert_eq!(sol.matched_count(), 5);
        assert_eq!(sol.total_cost, 15.0);
    }

    #[test]
    fn rectangular_assignment_is_complete() {
        let cost = CostMatrix::from_fn(3, 7, |r, c| ((r * 7 + c) % 5) as f64);
        let sol = bsuitor_assignment(&cost);
        assert!(sol.is_valid());
        assert_eq!(sol.matched_count(), 3);
    }
}
