//! Exact Kuhn–Munkres assignment with potentials (Jonker–Volgenant style
//! shortest augmenting paths), O(n²·m).

use crate::{Assignment, CostMatrix};

/// Solves the minimum-cost assignment problem exactly.
///
/// Works on rectangular matrices with `rows <= cols`; every row is
/// assigned a distinct column and the total cost is provably minimal.
///
/// # Panics
///
/// Panics if `cost.rows() > cost.cols()` or `cost` is empty.
///
/// # Example
///
/// ```
/// use fare_matching::{hungarian, CostMatrix};
/// let cost = CostMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let sol = hungarian(&cost);
/// assert_eq!(sol.total_cost, 2.0);
/// assert_eq!(sol.to_permutation(), vec![0, 1]);
/// ```
pub fn hungarian(cost: &CostMatrix) -> Assignment {
    let n = cost.rows();
    let m = cost.cols();
    assert!(n > 0 && m > 0, "empty cost matrix");
    assert!(n <= m, "hungarian requires rows <= cols, got {n}x{m}");

    // 1-indexed arrays in the classic potentials formulation.
    let mut u = vec![0.0f64; n + 1]; // row potentials
    let mut v = vec![0.0f64; m + 1]; // column potentials
    let mut way = vec![0usize; m + 1];
    // p[c] = row currently assigned to column c (0 = none).
    let mut p = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost.get(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![None; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = Some(j - 1);
        }
    }
    let total_cost = assignment
        .iter()
        .enumerate()
        .map(|(r, c)| cost.get(r, c.expect("hungarian must assign all rows")))
        .sum();
    Assignment {
        assignment,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cost: &CostMatrix) -> f64 {
        // Exhaustive over column subsets via permutations of column indices.
        fn rec(cost: &CostMatrix, row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if row == cost.rows() {
                *best = best.min(acc);
                return;
            }
            for c in 0..cost.cols() {
                if !used[c] {
                    used[c] = true;
                    rec(cost, row + 1, used, acc + cost.get(row, c), best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(cost, 0, &mut vec![false; cost.cols()], 0.0, &mut best);
        best
    }

    #[test]
    fn one_by_one() {
        let sol = hungarian(&CostMatrix::from_rows(&[&[3.5]]));
        assert_eq!(sol.total_cost, 3.5);
        assert_eq!(sol.to_permutation(), vec![0]);
    }

    #[test]
    fn classic_three_by_three() {
        // Known optimum 5: (0,1)+(1,0)+(2,2) = 1+2+2.
        let cost = CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]);
        let sol = hungarian(&cost);
        assert_eq!(sol.total_cost, 5.0);
        assert!(sol.is_valid());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use fare_rt::rand::{Rng, SeedableRng};
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(1..=6);
            let m = rng.gen_range(n..=7);
            let cost = CostMatrix::from_fn(n, m, |_, _| rng.gen_range(0.0..20.0f64).round());
            let sol = hungarian(&cost);
            assert!(sol.is_valid());
            assert_eq!(sol.matched_count(), n);
            let bf = brute_force(&cost);
            assert!(
                (sol.total_cost - bf).abs() < 1e-9,
                "hungarian {} vs brute force {bf}",
                sol.total_cost
            );
        }
    }

    #[test]
    fn rectangular_picks_cheapest_columns() {
        let cost = CostMatrix::from_rows(&[&[10.0, 10.0, 1.0, 10.0]]);
        let sol = hungarian(&cost);
        assert_eq!(sol.assignment[0], Some(2));
        assert_eq!(sol.total_cost, 1.0);
    }

    #[test]
    fn handles_negative_costs() {
        let cost = CostMatrix::from_rows(&[&[-5.0, 0.0], &[0.0, -5.0]]);
        let sol = hungarian(&cost);
        assert_eq!(sol.total_cost, -10.0);
    }

    #[test]
    fn ties_still_produce_valid_assignment() {
        let cost = CostMatrix::from_fn(4, 4, |_, _| 1.0);
        let sol = hungarian(&cost);
        assert!(sol.is_valid());
        assert_eq!(sol.total_cost, 4.0);
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn rejects_tall_matrices() {
        hungarian(&CostMatrix::from_rows(&[&[1.0], &[2.0]]));
    }
}
