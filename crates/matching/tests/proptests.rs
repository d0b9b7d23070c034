//! Property-based tests for the matching crate.

use fare_matching::{bsuitor_assignment, hungarian, CostMatrix, Matcher};
use fare_rt::prop::prelude::*;

fn cost_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = CostMatrix> {
    (1..=max_rows, 1..=max_cols)
        .prop_filter("rows <= cols", |(r, c)| r <= c)
        .prop_flat_map(|(r, c)| {
            fare_rt::prop::collection::vec(0.0f64..100.0, r * c)
                .prop_map(move |data| CostMatrix::from_vec(r, c, data))
        })
}

proptest! {
    #[test]
    fn hungarian_produces_valid_full_assignment(cost in cost_matrix(7, 9)) {
        let sol = hungarian(&cost);
        prop_assert!(sol.is_valid());
        prop_assert_eq!(sol.matched_count(), cost.rows());
        // Total cost matches the sum of the chosen entries.
        let recomputed: f64 = sol
            .assignment
            .iter()
            .enumerate()
            .map(|(r, c)| cost.get(r, c.unwrap()))
            .sum();
        prop_assert!((recomputed - sol.total_cost).abs() < 1e-9);
    }

    #[test]
    fn hungarian_no_worse_than_any_heuristic(cost in cost_matrix(6, 8)) {
        let exact = hungarian(&cost).total_cost;
        prop_assert!(bsuitor_assignment(&cost).total_cost >= exact - 1e-9);
    }

    #[test]
    fn hungarian_invariant_under_row_potential_shift(cost in cost_matrix(5, 5)) {
        // Adding a constant to one row changes total cost by that constant
        // but not the optimal assignment structure's validity.
        let shifted = CostMatrix::from_fn(cost.rows(), cost.cols(), |r, c| {
            cost.get(r, c) + if r == 0 { 17.0 } else { 0.0 }
        });
        let a = hungarian(&cost);
        let b = hungarian(&shifted);
        prop_assert!((b.total_cost - a.total_cost - 17.0).abs() < 1e-6);
    }

    #[test]
    fn bsuitor_within_half_of_optimal_weight(cost in cost_matrix(6, 6)) {
        let n = cost.rows() as f64;
        let max_cost = (0..cost.rows())
            .flat_map(|r| (0..cost.cols()).map(move |c| (r, c)))
            .map(|(r, c)| cost.get(r, c))
            .fold(0.0, f64::max);
        let exact_w = n * max_cost - hungarian(&cost).total_cost;
        let approx_w = n * max_cost - bsuitor_assignment(&cost).total_cost;
        prop_assert!(approx_w >= 0.5 * exact_w - 1e-6);
    }

    #[test]
    fn all_matchers_agree_on_validity(cost in cost_matrix(5, 7)) {
        for m in [Matcher::Hungarian, Matcher::BSuitor] {
            let sol = m.solve(&cost);
            prop_assert!(sol.is_valid());
            prop_assert_eq!(sol.matched_count(), cost.rows());
        }
    }
}

proptest! {
    // Three cost shapes share the cases, so run more than the default.
    #![proptest_config(ProptestConfig::with_cases(600))]

    // The structural theorem the mapping layer's level-greedy G₁ solver
    // and lower-bound G₂ heap rest on: every vertex ranks its edges by
    // the common total order (cost asc, row id asc, col id asc), so the
    // b-Suitor fixed point is the unique stable matching — the greedy
    // matching over globally sorted edges. Checked on the two cost
    // shapes the runs produce, integer mismatch counts (G₁, G₂) and NR's
    // weight-row costs (sums of fixed-point resolution steps), and on
    // fractional costs of the form integer + λ·k with many ties, which
    // `bsuitor_assignment`'s `f64` costs admit.
    #[test]
    fn bsuitor_equals_greedy_by_edge_order(
        dims in (1usize..10, 1usize..14).prop_filter("r<=c", |(r, c)| r <= c),
        seed in 0u64..500,
        max_cost in 0u32..12,
        shape in 0usize..3,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (r, c) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed ^ 0x6EED);
        let costs: Vec<f64> = match shape {
            0 => (0..r * c).map(|_| rng.gen_range(0..=max_cost) as f64).collect(),
            1 => {
                // `row_placement_cost`: Σ |faulty − clean| over a row's
                // patched cells, each an f32 multiple of the resolution.
                let res = fare_tensor::fixed::FixedFormat::default().resolution();
                let scale = [1u32, 37, 4096][rng.gen_range(0..3)];
                (0..r * c)
                    .map(|_| {
                        let mut cost = 0.0f64;
                        for _ in 0..rng.gen_range(0..4) {
                            let steps = rng.gen_range(0..=max_cost) * scale;
                            cost += (steps as f32 * res) as f64;
                        }
                        cost
                    })
                    .collect()
            }
            _ => {
                // Fractional costs: mismatch count + λ · small integer.
                let lambda = [0.25, 0.5, 1.0, 2.0][rng.gen_range(0..4)];
                (0..r * c)
                    .map(|_| rng.gen_range(0..=max_cost) as f64 + lambda * rng.gen_range(0..5) as f64)
                    .collect()
            }
        };

        let mut order: Vec<usize> = (0..r * c).collect();
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
        let mut greedy = vec![u32::MAX; r];
        let mut used = vec![false; c];
        let mut matched = 0;
        for i in order {
            let (er, ec) = (i / c, i % c);
            if matched == r {
                break;
            }
            if greedy[er] == u32::MAX && !used[ec] {
                greedy[er] = ec as u32;
                used[ec] = true;
                matched += 1;
            }
        }

        let cost = CostMatrix::from_vec(r, c, costs);
        let suitor = bsuitor_assignment(&cost);
        let suitor_cols: Vec<u32> = suitor
            .assignment
            .iter()
            .map(|col| col.expect("complete") as u32)
            .collect();
        prop_assert_eq!(greedy, suitor_cols);
    }
}
