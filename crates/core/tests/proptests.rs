//! Property-based tests for the FARe mapping algorithm.

use fare_core::mapping::{
    map_adjacency, map_adjacency_cached, reference, refresh_blocks_cached,
    refresh_row_permutations, refresh_row_permutations_cached, sequential_block_mapping,
    sequential_mapping, AdjacencyBlocks, Mapping, MappingConfig, RemapCache,
};
use fare_core::{corrupt_adjacency_mapped, corrupt_adjacency_unaware};
use fare_matching::{CostMatrix, Matcher};
use fare_reram::{CrossbarArray, FaultSpec};
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;
use fare_tensor::Matrix;

fn instance(nodes: usize, n: usize, seed: u64, density: f64) -> (Matrix, CrossbarArray) {
    instance_with(nodes, n, seed, 0.15, 2.0, density, 0.5)
}

/// A random symmetric `nodes`-node adjacency with edge probability
/// `edge_p`, and `slack` times as many `n × n` crossbars as it has
/// blocks, with stuck cells at `density` of which `sa1_fraction` are SA1.
fn instance_with(
    nodes: usize,
    n: usize,
    seed: u64,
    edge_p: f64,
    slack: f64,
    density: f64,
    sa1_fraction: f64,
) -> (Matrix, CrossbarArray) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = Matrix::zeros(nodes, nodes);
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            if fare_rt::rand::Rng::gen_bool(&mut rng, edge_p) {
                adj[(i, j)] = 1.0;
                adj[(j, i)] = 1.0;
            }
        }
    }
    let blocks = nodes.div_ceil(n).pow(2);
    let pool = ((blocks as f64 * slack).ceil() as usize).max(blocks);
    let mut array = CrossbarArray::new(pool, n);
    array.inject(
        &FaultSpec::with_sa1_fraction(density, sa1_fraction),
        &mut rng,
    );
    (adj, array)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mapping_covers_every_block_once(
        seed in 0u64..1000,
        density in 0.0f64..0.1,
    ) {
        let (adj, array) = instance(24, 8, seed, density);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        prop_assert_eq!(mapping.placements().len(), 9);
        let mut blocks = std::collections::HashSet::new();
        let mut xbars = std::collections::HashSet::new();
        for p in mapping.placements() {
            prop_assert!(blocks.insert((p.block_row, p.block_col)));
            prop_assert!(xbars.insert(p.crossbar));
        }
    }

    #[test]
    fn mapping_cost_is_exact_corruption_error(
        seed in 0u64..1000,
        density in 0.0f64..0.1,
    ) {
        let (adj, array) = instance(24, 8, seed, density);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        let corrupted = corrupt_adjacency_mapped(&adj, &array, &mapping);
        let errors = adj
            .iter()
            .zip(corrupted.iter())
            .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
            .count();
        prop_assert_eq!(errors, mapping.total_cost());
    }

    #[test]
    fn fare_never_worse_than_unaware_or_nr(
        seed in 0u64..1000,
        density in 0.0f64..0.1,
    ) {
        let (adj, array) = instance(24, 8, seed, density);
        let fare = map_adjacency(&adj, &array, &MappingConfig {
            matcher: Matcher::Hungarian,
            prune: false,
        });
        let blocks = AdjacencyBlocks::from_matrix(&adj, 8);
        let mut nr = sequential_block_mapping(&blocks, &array);
        refresh_blocks_cached(&blocks, &array, &mut nr, Matcher::Hungarian, &mut RemapCache::new());
        let unaware = sequential_mapping(&adj, &array);
        prop_assert!(fare.total_cost() <= nr.total_cost());
        prop_assert!(nr.total_cost() <= unaware.total_cost());
    }

    #[test]
    fn refresh_preserves_assignment_and_improves_cost(
        seed in 0u64..1000,
        extra in 0.005f64..0.03,
    ) {
        let (adj, mut array) = instance(24, 8, seed, 0.03);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        array.inject(&FaultSpec::density(extra), &mut rng);
        let refreshed = refresh_row_permutations(&adj, &array, &mapping, Matcher::Hungarian);
        // Assignment preserved.
        for (a, b) in mapping.placements().iter().zip(refreshed.placements()) {
            prop_assert_eq!(a.crossbar, b.crossbar);
        }
        // Refreshed perms are no worse than keeping the stale ones.
        let stale_cost: usize = mapping
            .placements()
            .iter()
            .map(|p| {
                let block = adj.block(p.block_row * 8, p.block_col * 8, 8, 8);
                array.crossbar(p.crossbar).mismatch_count(&block, Some(&p.row_perm))
            })
            .sum();
        prop_assert!(refreshed.total_cost() <= stale_cost);
    }

    #[test]
    fn unaware_corruption_is_deterministic(
        seed in 0u64..1000,
    ) {
        let (adj, array) = instance(16, 8, seed, 0.05);
        let a = corrupt_adjacency_unaware(&adj, &array);
        let b = corrupt_adjacency_unaware(&adj, &array);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn zero_density_mapping_is_free(seed in 0u64..1000) {
        let (adj, _) = instance(24, 8, seed, 0.0);
        let array = CrossbarArray::new(18, 8);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        prop_assert_eq!(mapping.total_cost(), 0);
        prop_assert_eq!(mapping.total_sa1_cost(), 0);
    }

    // The fast path (packed kernels, class dedup, level-greedy `G₁`,
    // bound-ordered selection) is bit-identical to the naive serial
    // reference oracle, which reads the full cost table, for both the
    // paper's b-Suitor and the exact Hungarian solver: same placements,
    // same permutations, same mismatch and SA1 costs. The instances
    // cover pools with no spare crossbar (slack 1, where pruning
    // defers blocks), SA1 shares 0, ½ and 1, fault and edge densities
    // up to 30%, and node counts that leave padded blocks.
    #[test]
    fn fast_path_bit_identical_to_reference(
        seed in 0u64..1000,
        nodes in 17usize..=32,
        edge_p in 0.0f64..0.3,
        density in 0.0f64..0.3,
        mix in (0usize..3, 0usize..3),
        exact in any::<bool>(),
        prune in any::<bool>(),
    ) {
        let (slack, sa1_fraction) = ([1.0, 1.5, 2.0][mix.0], [0.0, 0.5, 1.0][mix.1]);
        let (adj, array) = instance_with(nodes, 8, seed, edge_p, slack, density, sa1_fraction);
        let cfg = MappingConfig {
            matcher: if exact { Matcher::Hungarian } else { Matcher::BSuitor },
            prune,
        };
        let fast = map_adjacency(&adj, &array, &cfg);
        let oracle = reference::map_adjacency(&adj, &array, &cfg);
        prop_assert_eq!(fast, oracle);
    }

    // Restricting the `G₁` instance to the faulty physical rows loses
    // nothing for an exact solver: fault-free rows cost 0 against any
    // logical row, so for every (block, crossbar) pair the reduced
    // `f × n` optimum equals the optimum of the full `n × n` instance
    // (and hence any mapping's total equals the full pipeline's).
    #[test]
    fn hungarian_reduced_optimum_equals_full_per_pair(
        seed in 0u64..1000,
        density in 0.0f64..0.12,
    ) {
        let n = 8;
        let (adj, array) = instance(24, n, seed, density);
        for br in 0..3 {
            for bc in 0..3 {
                let block = adj.block(br * n, bc * n, n, n);
                for j in 0..array.len() {
                    let xbar = array.crossbar(j);
                    let (_, reduced, _) =
                        reference::solve_row_permutation(&block, xbar, Matcher::Hungarian);
                    let full = CostMatrix::from_fn(n, n, |p, q| {
                        xbar.row_mismatch(block.row(p), q) as f64
                    });
                    let optimum = Matcher::Hungarian.solve(&full).total_cost;
                    prop_assert_eq!(
                        reduced as f64,
                        optimum,
                        "block ({}, {}), crossbar {}",
                        br,
                        bc,
                        j
                    );
                }
            }
        }
    }

    // The version-gated incremental refresh is bit-identical to a cold
    // full recompute and to the serial reference, after arbitrary
    // post-deployment injection, for both matchers.
    #[test]
    fn incremental_refresh_bit_identical_to_full(
        seed in 0u64..1000,
        extra in 0.0f64..0.04,
        exact in any::<bool>(),
    ) {
        let matcher = if exact { Matcher::Hungarian } else { Matcher::BSuitor };
        let (adj, mut array) = instance(24, 8, seed, 0.03);
        let mut cache = RemapCache::new();
        let cfg = MappingConfig { matcher, ..MappingConfig::default() };
        let mapping = map_adjacency_cached(&adj, &array, &cfg, &mut cache);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        array.inject(&FaultSpec::density(extra), &mut rng);
        let incremental =
            refresh_row_permutations_cached(&adj, &array, &mapping, matcher, &mut cache);
        let cold = refresh_row_permutations(&adj, &array, &mapping, matcher);
        let oracle = reference::refresh_row_permutations(&adj, &array, &mapping, matcher);
        prop_assert_eq!(&incremental, &cold);
        prop_assert_eq!(&incremental, &oracle);
    }
}

/// Every placed block read back through its crossbar under its row
/// permutation, written over the in-bounds cells of the adjacency.
fn read_back(adj: &Matrix, array: &CrossbarArray, mapping: &Mapping) -> Matrix {
    let n = array.n();
    let mut out = adj.clone();
    for p in mapping.placements() {
        let (r0, c0) = (p.block_row * n, p.block_col * n);
        let read = array
            .crossbar(p.crossbar)
            .read_binary(&adj.block(r0, c0, n, n), Some(&p.row_perm));
        for r in 0..n.min(adj.rows() - r0) {
            for c in 0..n.min(adj.cols() - c0) {
                out[(r0 + r, c0 + c)] = read[(r, c)];
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The `G₁` solver and the corruption read packed rows of ⌈n / 64⌉
    // words. On crossbars wider than one word, with and without padding
    // bits in the last word, Algorithm 1, a refresh after more faults
    // and the corrupted adjacency stay bit-identical to the oracles for
    // both matchers.
    #[test]
    fn multiword_crossbars_bit_identical_to_reference(
        seed in 0u64..1000,
        width in 0usize..3,
        edge_p in 0.0f64..0.3,
        density in 0.0f64..0.2,
        exact in any::<bool>(),
    ) {
        let n = [64, 72, 130][width];
        let matcher = if exact { Matcher::Hungarian } else { Matcher::BSuitor };
        let (adj, mut array) = instance_with(n + n / 2, n, seed, edge_p, 1.5, density, 0.5);
        let cfg = MappingConfig { matcher, ..MappingConfig::default() };
        let mut cache = RemapCache::new();
        let mapping = map_adjacency_cached(&adj, &array, &cfg, &mut cache);
        prop_assert_eq!(&mapping, &reference::map_adjacency(&adj, &array, &cfg));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        array.inject(&FaultSpec::density(0.02), &mut rng);
        let refreshed =
            refresh_row_permutations_cached(&adj, &array, &mapping, matcher, &mut cache);
        let oracle = reference::refresh_row_permutations(&adj, &array, &mapping, matcher);
        prop_assert_eq!(&refreshed, &oracle);
        prop_assert_eq!(
            corrupt_adjacency_mapped(&adj, &array, &refreshed),
            read_back(&adj, &array, &refreshed)
        );
    }
}

/// A crossbar row carrying 64+ SA1 faults pushes its base mismatch cost
/// past the 64-bit level mask, forcing the level-greedy solver through
/// its spill-list path. The result must still match the oracle exactly.
#[test]
fn large_base_cost_spill_path_bit_identical() {
    let (adj, mut array) = instance(192, 96, 7, 0.02);
    // 70 SA1 faults in one row (base cost 70 >= 64), plus a second row
    // mixing polarities, on a crossbar the mapping will consider.
    for c in 0..70 {
        array
            .crossbar_mut(0)
            .inject_fault(3, c, fare_reram::StuckPolarity::StuckAtOne);
    }
    for c in 0..10 {
        let pol = if c % 2 == 0 {
            fare_reram::StuckPolarity::StuckAtZero
        } else {
            fare_reram::StuckPolarity::StuckAtOne
        };
        array.crossbar_mut(0).inject_fault(5, c * 9, pol);
    }
    for exact in [false, true] {
        let cfg = MappingConfig {
            matcher: if exact {
                Matcher::Hungarian
            } else {
                Matcher::BSuitor
            },
            ..MappingConfig::default()
        };
        let fast = map_adjacency(&adj, &array, &cfg);
        let oracle = reference::map_adjacency(&adj, &array, &cfg);
        assert_eq!(fast, oracle, "exact={exact}");
    }
}
