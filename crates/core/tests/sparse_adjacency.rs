//! The sparse adjacency fault path, pinned bit for bit to the dense one.
//!
//! A faulty run packs each batch graph's CSR lists straight into the
//! crossbar block grid ([`AdjacencyBlocks::from_graph`]), corrupts the
//! CSR pattern with a sparse edit per stuck cell
//! ([`corrupt_graph_mapped`]) and normalises the result with
//! [`GraphView::from_pattern`]. The oracle here is the dense path those
//! replaced, kept test-only: the `n × n` adjacency, its zero-padded
//! blocks read back through [`Crossbar::read_binary`], and the dense
//! `ops::gcn_normalise` / `ops::row_normalise` views. Every product is
//! compared by `to_bits`, over partial last blocks, SA1 cells in the
//! padding, asymmetric and diagonal insertions, edge and fault
//! densities from 0 to 100%, crossbar sizes 8, 16 and 64, and identity,
//! Algorithm 1 and refreshed row permutations.

use fare_core::mapping::{
    map_blocks_cached, refresh_blocks_cached, sequential_block_mapping, AdjacencyBlocks,
    MappingConfig, RemapCache,
};
use fare_core::{corrupt_graph_mapped, Mapping};
use fare_graph::{generate, CsrGraph, CsrMatrix, GraphView};
use fare_matching::Matcher;
use fare_reram::{CrossbarArray, FaultSpec, PackedRows, StuckPolarity};
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{ops, Matrix};

/// The dense corruption the sparse one replaced: every placed block,
/// zero-padded to `n × n`, read back through its crossbar under its row
/// permutation and written over the in-bounds cells.
fn dense_corrupt(adj: &Matrix, array: &CrossbarArray, mapping: &Mapping) -> Matrix {
    let n = array.n();
    let mut out = adj.clone();
    for p in mapping.placements() {
        let (r0, c0) = (p.block_row * n, p.block_col * n);
        let block = adj.block(r0, c0, n, n);
        let read = array
            .crossbar(p.crossbar)
            .read_binary(&block, Some(&p.row_perm));
        for r in 0..n {
            for c in 0..n {
                if r0 + r < adj.rows() && c0 + c < adj.cols() {
                    out[(r0 + r, c0 + c)] = read[(r, c)];
                }
            }
        }
    }
    out
}

/// A CSR matrix as `(row, column, value bits)` triples.
fn bits(m: &CsrMatrix) -> Vec<(usize, usize, u32)> {
    (0..m.rows())
        .flat_map(|r| m.row_entries(r).map(move |(c, v)| (r, c, v.to_bits())))
        .collect()
}

/// Checks one corrupted adjacency and its view against the dense oracle.
fn check_view(graph: &CsrGraph, array: &CrossbarArray, mapping: &Mapping) {
    let oracle = dense_corrupt(&graph.to_dense(), array, mapping);
    let pattern = corrupt_graph_mapped(graph, array, mapping);
    prop_assert_eq!(
        &pattern,
        &CsrMatrix::from_dense(&oracle),
        "corrupted pattern"
    );
    let view = GraphView::from_pattern(pattern);
    let gcn = CsrMatrix::from_dense(&ops::gcn_normalise(&oracle));
    let mean = CsrMatrix::from_dense(&ops::row_normalise(&oracle));
    let attention = Matrix::from_fn(oracle.rows(), oracle.cols(), |i, j| {
        (i == j || oracle[(i, j)] > 0.5) as u8 as f32
    });
    prop_assert_eq!(bits(view.gcn_norm()), bits(&gcn), "gcn_norm");
    prop_assert_eq!(bits(view.mean_norm()), bits(&mean), "mean_norm");
    prop_assert_eq!(
        bits(view.mean_norm_t()),
        bits(&mean.transpose()),
        "mean_norm_t"
    );
    prop_assert_eq!(
        bits(view.attention_pattern()),
        bits(&CsrMatrix::from_dense(&attention)),
        "attention_pattern"
    );
}

/// A graph of `nodes` nodes: empty, complete or Erdős–Rényi at `p`.
fn graph(nodes: usize, edges: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    match edges {
        0 => CsrGraph::empty(nodes),
        1 => generate::erdos_renyi(nodes, 1.0, &mut rng),
        _ => generate::erdos_renyi(nodes, rng.gen_range(0.02..0.4), &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_adjacency_path_bit_identical_to_dense_oracle(
        seed in 0u64..100_000,
        size_idx in 0usize..3,
        blocks_per_side in 1usize..4,
        edges in 0usize..4,
        faults in 0usize..4,
    ) {
        let n = [8usize, 16, 64][size_idx];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        // Mostly a partial last block row and column, sometimes a full one.
        let nodes = if rng.gen_bool(0.25) {
            n * blocks_per_side
        } else {
            n * (blocks_per_side - 1) + rng.gen_range(1..n)
        };
        let g = graph(nodes, edges, seed);
        let adj = g.to_dense();

        // The CSR-packed blocks are the packed dense blocks.
        let blocks = AdjacencyBlocks::from_graph(&g, n);
        prop_assert_eq!(&blocks, &AdjacencyBlocks::from_matrix(&adj, n));
        for br in 0..blocks.grid() {
            for bc in 0..blocks.grid() {
                let dense = PackedRows::from_matrix(&adj.block(br * n, bc * n, n, n));
                prop_assert_eq!(blocks.block(br, bc), &dense, "block ({}, {})", br, bc);
            }
        }

        let density = match faults {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0..0.2),
        };
        let count = blocks.grid().pow(2);
        let mut array = CrossbarArray::new(count + count / 2, n);
        array.inject(&FaultSpec::with_sa1_fraction(density, rng.gen_range(0.0..1.0)), &mut rng);

        // Identity permutations, whose costs are the dense read-back's.
        let sequential = sequential_block_mapping(&blocks, &array);
        for p in sequential.placements() {
            let xbar = array.crossbar(p.crossbar);
            let block = adj.block(p.block_row * n, p.block_col * n, n, n);
            prop_assert_eq!(p.mismatch_cost, xbar.mismatch_count(&block, None));
            let sa1: usize = (0..n).map(|r| xbar.row_sa1_mismatch(block.row(r), r)).sum();
            prop_assert_eq!(p.sa1_cost, sa1);
        }
        check_view(&g, &array, &sequential);

        // Algorithm 1's permutations, then refreshed ones after more faults.
        let mut cache = RemapCache::new();
        let mapped = map_blocks_cached(&blocks, &array, &MappingConfig::default(), &mut cache);
        check_view(&g, &array, &mapped);
        array.inject(&FaultSpec::with_sa1_fraction(0.05, 0.5), &mut rng);
        let mut refreshed = mapped;
        refresh_blocks_cached(&blocks, &array, &mut refreshed, Matcher::BSuitor, &mut cache);
        check_view(&g, &array, &refreshed);
    }
}

#[test]
fn sa1_cells_in_the_padding_are_ignored() {
    // 5 nodes on 4 × 4 crossbars: the last block row and column are
    // three quarters padding. Stick every cell of every crossbar at 1.
    let g = CsrGraph::from_edges(5, &[(0, 4), (1, 2)]);
    let blocks = AdjacencyBlocks::from_graph(&g, 4);
    let mut array = CrossbarArray::new(4, 4);
    for k in 0..4 {
        for r in 0..4 {
            for c in 0..4 {
                array
                    .crossbar_mut(k)
                    .inject_fault(r, c, StuckPolarity::StuckAtOne);
            }
        }
    }
    let mapping = sequential_block_mapping(&blocks, &array);
    let pattern = corrupt_graph_mapped(&g, &array, &mapping);
    // Every in-bounds cell reads 1, diagonal included; nothing beyond.
    assert_eq!(pattern, CsrMatrix::from_dense(&Matrix::filled(5, 5, 1.0)));
    // The padding cells still count as mismatches of the mapping.
    assert_eq!(mapping.total_cost(), 4 * 16 - 2 * g.num_edges());
}
