//! Property-based tests for the graph crate.

use fare_graph::batch::make_batches;
use fare_graph::generate;
use fare_graph::partition::{bfs_partition, partition};
use fare_graph::CsrGraph;
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

fn random_graph(seed: u64, n: usize, p: f64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::erdos_renyi(n, p, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_is_symmetric(seed in 0u64..1000, n in 2usize..60, p in 0.0f64..0.5) {
        let g = random_graph(seed, n, p);
        for u in 0..n {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    fn edges_iterator_consistent_with_num_edges(
        seed in 0u64..1000, n in 2usize..60, p in 0.0f64..0.5,
    ) {
        let g = random_graph(seed, n, p);
        prop_assert_eq!(g.edges().count(), g.num_edges());
        prop_assert!(g.edges().all(|(u, v)| u < v));
    }

    #[test]
    fn dense_round_trip(seed in 0u64..1000, n in 2usize..40, p in 0.0f64..0.5) {
        let g = random_graph(seed, n, p);
        let dense = g.to_dense();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let rebuilt = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(&rebuilt, &g);
        let ones = dense.count_where(|v| v == 1.0);
        prop_assert_eq!(ones, 2 * g.num_edges());
    }

    #[test]
    fn induced_subgraph_edge_subset(
        seed in 0u64..1000, n in 4usize..40, p in 0.0f64..0.5,
    ) {
        let g = random_graph(seed, n, p);
        let nodes: Vec<usize> = (0..n).step_by(2).collect();
        let sub = g.induced_subgraph(&nodes);
        prop_assert_eq!(sub.num_nodes(), nodes.len());
        for (lu, lv) in sub.edges() {
            prop_assert!(g.has_edge(nodes[lu], nodes[lv]));
        }
    }

    #[test]
    fn partition_covers_and_respects_k(
        seed in 0u64..1000, n in 10usize..80, k in 2usize..6,
    ) {
        let g = random_graph(seed, n, 0.1);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        for parts in [partition(&g, k, &mut rng), bfs_partition(&g, k, &mut rng)] {
            prop_assert_eq!(parts.assignment().len(), n);
            prop_assert!(parts.assignment().iter().all(|&p| p < k));
            prop_assert_eq!(parts.sizes().iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn batches_partition_the_node_set(
        seed in 0u64..1000, n in 12usize..80, k in 3usize..6, cpb in 1usize..4,
    ) {
        let g = random_graph(seed, n, 0.1);
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let parts = partition(&g, k, &mut rng);
        let batches = make_batches(&g, &parts, cpb, &mut rng);
        let mut seen = vec![false; n];
        for b in &batches {
            for &u in &b.nodes {
                prop_assert!(!seen[u], "node {u} appears twice");
                seen[u] = true;
            }
            // Batch graphs only contain edges the parent graph has.
            for (lu, lv) in b.graph.edges() {
                prop_assert!(g.has_edge(b.nodes[lu], b.nodes[lv]));
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sbm_labels_are_balanced_classes(
        seed in 0u64..1000, communities in 2usize..6,
    ) {
        let n = communities * 20;
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, labels) = generate::sbm(n, communities, 0.2, 0.01, &mut rng);
        for c in 0..communities {
            prop_assert_eq!(labels.iter().filter(|&&l| l == c).count(), 20);
        }
    }

    #[test]
    fn connected_components_invariants(
        seed in 0u64..1000, n in 2usize..50, p in 0.0f64..0.3,
    ) {
        let g = random_graph(seed, n, p);
        let (comp, count) = g.connected_components();
        prop_assert_eq!(comp.len(), n);
        prop_assert!(comp.iter().all(|&c| c < count));
        // Every edge stays within one component.
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
    }
}

/// Bitwise view of a matrix, so `-0.0` vs `0.0` and ULP drift both fail.
fn bits(m: &fare_tensor::Matrix) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

// Sparse kernels vs their dense reference paths, and thread-count
// invariance of the aggregation kernels. These are the contracts the GNN
// layers rely on: the CSR aggregation must reproduce the seed's dense
// `normalise + matmul` pipeline *bit for bit*, at any worker count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_spmm_matches_dense_matmul_bitwise(
        seed in 0u64..1000, r in 1usize..30, k in 1usize..30, c in 1usize..8,
    ) {
        use fare_rt::rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fare_tensor::Matrix::from_fn(r, k, |_, _| {
            if rng.gen_bool(0.4) {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        let x = fare_tensor::init::normal(k, c, 1.0, &mut rng);
        let sparse = fare_graph::CsrMatrix::from_dense(&a);
        prop_assert_eq!(bits(&sparse.spmm(&x)), bits(&a.matmul(&x)));
    }

    #[test]
    fn graph_view_matches_dense_construction_bitwise(
        seed in 0u64..1000, n in 2usize..30, p in 0.0f64..0.6, d in 1usize..6,
    ) {
        let g = random_graph(seed, n, p);
        let mut rng = StdRng::seed_from_u64(seed ^ 11);
        let x = fare_tensor::init::normal(n, d, 1.0, &mut rng);
        let from_graph = fare_graph::GraphView::from_graph(&g);
        let from_dense = fare_graph::GraphView::from_dense(g.to_dense());
        let gcn_dense = fare_tensor::ops::gcn_normalise(&g.to_dense()).matmul(&x);
        let mean_dense = fare_tensor::ops::row_normalise(&g.to_dense()).matmul(&x);
        prop_assert_eq!(bits(&from_graph.gcn_norm().spmm(&x)), bits(&gcn_dense));
        prop_assert_eq!(bits(&from_graph.mean_norm().spmm(&x)), bits(&mean_dense));
        prop_assert_eq!(
            bits(&from_graph.gcn_norm().spmm(&x)),
            bits(&from_dense.gcn_norm().spmm(&x))
        );
        prop_assert_eq!(
            bits(&from_graph.mean_norm().spmm(&x)),
            bits(&from_dense.mean_norm().spmm(&x))
        );
        prop_assert_eq!(
            bits(&from_graph.mean_norm_t().spmm(&x)),
            bits(&from_dense.mean_norm_t().spmm(&x))
        );
    }

    #[test]
    fn aggregation_kernels_thread_invariant(
        seed in 0u64..1000, n in 2usize..50, p in 0.0f64..0.4, d in 1usize..8,
    ) {
        let g = random_graph(seed, n, p);
        let mut rng = StdRng::seed_from_u64(seed ^ 12);
        let x = fare_tensor::init::normal(n, d, 1.0, &mut rng);
        let m = fare_graph::CsrMatrix::from_dense(&g.to_dense());
        let view = fare_graph::GraphView::from_graph(&g);
        let run = |t: usize| {
            fare_rt::par::set_threads(t);
            (
                m.spmm(&x),
                view.gcn_norm().spmm(&x),
                view.mean_norm().spmm(&x),
                view.mean_norm_t().spmm(&x),
            )
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        fare_rt::par::set_threads(0);
        for (serial, par) in [(&one, &two), (&one, &eight)] {
            prop_assert_eq!(bits(&serial.0), bits(&par.0));
            prop_assert_eq!(bits(&serial.1), bits(&par.1));
            prop_assert_eq!(bits(&serial.2), bits(&par.2));
            prop_assert_eq!(bits(&serial.3), bits(&par.3));
        }
    }
}
