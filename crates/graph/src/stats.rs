//! Graph statistics used by the mapping heuristics and the dataset
//! validation tests.
//!
//! The paper's Algorithm 1 reasons about the *block density profile* of
//! partitioned adjacency matrices ("we observe edge density as low as
//! 0.001"); this module computes those profiles plus standard degree
//! statistics so the synthetic datasets can be checked against the
//! originals' character.

use fare_tensor::Matrix;

use crate::{CsrGraph, Partitioning};

/// Degree-distribution summary of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Degree variance.
    pub variance: f64,
    /// Fraction of nodes with degree > 3× mean ("hubs").
    pub hub_fraction: f64,
}

fare_rt::json_struct!(DegreeStats {
    min,
    max,
    mean,
    variance,
    hub_fraction
});

/// Computes the degree summary of `graph`.
///
/// # Example
///
/// ```
/// use fare_graph::{stats::degree_stats, CsrGraph};
/// let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
/// let s = degree_stats(&g);
/// assert_eq!(s.max, 3);
/// assert_eq!(s.min, 1);
/// ```
pub fn degree_stats(graph: &CsrGraph) -> DegreeStats {
    let n = graph.num_nodes();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            variance: 0.0,
            hub_fraction: 0.0,
        };
    }
    let degrees: Vec<usize> = (0..n).map(|u| graph.degree(u)).collect();
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let variance = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    let hubs = degrees.iter().filter(|&&d| d as f64 > 3.0 * mean).count();
    DegreeStats {
        min: *degrees.iter().min().expect("n > 0"),
        max: *degrees.iter().max().expect("n > 0"),
        mean,
        variance,
        hub_fraction: hubs as f64 / n as f64,
    }
}

/// Density (fraction of ones) of every `n × n` block of a dense binary
/// matrix, row-major over the block grid.
///
/// # Panics
///
/// Panics if `adj` is not square or `n == 0`.
pub fn block_density_profile(adj: &Matrix, n: usize) -> Vec<f64> {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    assert!(n > 0, "block size must be positive");
    let grid = adj.rows().div_ceil(n);
    let mut out = Vec::with_capacity(grid * grid);
    for br in 0..grid {
        for bc in 0..grid {
            let block = adj.block(br * n, bc * n, n, n);
            out.push(block.count_where(|v| v > 0.5) as f64 / (n * n) as f64);
        }
    }
    out
}

/// Block-density summary of a partitioned graph: for each cluster pair,
/// the density of the corresponding adjacency block. Diagonal entries
/// are intra-cluster densities (which Cluster-GCN batching exploits).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDensity {
    /// Mean intra-cluster (diagonal) density.
    pub intra: f64,
    /// Mean inter-cluster (off-diagonal) density.
    pub inter: f64,
}

fare_rt::json_struct!(ClusterDensity { intra, inter });

/// Computes intra- vs inter-cluster edge densities under `parts`.
///
/// # Panics
///
/// Panics if the partitioning does not cover the graph.
pub fn cluster_density(graph: &CsrGraph, parts: &Partitioning) -> ClusterDensity {
    assert_eq!(graph.num_nodes(), parts.assignment().len());
    let k = parts.num_parts();
    let sizes = parts.sizes();
    let mut intra_edges = vec![0usize; k];
    let mut inter_edges = 0usize;
    for (u, v) in graph.edges() {
        let (pu, pv) = (parts.part_of(u), parts.part_of(v));
        if pu == pv {
            intra_edges[pu] += 1;
        } else {
            inter_edges += 1;
        }
    }
    let mut intra_density_sum = 0.0;
    let mut intra_clusters = 0usize;
    for p in 0..k {
        let s = sizes[p];
        if s >= 2 {
            intra_density_sum += intra_edges[p] as f64 / (s * (s - 1) / 2) as f64;
            intra_clusters += 1;
        }
    }
    let total_pairs: f64 = {
        let n = graph.num_nodes() as f64;
        let intra_pairs: f64 = sizes
            .iter()
            .map(|&s| (s * s.saturating_sub(1) / 2) as f64)
            .sum();
        (n * (n - 1.0) / 2.0) - intra_pairs
    };
    ClusterDensity {
        intra: if intra_clusters > 0 {
            intra_density_sum / intra_clusters as f64
        } else {
            0.0
        },
        inter: if total_pairs > 0.0 {
            inter_edges as f64 / total_pairs
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::generate;
    use crate::partition::partition;

    #[test]
    fn degree_stats_star_graph() {
        let edges: Vec<_> = (1..7).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(7, &edges);
        let s = degree_stats(&g);
        assert_eq!(s.max, 6);
        assert_eq!(s.min, 1);
        assert!((s.mean - 12.0 / 7.0).abs() < 1e-12);
        // Node 0 has degree 6 > 3 × (12/7) ≈ 5.14: one hub out of seven.
        assert!((s.hub_fraction - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let s = degree_stats(&CsrGraph::empty(0));
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn power_law_has_higher_variance_than_er() {
        let mut rng = StdRng::seed_from_u64(1);
        let pl = generate::power_law(400, 2, &mut rng);
        let er = generate::erdos_renyi(400, pl.average_degree() / 399.0, &mut rng);
        assert!(degree_stats(&pl).variance > degree_stats(&er).variance);
    }

    #[test]
    fn block_profile_counts_match_total() {
        let mut adj = Matrix::zeros(10, 10);
        adj[(0, 1)] = 1.0;
        adj[(1, 0)] = 1.0;
        adj[(9, 9)] = 1.0;
        let profile = block_density_profile(&adj, 4);
        assert_eq!(profile.len(), 9); // ceil(10/4)² = 9
        let total_ones: f64 = profile.iter().map(|d| d * 16.0).sum();
        assert!((total_ones - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_blocks_exist_in_partitioned_batches() {
        // The paper's observation: partitioned adjacency matrices contain
        // extremely sparse off-diagonal blocks.
        let mut rng = StdRng::seed_from_u64(2);
        let (g, _) = generate::sbm(200, 4, 0.25, 0.005, &mut rng);
        let adj = g.to_dense();
        let profile = block_density_profile(&adj, 16);
        let min = profile.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = profile.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.02, "no sparse blocks: min {min}");
        assert!(max > 0.1, "no dense blocks: max {max}");
    }

    #[test]
    fn cluster_density_intra_exceeds_inter_on_sbm() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = generate::sbm(240, 6, 0.3, 0.01, &mut rng);
        let parts = partition(&g, 6, &mut rng);
        let d = cluster_density(&g, &parts);
        assert!(
            d.intra > 3.0 * d.inter,
            "intra {} should dominate inter {}",
            d.intra,
            d.inter
        );
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        block_density_profile(&Matrix::zeros(4, 4), 0);
    }
}
