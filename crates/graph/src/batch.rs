//! Cluster-GCN-style mini-batch assembly.
//!
//! Following the paper's training setup (Section V-A), the partitioned
//! graph is consumed in mini-batches: each batch is the subgraph induced
//! by the union of a few clusters. The batch's CSR subgraph is what a
//! faulty run programs onto ReRAM crossbars for the aggregation phase:
//! it is packed straight into the crossbar blocks and corrupted as a
//! sparse pattern, so no dense adjacency is built.
//! [`MiniBatch::dense_adjacency`] remains for tests and dense oracles.

use fare_rt::rand::seq::SliceRandom;
use fare_rt::rand::Rng;
use fare_tensor::Matrix;

use crate::{CsrGraph, Partitioning};

/// One training mini-batch: a cluster-union induced subgraph.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    /// Global ids of the nodes in this batch; position = local id.
    pub nodes: Vec<usize>,
    /// Induced subgraph over `nodes` (local ids).
    pub graph: CsrGraph,
}

impl MiniBatch {
    /// Number of nodes in the batch.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Dense binary adjacency of the induced subgraph: the matrix FARe
    /// maps onto ReRAM crossbars, materialised. The training path packs
    /// [`MiniBatch::graph`] directly instead.
    pub fn dense_adjacency(&self) -> Matrix {
        self.graph.to_dense()
    }

    /// Gathers the feature rows of this batch's nodes from the full
    /// feature matrix.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range for `features`.
    pub fn gather_features(&self, features: &Matrix) -> Matrix {
        let mut data = Vec::with_capacity(self.nodes.len() * features.cols());
        for &u in &self.nodes {
            data.extend_from_slice(features.row(u));
        }
        Matrix::from_vec(self.nodes.len(), features.cols(), data)
    }

    /// Gathers the labels of this batch's nodes.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range for `labels`.
    pub fn gather_labels(&self, labels: &[usize]) -> Vec<usize> {
        self.nodes.iter().map(|&u| labels[u]).collect()
    }
}

/// Groups the clusters of `partitioning` into batches of
/// `clusters_per_batch` (the paper's "Batch" hyper-parameter) and builds
/// the induced subgraph for each.
///
/// Cluster order is shuffled with `rng`, matching stochastic mini-batch
/// training. The final batch may contain fewer clusters.
///
/// # Panics
///
/// Panics if `clusters_per_batch == 0` or the partitioning does not cover
/// `graph`.
///
/// # Example
///
/// ```
/// use fare_graph::{batch::make_batches, partition::partition, CsrGraph};
/// use fare_rt::rand::SeedableRng;
/// let g = CsrGraph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(0);
/// let parts = partition(&g, 4, &mut rng);
/// let batches = make_batches(&g, &parts, 2, &mut rng);
/// assert_eq!(batches.len(), 2);
/// let total: usize = batches.iter().map(|b| b.num_nodes()).sum();
/// assert_eq!(total, 8);
/// ```
pub fn make_batches(
    graph: &CsrGraph,
    partitioning: &Partitioning,
    clusters_per_batch: usize,
    rng: &mut impl Rng,
) -> Vec<MiniBatch> {
    assert!(
        clusters_per_batch > 0,
        "clusters_per_batch must be positive"
    );
    assert_eq!(
        graph.num_nodes(),
        partitioning.assignment().len(),
        "partitioning does not cover graph"
    );
    let k = partitioning.num_parts();
    let mut cluster_ids: Vec<usize> = (0..k).collect();
    cluster_ids.shuffle(rng);
    // Every part's nodes, ascending, by one counting sort of the
    // assignment: part `c` holds `members[starts[c]..starts[c + 1]]`.
    let mut starts = vec![0usize; k + 1];
    for &p in partitioning.assignment() {
        starts[p + 1] += 1;
    }
    for c in 0..k {
        starts[c + 1] += starts[c];
    }
    let mut cursor = starts.clone();
    let mut members = vec![0usize; graph.num_nodes()];
    for (u, &p) in partitioning.assignment().iter().enumerate() {
        members[cursor[p]] = u;
        cursor[p] += 1;
    }
    cluster_ids
        .chunks(clusters_per_batch)
        .map(|chunk| {
            let mut nodes: Vec<usize> = chunk
                .iter()
                .flat_map(|&c| &members[starts[c]..starts[c + 1]])
                .copied()
                .collect();
            nodes.sort_unstable();
            let sub = graph.induced_subgraph(&nodes);
            MiniBatch { nodes, graph: sub }
        })
        .filter(|b| b.num_nodes() > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::generate;
    use crate::partition::partition;

    fn setup() -> (CsrGraph, Partitioning) {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = generate::sbm(120, 4, 0.3, 0.02, &mut rng);
        let p = partition(&g, 8, &mut rng);
        (g, p)
    }

    #[test]
    fn batches_cover_all_nodes_exactly_once() {
        let (g, p) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let batches = make_batches(&g, &p, 2, &mut rng);
        let mut seen = vec![false; g.num_nodes()];
        for b in &batches {
            for &u in &b.nodes {
                assert!(!seen[u], "node {u} in two batches");
                seen[u] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn batch_count_matches_cluster_grouping() {
        let (g, p) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let batches = make_batches(&g, &p, 3, &mut rng);
        // 8 clusters in groups of 3 -> 3 batches (3+3+2).
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let (g, p) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let batches = make_batches(&g, &p, 8, &mut rng);
        // All clusters in one batch: the batch graph is the whole graph.
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].graph.num_edges(), g.num_edges());
    }

    #[test]
    fn dense_adjacency_matches_graph() {
        let (g, p) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let batches = make_batches(&g, &p, 2, &mut rng);
        let b = &batches[0];
        let adj = b.dense_adjacency();
        assert_eq!(adj.rows(), b.num_nodes());
        for (u, v) in b.graph.edges() {
            assert_eq!(adj[(u, v)], 1.0);
        }
        let ones = adj.count_where(|x| x == 1.0);
        assert_eq!(ones, 2 * b.graph.num_edges());
    }

    #[test]
    fn gather_features_and_labels_align() {
        let (g, p) = setup();
        let features = Matrix::from_fn(g.num_nodes(), 3, |r, c| (r * 3 + c) as f32);
        let labels: Vec<usize> = (0..g.num_nodes()).map(|u| u % 4).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let batches = make_batches(&g, &p, 2, &mut rng);
        for b in &batches {
            let f = b.gather_features(&features);
            let l = b.gather_labels(&labels);
            for (local, &global) in b.nodes.iter().enumerate() {
                assert_eq!(f[(local, 0)], features[(global, 0)]);
                assert_eq!(l[local], labels[global]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "clusters_per_batch must be positive")]
    fn zero_clusters_per_batch_panics() {
        let (g, p) = setup();
        make_batches(&g, &p, 0, &mut StdRng::seed_from_u64(0));
    }
}
