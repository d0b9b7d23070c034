use std::collections::BTreeSet;

use fare_tensor::Matrix;

/// An undirected graph in compressed sparse row form.
///
/// Nodes are `0..num_nodes()`. Each undirected edge `{u, v}` is stored in
/// both adjacency lists; lists are sorted and deduplicated. Self loops are
/// not stored (the GNN normalisation adds them analytically).
///
/// # Example
///
/// ```
/// use fare_graph::CsrGraph;
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
}

impl CsrGraph {
    /// Builds a graph from an undirected edge list.
    ///
    /// Duplicate edges and self loops are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); num_nodes];
        for &(u, v) in edges {
            assert!(
                u < num_nodes && v < num_nodes,
                "edge ({u},{v}) out of range for {num_nodes} nodes"
            );
            if u == v {
                continue;
            }
            adj[u].insert(v);
            adj[v].insert(u);
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for set in adj {
            neighbors.extend(set);
            offsets.push(neighbors.len());
        }
        Self { offsets, neighbors }
    }

    /// Graph with `num_nodes` nodes and no edges.
    pub fn empty(num_nodes: usize) -> Self {
        Self {
            offsets: vec![0; num_nodes + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Neighbours of node `u`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes()`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        assert!(u < self.num_nodes(), "node {u} out of range");
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes()`.
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors(u).len()
    }

    /// `true` if the undirected edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.num_nodes() && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Edge density: `2|E| / (n (n-1))`, 0 for graphs with < 2 nodes.
    pub fn density(&self) -> f64 {
        let n = self.num_nodes();
        if n < 2 {
            return 0.0;
        }
        (2 * self.num_edges()) as f64 / (n * (n - 1)) as f64
    }

    /// Average node degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum node degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Dense 0/1 adjacency matrix.
    ///
    /// Used when mapping small subgraph adjacency blocks onto crossbars.
    pub fn to_dense(&self) -> Matrix {
        let n = self.num_nodes();
        let mut m = Matrix::zeros(n, n);
        for (u, v) in self.edges() {
            m[(u, v)] = 1.0;
            m[(v, u)] = 1.0;
        }
        m
    }

    /// Subgraph induced by `nodes` (order defines the new node ids).
    ///
    /// Returns the induced graph; `nodes[i]` becomes node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> CsrGraph {
        let mut global_to_local = vec![usize::MAX; self.num_nodes()];
        for (local, &global) in nodes.iter().enumerate() {
            assert!(global < self.num_nodes(), "node {global} out of range");
            let prev = std::mem::replace(&mut global_to_local[global], local);
            assert!(
                prev == usize::MAX,
                "duplicate node {global} in induced_subgraph"
            );
        }
        // The source lists are symmetric, deduplicated and loop-free, so
        // each kept list, relabelled and sorted, is already in the form
        // `from_edges` would build.
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for &global_u in nodes {
            let start = neighbors.len();
            neighbors.extend(
                self.neighbors(global_u)
                    .iter()
                    .map(|&v| global_to_local[v])
                    .filter(|&local_v| local_v != usize::MAX),
            );
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len());
        }
        Self { offsets, neighbors }
    }

    /// Connected components; returns per-node component id and the count.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut count = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = count;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if comp[v] == usize::MAX {
                        comp[v] = count;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn from_edges_dedupes_and_drops_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = CsrGraph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = path(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(5, &edges);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn to_dense_symmetric() {
        let g = path(3);
        let d = g.to_dense();
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(1, 0)], 1.0);
        assert_eq!(d[(0, 2)], 0.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = path(5);
        let sub = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.num_nodes(), 3);
        // Only edge (1,2) survives, relabelled to (0,1).
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.has_edge(0, 1));
        assert!(!sub.has_edge(1, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        path(3).induced_subgraph(&[0, 0]);
    }

    #[test]
    fn connected_components_counts() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
    }

    #[test]
    fn empty_graph_statistics() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn degree_and_max_degree() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }
}
