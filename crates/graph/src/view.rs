//! Cached, pre-normalised views of a batch graph.
//!
//! The GNN layers used to re-derive their propagation matrices
//! (`gcn_normalise` / `row_normalise` over a dense n×n adjacency) on
//! *every forward pass*. A [`GraphView`] hoists that work to
//! once-per-graph: it is built when a mini-batch's adjacency is fixed
//! (at batch assembly, or whenever fault corruption changes it) and
//! lazily caches each normalisation the first time a layer asks for it.
//!
//! All propagation matrices are stored sparse ([`CsrMatrix`]), and so
//! is GAT's attention neighbourhood ([`GraphView::attention_pattern`]),
//! so aggregation and attention cost `O(nnz · d)`. No layer reads the
//! dense adjacency ([`GraphView::dense`]).
//!
//! The sparse caches are constructed to be numerically interchangeable
//! with the dense reference path (`ops::gcn_normalise` /
//! `ops::row_normalise` followed by a dense matmul): values are computed
//! with the same expressions and accumulated in the same ascending
//! column order.

use std::sync::OnceLock;

use fare_tensor::{ops, Matrix};

use crate::sparse::CsrMatrix;
use crate::CsrGraph;

/// A graph plus lazily-cached normalised propagation matrices.
///
/// Construct one per (batch, adjacency) pair:
///
/// - [`GraphView::from_graph`] — from a clean [`CsrGraph`]; nothing
///   dense is ever materialised unless [`GraphView::dense`] is called.
/// - [`GraphView::from_dense`] — from an arbitrary (possibly
///   fault-corrupted, possibly asymmetric) binary adjacency matrix.
///
/// # Example
///
/// ```
/// use fare_graph::{CsrGraph, GraphView};
/// use fare_tensor::Matrix;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// let view = GraphView::from_graph(&g);
/// let x = Matrix::identity(3);
/// // Â·I equals the dense normalised adjacency.
/// let ahat = view.gcn_norm().spmm(&x);
/// assert_eq!(ahat, fare_tensor::ops::gcn_normalise(&g.to_dense()));
/// ```
#[derive(Debug)]
pub struct GraphView {
    n: usize,
    graph: Option<CsrGraph>,
    dense: OnceLock<Matrix>,
    gcn: OnceLock<CsrMatrix>,
    mean: OnceLock<CsrMatrix>,
    mean_t: OnceLock<CsrMatrix>,
    attention: OnceLock<CsrMatrix>,
}

impl GraphView {
    /// Wraps a clean (fault-free) graph; the sparse caches are built
    /// straight from the CSR structure.
    pub fn from_graph(graph: &CsrGraph) -> Self {
        Self {
            n: graph.num_nodes(),
            graph: Some(graph.clone()),
            dense: OnceLock::new(),
            gcn: OnceLock::new(),
            mean: OnceLock::new(),
            mean_t: OnceLock::new(),
            attention: OnceLock::new(),
        }
    }

    /// Wraps an arbitrary square binary adjacency matrix — the form the
    /// fault-injection path produces (`corrupt_adjacency_*` may add or
    /// delete directed entries, so the matrix need not be symmetric and
    /// may carry diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square.
    pub fn from_dense(adj: Matrix) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        let n = adj.rows();
        let dense = OnceLock::new();
        dense.set(adj).expect("fresh OnceLock");
        Self {
            n,
            graph: None,
            dense,
            gcn: OnceLock::new(),
            mean: OnceLock::new(),
            mean_t: OnceLock::new(),
            attention: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The dense binary adjacency (built on first use for graph-backed
    /// views). No layer reads it: the propagation matrices and the
    /// attention pattern are sparse.
    pub fn dense(&self) -> &Matrix {
        self.dense.get_or_init(|| {
            self.graph
                .as_ref()
                .expect("GraphView has neither dense adjacency nor graph")
                .to_dense()
        })
    }

    /// The symmetric GCN propagation matrix `Â = D^{-1/2}(A+I)D^{-1/2}`
    /// as a sparse matrix, built once and cached.
    pub fn gcn_norm(&self) -> &CsrMatrix {
        self.gcn.get_or_init(|| match &self.graph {
            Some(g) => gcn_csr(g),
            None => CsrMatrix::from_dense(&ops::gcn_normalise(self.dense())),
        })
    }

    /// The mean-aggregation propagation matrix `Ā = D^{-1}A` as a
    /// sparse matrix, built once and cached.
    pub fn mean_norm(&self) -> &CsrMatrix {
        self.mean.get_or_init(|| match &self.graph {
            Some(g) => mean_csr(g),
            None => CsrMatrix::from_dense(&ops::row_normalise(self.dense())),
        })
    }

    /// `Āᵀ` (needed by the SAGE backward pass — `Ā` is not symmetric),
    /// built once from [`GraphView::mean_norm`] and cached.
    pub fn mean_norm_t(&self) -> &CsrMatrix {
        self.mean_t.get_or_init(|| self.mean_norm().transpose())
    }

    /// GAT's attention neighbourhood: every stored adjacency entry plus
    /// a self loop per node, as a pattern of `1.0`s ascending by column,
    /// built once and cached. Entry `(i, j)` is present exactly when
    /// `i == j || adj[(i, j)] > 0.5`. Graph-backed views build it from
    /// the CSR structure without materialising the dense adjacency.
    pub fn attention_pattern(&self) -> &CsrMatrix {
        self.attention.get_or_init(|| match &self.graph {
            Some(g) => attention_csr(g),
            None => attention_dense(self.dense()),
        })
    }
}

/// `A + I` for a graph: each node's neighbours with the node itself
/// inserted at its sorted position.
fn attention_csr(g: &CsrGraph) -> CsrMatrix {
    let n = g.num_nodes();
    let entries: Vec<Vec<(usize, f32)>> = (0..n)
        .map(|u| {
            let nbrs = g.neighbors(u);
            let at = nbrs.partition_point(|&v| v < u);
            let mut row = Vec::with_capacity(nbrs.len() + 1);
            row.extend(nbrs[..at].iter().map(|&v| (v, 1.0)));
            row.push((u, 1.0));
            row.extend(nbrs[at..].iter().filter(|&&v| v != u).map(|&v| (v, 1.0)));
            row
        })
        .collect();
    CsrMatrix::from_row_entries(n, n, &entries)
}

/// `A + I` for a binary (possibly asymmetric) adjacency matrix, one
/// O(n²) scan with the `i == j || adj > 0.5` test.
fn attention_dense(adj: &Matrix) -> CsrMatrix {
    let n = adj.rows();
    let entries: Vec<Vec<(usize, f32)>> = (0..n)
        .map(|i| {
            adj.row(i)
                .iter()
                .enumerate()
                .filter(|&(j, &a)| i == j || a > 0.5)
                .map(|(j, _)| (j, 1.0))
                .collect()
        })
        .collect();
    CsrMatrix::from_row_entries(n, n, &entries)
}

/// `Â` for a self-loop-free undirected graph, entry for entry the
/// nonzeros of `ops::gcn_normalise(g.to_dense())`: the analytic self
/// loop sits at its sorted (diagonal) position and every value is
/// `deg_inv_sqrt[r] * deg_inv_sqrt[c]` (the binary entry is 1).
fn gcn_csr(g: &CsrGraph) -> CsrMatrix {
    let n = g.num_nodes();
    let inv_sqrt: Vec<f32> = (0..n)
        .map(|u| {
            // Row sum of A+I is exactly deg+1 (binary entries, < 2^24).
            1.0 / ((g.degree(u) + 1) as f32).sqrt()
        })
        .collect();
    let entries: Vec<Vec<(usize, f32)>> = (0..n)
        .map(|u| {
            let du = inv_sqrt[u];
            let mut row = Vec::with_capacity(g.degree(u) + 1);
            let mut self_placed = false;
            for &v in g.neighbors(u) {
                if !self_placed && v > u {
                    row.push((u, du * du));
                    self_placed = true;
                }
                row.push((v, du * inv_sqrt[v]));
            }
            if !self_placed {
                row.push((u, du * du));
            }
            row
        })
        .collect();
    CsrMatrix::from_row_entries(n, n, &entries)
}

/// `Ā = D^{-1}A` for an undirected graph: every stored entry of row `u`
/// is `1.0 / deg(u)` (matching `ops::row_normalise`'s per-entry
/// division of the binary 1), isolated rows stay empty.
fn mean_csr(g: &CsrGraph) -> CsrMatrix {
    let n = g.num_nodes();
    let entries: Vec<Vec<(usize, f32)>> = (0..n)
        .map(|u| {
            let d = g.degree(u);
            if d == 0 {
                return Vec::new();
            }
            let w = 1.0 / d as f32;
            g.neighbors(u).iter().map(|&v| (v, w)).collect()
        })
        .collect();
    CsrMatrix::from_row_entries(n, n, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> CsrGraph {
        CsrGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (2, 5)],
        )
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn graph_backed_gcn_matches_dense_reference_bitwise() {
        let g = sample_graph();
        let view = GraphView::from_graph(&g);
        let reference = CsrMatrix::from_dense(&ops::gcn_normalise(&g.to_dense()));
        assert_eq!(view.gcn_norm(), &reference);
    }

    #[test]
    fn graph_backed_mean_matches_dense_reference_bitwise() {
        let g = sample_graph();
        let view = GraphView::from_graph(&g);
        let reference = CsrMatrix::from_dense(&ops::row_normalise(&g.to_dense()));
        assert_eq!(view.mean_norm(), &reference);
    }

    #[test]
    fn dense_backed_view_handles_asymmetric_adjacency() {
        // A corrupted adjacency: asymmetric, with a diagonal entry.
        let adj = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0],
        ]);
        let view = GraphView::from_dense(adj.clone());
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.5 - 1.0);
        let sparse = view.gcn_norm().spmm(&x);
        let dense = ops::gcn_normalise(&adj).matmul(&x);
        assert_eq!(bits(&sparse), bits(&dense));
        let sparse_mean = view.mean_norm().spmm(&x);
        let dense_mean = ops::row_normalise(&adj).matmul(&x);
        assert_eq!(bits(&sparse_mean), bits(&dense_mean));
    }

    #[test]
    fn mean_transpose_matches_dense_t_matmul() {
        let g = sample_graph();
        let view = GraphView::from_graph(&g);
        let x = Matrix::from_fn(6, 3, |r, c| ((r + c) as f32 * 0.9).cos());
        let sparse = view.mean_norm_t().spmm(&x);
        let dense = ops::row_normalise(&g.to_dense()).t_matmul(&x);
        assert_eq!(bits(&sparse), bits(&dense));
    }

    #[test]
    fn isolated_nodes_are_handled() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let view = GraphView::from_graph(&g);
        let x = Matrix::filled(4, 2, 1.0);
        let mean = view.mean_norm().spmm(&x);
        assert_eq!(mean.row(3), &[0.0, 0.0]);
        let gcn = view.gcn_norm().spmm(&x);
        assert!((gcn[(3, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn attention_pattern_is_adjacency_plus_self_loops() {
        let g = CsrGraph::from_edges(5, &[(0, 3), (1, 3), (3, 4)]);
        let adj = g.to_dense();
        let expected = Matrix::from_fn(5, 5, |i, j| {
            if i == j || adj[(i, j)] > 0.5 {
                1.0
            } else {
                0.0
            }
        });
        let graph_view = GraphView::from_graph(&g);
        assert_eq!(graph_view.attention_pattern().to_dense(), expected);
        let dense_view = GraphView::from_dense(adj);
        assert_eq!(
            dense_view.attention_pattern(),
            graph_view.attention_pattern()
        );
        // The graph-backed pattern never materialises the dense adjacency.
        assert!(graph_view.dense.get().is_none());
    }

    #[test]
    fn dense_attention_pattern_keeps_asymmetric_and_diagonal_entries() {
        let adj = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 0.0, 0.7], &[0.3, 0.0, 0.0]]);
        let view = GraphView::from_dense(adj);
        let p = view.attention_pattern();
        assert_eq!(p.offsets(), &[0, 2, 4, 5]);
        assert_eq!(p.indices(), &[0, 1, 1, 2, 2]);
    }

    #[test]
    fn dense_accessor_round_trips_graph() {
        let g = sample_graph();
        let view = GraphView::from_graph(&g);
        assert_eq!(view.dense(), &g.to_dense());
        assert_eq!(view.num_nodes(), 6);
    }
}
