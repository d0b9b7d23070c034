//! Cached, pre-normalised views of a batch graph.
//!
//! The GNN layers used to re-derive their propagation matrices
//! (`gcn_normalise` / `row_normalise` over a dense n×n adjacency) on
//! *every forward pass*. A [`GraphView`] hoists that work to
//! once-per-graph: it is built when a mini-batch's adjacency is fixed
//! (at batch assembly, or whenever fault corruption changes it) and
//! lazily caches each normalisation the first time a layer asks for it.
//!
//! A view is built from one representation, a binary CSR pattern: the
//! clean batch graph ([`GraphView::from_graph`]) or the adjacency as
//! the faulty crossbars read it back ([`GraphView::from_pattern`]),
//! which may be asymmetric and may carry diagonal entries. No dense
//! `n × n` adjacency is involved; [`GraphView::from_dense`] only
//! extracts the pattern of a dense matrix.
//!
//! All propagation matrices are stored sparse ([`CsrMatrix`]), and so
//! is GAT's attention neighbourhood ([`GraphView::attention_pattern`]),
//! so aggregation and attention cost `O(nnz · d)`.
//!
//! The sparse caches are numerically interchangeable with the dense
//! reference path (`ops::gcn_normalise` / `ops::row_normalise` over the
//! dense 0/1 adjacency, followed by a dense matmul): values are computed
//! with the same expressions and accumulated in the same ascending
//! column order.

use std::sync::OnceLock;

use fare_tensor::Matrix;

use crate::sparse::CsrMatrix;
use crate::CsrGraph;

/// A binary adjacency pattern plus lazily-cached normalised propagation
/// matrices.
///
/// Construct one per (batch, adjacency) pair:
///
/// - [`GraphView::from_graph`] — from a clean [`CsrGraph`].
/// - [`GraphView::from_pattern`] — from an arbitrary binary pattern,
///   the form fault corruption produces.
/// - [`GraphView::from_dense`] — from a dense binary matrix (an adapter
///   onto [`GraphView::from_pattern`]).
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
    /// The adjacency: every stored entry is an edge `(i, j)`.
    adj: CsrMatrix,
    gcn: OnceLock<CsrMatrix>,
    mean: OnceLock<CsrMatrix>,
    mean_t: OnceLock<CsrMatrix>,
    attention: OnceLock<CsrMatrix>,
}

impl GraphView {
    /// Wraps a clean (fault-free) graph.
    pub fn from_graph(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for u in 0..n {
            indices.extend_from_slice(graph.neighbors(u));
            offsets.push(indices.len());
        }
        Self::from_pattern(CsrMatrix::from_pattern(n, n, offsets, indices))
    }

    /// Wraps a square binary pattern, such as the adjacency read back
    /// from faulty crossbars: it need not be symmetric and may carry
    /// diagonal entries. Every stored entry is an edge.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square or holds a value other than `1.0`.
    pub fn from_pattern(adj: CsrMatrix) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        assert!(
            (0..adj.rows()).all(|r| adj.row_entries(r).all(|(_, v)| v == 1.0)),
            "a pattern stores only 1.0"
        );
        Self {
            adj,
            gcn: OnceLock::new(),
            mean: OnceLock::new(),
            mean_t: OnceLock::new(),
            attention: OnceLock::new(),
        }
    }

    /// Wraps a square binary adjacency matrix: entry `(i, j)` is an edge
    /// exactly when it is `> 0.5`, the threshold every crossbar path
    /// uses. The caches equal those of [`GraphView::from_pattern`] over
    /// the same edges.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square.
    pub fn from_dense(adj: Matrix) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        Self::from_pattern(CsrMatrix::binary_pattern(&adj))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.rows()
    }

    /// The GCN propagation matrix `Â = D^{-1/2}(A+I)D^{-1/2}` as a
    /// sparse matrix, built once and cached.
    pub fn gcn_norm(&self) -> &CsrMatrix {
        self.gcn.get_or_init(|| gcn_csr(&self.adj))
    }

    /// The mean-aggregation propagation matrix `Ā = D^{-1}A` as a
    /// sparse matrix, built once and cached.
    pub fn mean_norm(&self) -> &CsrMatrix {
        self.mean.get_or_init(|| mean_csr(&self.adj))
    }

    /// `Āᵀ` (needed by the SAGE backward pass — `Ā` is not symmetric),
    /// built once from [`GraphView::mean_norm`] and cached.
    pub fn mean_norm_t(&self) -> &CsrMatrix {
        self.mean_t.get_or_init(|| self.mean_norm().transpose())
    }

    /// GAT's attention neighbourhood: every stored adjacency entry plus
    /// a self loop per node, as a pattern of `1.0`s ascending by column,
    /// built once and cached. Entry `(i, j)` is present exactly when
    /// `i == j` or `(i, j)` is an edge.
    pub fn attention_pattern(&self) -> &CsrMatrix {
        self.attention
            .get_or_init(|| with_diagonal(&self.adj, |_, _| 1.0, |_, _| 1.0))
    }
}

/// `A + I` with every entry valued: off-diagonal edge `(u, v)` takes
/// `edge(u, v)` and the diagonal `(u, u)` takes `diag(u, stored)`,
/// where `stored` tells whether `A` itself has the entry.
fn with_diagonal(
    adj: &CsrMatrix,
    edge: impl Fn(usize, usize) -> f32,
    diag: impl Fn(usize, bool) -> f32,
) -> CsrMatrix {
    let n = adj.rows();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(adj.nnz() + n);
    let mut values = Vec::with_capacity(adj.nnz() + n);
    offsets.push(0);
    for u in 0..n {
        let cols = adj.row_indices(u);
        let at = cols.partition_point(|&v| v < u);
        let stored = cols.get(at) == Some(&u);
        for &v in &cols[..at] {
            indices.push(v);
            values.push(edge(u, v));
        }
        indices.push(u);
        values.push(diag(u, stored));
        for &v in &cols[at + stored as usize..] {
            indices.push(v);
            values.push(edge(u, v));
        }
        offsets.push(indices.len());
    }
    CsrMatrix::from_parts(n, n, offsets, indices, values)
}

/// `Â`, entry for entry the nonzeros of `ops::gcn_normalise` over the
/// dense 0/1 adjacency: the row sum of `A + I` is exactly `nnz + 1`
/// (a stored diagonal entry counts 2, binary entries, < 2^24); an
/// off-diagonal entry is `deg_inv_sqrt[r] * deg_inv_sqrt[c]`, the
/// diagonal `(1 or 2) * deg_inv_sqrt[r] * deg_inv_sqrt[r]`.
fn gcn_csr(adj: &CsrMatrix) -> CsrMatrix {
    let inv_sqrt: Vec<f32> = (0..adj.rows())
        .map(|u| 1.0 / ((adj.row_indices(u).len() + 1) as f32).sqrt())
        .collect();
    with_diagonal(
        adj,
        |u, v| inv_sqrt[u] * inv_sqrt[v],
        |u, stored| {
            let a_hat = if stored { 2.0 } else { 1.0 };
            a_hat * inv_sqrt[u] * inv_sqrt[u]
        },
    )
}

/// `Ā = D^{-1}A`: every stored entry of row `u` is `1.0 / nnz(u)`
/// (matching `ops::row_normalise`'s per-entry division of the binary
/// 1), empty rows stay empty.
fn mean_csr(adj: &CsrMatrix) -> CsrMatrix {
    let values = (0..adj.rows())
        .flat_map(|u| {
            let d = adj.row_indices(u).len();
            std::iter::repeat_n(1.0 / d as f32, d)
        })
        .collect();
    CsrMatrix::from_parts(
        adj.rows(),
        adj.cols(),
        adj.offsets().to_vec(),
        adj.indices().to_vec(),
        values,
    )
}

#[cfg(test)]
mod tests {
    use fare_tensor::ops;

    use super::*;

    fn sample_graph() -> CsrGraph {
        CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (0, 5),
                (1, 4),
                (2, 5),
            ],
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
        let adj = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]);
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
    fn pattern_view_equals_dense_normalisation_with_diagonal_entries() {
        // Asymmetric, with stored diagonal entries and an empty row.
        let adj = Matrix::from_fn(7, 7, |i, j| {
            (i != 4 && ((i * 3 + j * 5) % 4 == 0 || (i == j && i % 2 == 0))) as u8 as f32
        });
        let view = GraphView::from_pattern(CsrMatrix::from_dense(&adj));
        let gcn = CsrMatrix::from_dense(&ops::gcn_normalise(&adj));
        let mean = CsrMatrix::from_dense(&ops::row_normalise(&adj));
        let attention = Matrix::from_fn(7, 7, |i, j| (i == j || adj[(i, j)] > 0.5) as u8 as f32);
        assert_eq!(view.gcn_norm(), &gcn);
        assert_eq!(view.mean_norm(), &mean);
        assert_eq!(view.mean_norm_t(), &mean.transpose());
        assert_eq!(view.attention_pattern(), &CsrMatrix::from_dense(&attention));
        assert_eq!(view.adj.to_dense(), adj);
    }

    #[test]
    #[should_panic(expected = "a pattern stores only 1.0")]
    fn pattern_view_rejects_weighted_entries() {
        GraphView::from_pattern(CsrMatrix::from_dense(&Matrix::filled(2, 2, 0.5)));
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
    fn graph_view_round_trips_graph() {
        let g = sample_graph();
        let view = GraphView::from_graph(&g);
        assert_eq!(view.adj.to_dense(), g.to_dense());
        assert_eq!(view.num_nodes(), 6);
    }
}
