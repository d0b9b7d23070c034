//! Graph substrate for the FARe reproduction.
//!
//! The FARe paper trains GNNs with Cluster-GCN-style mini-batching: the
//! input graph is partitioned with METIS into many small clusters, and
//! each mini-batch is the subgraph induced by a union of clusters. This
//! crate rebuilds that pipeline from scratch:
//!
//! - [`CsrGraph`] — compressed sparse row storage for undirected graphs.
//! - [`generate`] — seeded synthetic generators (stochastic block model,
//!   power-law overlay, Erdős–Rényi) standing in for the paper's public
//!   datasets.
//! - [`partition`] — a multilevel heavy-edge-matching partitioner with
//!   greedy refinement, standing in for METIS.
//! - [`batch`] — mini-batch assembly (union of clusters → induced CSR
//!   subgraph).
//! - [`datasets`] — scaled-down presets mirroring Table II (PPI, Reddit,
//!   Amazon2M, Ogbl-citation2) with learnable features/labels.
//! - [`CsrMatrix`] / [`GraphView`] — weighted sparse matrices and the
//!   once-per-graph cache of normalised propagation matrices the GNN
//!   layers aggregate with (the sparse compute core), built
//!   from a clean graph or a fault-corrupted binary pattern.
//!
//! # Example
//!
//! ```
//! use fare_graph::datasets::{Dataset, DatasetKind};
//!
//! let ds = Dataset::generate(DatasetKind::Ppi, 42);
//! assert!(ds.graph.num_nodes() > 100);
//! assert_eq!(ds.features.rows(), ds.graph.num_nodes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod csr;
pub mod datasets;
pub mod generate;
pub mod io;
pub mod partition;
mod sparse;
mod view;

pub use csr::CsrGraph;
pub use partition::Partitioning;
pub use sparse::CsrMatrix;
pub use view::GraphView;
