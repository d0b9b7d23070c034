//! Graph neural networks with hand-derived backpropagation.
//!
//! Three model families, matching the paper's Table II workloads:
//!
//! - [`layers::GcnLayer`] — graph convolution, `act(Â·H·W)` with the
//!   symmetric Kipf–Welling normalisation `Â = D^{-1/2}(A+I)D^{-1/2}`,
//! - [`layers::SageLayer`] — GraphSAGE mean aggregation,
//!   `act(H·W_self + D^{-1}A·H·W_neigh)`,
//! - [`layers::GatLayer`] — single-head additive graph attention.
//!
//! Every forward pass pulls its parameters through a [`WeightReader`],
//! the hook that lets the same model train on ideal hardware
//! ([`IdealReader`]) or on a faulty ReRAM fabric (implemented in
//! `fare-core`). Adjacency corruption happens *before* the model sees the
//! batch — models receive a `fare_graph::GraphView` wrapping the
//! (possibly fault-corrupted) binary adjacency; the view caches the
//! normalised propagation matrices once per graph and the layers
//! aggregate with sparse kernels.
//!
//! [`Adam`] is the one optimiser: [`Gnn::apply_gradients`] steps every
//! parameter through it under a stable per-parameter key.
//!
//! [`Gnn::backward`] returns only parameter gradients, so its first
//! layer skips the gradient w.r.t. the input features: GCN saves a
//! `matmul_t` and an aggregation, SAGE two `matmul_t`, an aggregation
//! and an add, GAT one `matmul_t`. Each layer's `backward` takes an
//! `input_grad` flag and builds its input gradient only when it is set.
//!
//! # Example
//!
//! ```
//! use fare_gnn::{Adam, Gnn, GnnDims, IdealReader};
//! use fare_graph::datasets::ModelKind;
//! use fare_graph::{CsrGraph, GraphView};
//! use fare_tensor::{ops, Matrix};
//! use fare_rt::rand::SeedableRng;
//!
//! let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(0);
//! let dims = GnnDims { input: 4, hidden: 8, output: 2 };
//! let mut model = Gnn::new(ModelKind::Gcn, dims, &mut rng);
//! let adj = GraphView::from_graph(&CsrGraph::from_edges(2, &[(0, 1)]));
//! let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0]]);
//! let mut opt = Adam::new(0.01, &model);
//!
//! let (logits, cache) = model.forward(&adj, &x, &IdealReader);
//! let (_, grad) = ops::cross_entropy_with_grad(&logits, &[0, 1]);
//! let grads = model.backward(&adj, &cache, &grad);
//! model.apply_gradients(&grads, &mut opt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod layers;
pub mod link;
mod model;
mod optim;
mod reader;

pub use model::{Gnn, GnnDims, Gradients, ParamShape};
pub use optim::Adam;
pub use reader::{IdealReader, WeightReader};
