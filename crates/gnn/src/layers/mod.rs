//! GNN layer implementations with explicit forward/backward passes.
//!
//! Each layer type follows the same contract:
//!
//! - `forward(adj, input, reader, layer_index, output_layer)` consumes the
//!   **binary** batch adjacency (already fault-corrupted upstream, if at
//!   all), normalises it as the architecture prescribes, pulls its
//!   parameters through the [`crate::WeightReader`], and returns the
//!   activations plus a cache.
//! - `backward(cache, grad_output)` returns the parameter gradients and
//!   the gradient w.r.t. the layer input.
//!
//! Hidden layers apply their nonlinearity (ReLU, or ELU for GAT); the
//! output layer emits raw logits (`output_layer = true`).

mod gat;
mod gcn;
mod sage;

pub use gat::{GatCache, GatLayer};
pub use gcn::{GcnCache, GcnLayer};
pub use sage::{SageCache, SageLayer};
