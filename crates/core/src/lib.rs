//! The FARe framework: fault-aware GNN training on ReRAM-based PIM
//! accelerators (DATE 2024).
//!
//! FARe combines two synergistic defences:
//!
//! 1. **Fault-aware adjacency mapping** ([`mapping`], the paper's
//!    Algorithm 1) — the batch adjacency matrix is block-decomposed and
//!    each block is assigned to a crossbar *and row-permuted within it*
//!    so stored ones land on stuck-at-1 cells and stored zeros on
//!    stuck-at-0 cells, minimising corruption of the aggregation phase.
//! 2. **Weight clipping** ([`clipping`]) — a hardware comparator bounds
//!    every weight read, preventing the "weight explosion" a stuck-at-1
//!    cell near the MSB would otherwise cause in the combination phase.
//!
//! The crate also implements the paper's baselines — fault-unaware
//! training, neuron reordering (NR) and clipping-only — behind one
//! [`FaultStrategy`] switch, plus [`Trainer`], the full mini-batch
//! pipelined training loop, and [`experiments`], runners that regenerate
//! every figure of the evaluation section.
//!
//! # Example
//!
//! ```
//! use fare_core::{FaultStrategy, TrainConfig, Trainer};
//! use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
//! use fare_reram::FaultSpec;
//!
//! let dataset = Dataset::generate(DatasetKind::Ppi, 7);
//! let config = TrainConfig {
//!     model: ModelKind::Gcn,
//!     epochs: 2,
//!     fault_spec: FaultSpec::density(0.03),
//!     strategy: FaultStrategy::FaRe,
//!     ..TrainConfig::default()
//! };
//! let outcome = Trainer::new(config, 7).run(&dataset);
//! assert_eq!(outcome.history.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod clipping;
pub mod clustering;
mod engine;
pub mod experiments;
mod faulty;
pub mod link_prediction;
pub mod mapping;
pub mod related;
mod strategy;
mod trainer;

pub use faulty::{
    corrupt_adjacency_mapped, corrupt_adjacency_unaware, FaultyWeightReader,
};
pub use mapping::{
    map_adjacency, map_adjacency_cached, refresh_row_permutations,
    refresh_row_permutations_cached, BlockPlacement, Mapping, MappingConfig, RemapCache,
};
pub use strategy::FaultStrategy;
pub use trainer::{run_fault_free, EpochStats, TrainConfig, TrainOutcome, Trainer};
