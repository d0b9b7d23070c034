//! # FARe — Fault-Aware GNN Training on ReRAM-Based PIM Accelerators
//!
//! A from-scratch Rust reproduction of *FARe* (DATE 2024): a framework
//! that keeps graph-neural-network training accurate on ReRAM
//! processing-in-memory hardware afflicted by stuck-at faults.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`tensor`] — dense matrices and 16-bit fixed-point / 2-bit-cell
//!   quantisation,
//! - [`graph`] — CSR graphs, synthetic dataset presets, METIS-like
//!   partitioning and Cluster-GCN mini-batching,
//! - [`matching`] — Hungarian and b-Suitor assignment solvers,
//! - [`reram`] — the crossbar/tile simulator with SA0/SA1 fault
//!   injection, packed fault planes and the pipelined timing model
//!   (with the per-epoch BIST scan's time charge),
//! - [`gnn`] — GCN / GAT / GraphSAGE models with manual backprop and a
//!   pluggable (ideal vs faulty) weight reader,
//! - [`core`] — the FARe mapping algorithm (Algorithm 1), weight
//!   clipping, the baselines and the experiment runners,
//! - [`obs`] — the telemetry layer: named monotonic counters, spans
//!   (timed per name, and traced with Chrome-trace export),
//!   per-epoch metric sinks, per-crossbar heatmaps and
//!   [`obs::RunManifest`] run manifests (enable with
//!   `FARE_OBS=trace|json` or `obs::set_mode`),
//! - [`report`] — the analysis side: manifest summaries, regression
//!   diffs, heatmap renderers and fig5-style SVG figures, exposed on
//!   the command line as the `fare-report` binary.
//!
//! # Quickstart
//!
//! ```
//! use fare::core::{FaultStrategy, TrainConfig, Trainer};
//! use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
//! use fare::reram::FaultSpec;
//!
//! // A tiny run: PPI preset, GCN, 2% faults, FARe protection on.
//! let dataset = Dataset::generate(DatasetKind::Ppi, 42);
//! let config = TrainConfig {
//!     model: ModelKind::Gcn,
//!     epochs: 3,
//!     fault_spec: FaultSpec::density(0.02),
//!     strategy: FaultStrategy::FaRe,
//!     ..TrainConfig::default()
//! };
//! let outcome = Trainer::new(config, 42).run(&dataset);
//! assert!(outcome.final_test_accuracy > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use fare_core as core;
pub use fare_gnn as gnn;
pub use fare_graph as graph;
pub use fare_matching as matching;
pub use fare_obs as obs;
pub use fare_report as report;
pub use fare_reram as reram;
pub use fare_tensor as tensor;

pub mod golden;
