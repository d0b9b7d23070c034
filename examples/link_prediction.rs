//! Link prediction at the edge: one of the three applications the
//! paper's introduction motivates (Ogbl-citation2 is a link-prediction
//! benchmark in its original form).
//!
//! Trains a GraphSAGE encoder with a dot-product edge decoder through the
//! faulty ReRAM pipeline and compares held-out AUC with and without FARe.
//!
//! Note: on stochastic-block-model graphs an intra-community non-edge is
//! statistically indistinguishable from a held-out edge, so attainable
//! AUC is capped well below 1.0 — what matters is the gap to the 0.5
//! chance line and between strategies.
//!
//! Run with: `cargo run --release --example link_prediction`

use fare::core::link_prediction::run_link_prediction;
use fare::core::{FaultStrategy, TrainConfig};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::reram::FaultSpec;

fn main() {
    fare_bench::check_args(&[], &[]);
    let seed = 42;
    let dataset = Dataset::generate(DatasetKind::Ogbl, seed);
    println!(
        "Ogbl preset: {} nodes, {} edges; task: predict held-out edges\n",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges()
    );

    // θ is task-dependent: the dot-product decoder legitimately grows
    // weights past the classification default of 1.
    let base = TrainConfig {
        model: ModelKind::Sage,
        epochs: 25,
        clip_threshold: 4.0,
        ..TrainConfig::default()
    };

    let clean = run_link_prediction(&base, seed, &dataset);
    println!(
        "fault-free hardware : AUC {:.3} over {} held-out edges",
        clean.final_auc, clean.test_edges
    );

    for strategy in FaultStrategy::all() {
        let config = TrainConfig {
            fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
            strategy,
            ..base
        };
        let out = run_link_prediction(&config, seed, &dataset);
        println!(
            "{strategy:<20}: AUC {:.3} (5% faults, SA0:SA1 = 1:1)",
            out.final_auc
        );
    }
}
