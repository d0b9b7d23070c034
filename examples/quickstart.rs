//! Quickstart: train a GCN on the PPI preset with 5 % stuck-at faults,
//! with and without FARe, and compare against fault-free training.
//!
//! Run with: `cargo run --release --example quickstart`

use fare::core::{run_fault_free, FaultStrategy, TrainConfig, Trainer};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::reram::FaultSpec;

fn main() {
    fare_bench::check_args(&[], &[]);
    let seed = 42;
    let dataset = Dataset::generate(DatasetKind::Ppi, seed);
    println!(
        "dataset: {} ({} nodes, {} edges, {} classes)",
        dataset.spec.name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );

    let base = TrainConfig {
        model: ModelKind::Gcn,
        epochs: 30,
        fault_spec: FaultSpec::density(0.05),
        ..TrainConfig::default()
    };

    let ideal = run_fault_free(&base, seed, &dataset);
    println!(
        "fault-free      : test accuracy {:.3}",
        ideal.final_test_accuracy
    );

    for strategy in FaultStrategy::all() {
        let config = TrainConfig { strategy, ..base };
        let out = Trainer::new(config, seed).run(&dataset);
        println!(
            "{strategy:<16}: test accuracy {:.3} (normalised time {:.3})",
            out.final_test_accuracy, out.normalized_time
        );
    }
}
