//! Unsupervised graph clustering at the edge: train an encoder with the
//! self-supervised link objective through the faulty ReRAM pipeline,
//! k-means its embeddings, and score against the hidden communities.
//!
//! Run with: `cargo run --release --example graph_clustering`

use fare::core::clustering::run_graph_clustering;
use fare::core::{FaultStrategy, TrainConfig};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::reram::FaultSpec;

fn main() {
    fare_bench::check_args(&[], &[]);
    let seed = 42;
    let dataset = Dataset::generate(DatasetKind::Reddit, seed);
    println!(
        "Reddit preset: {} nodes, {} communities (labels used only for scoring)\n",
        dataset.graph.num_nodes(),
        dataset.num_classes
    );

    let base = TrainConfig {
        model: ModelKind::Gcn,
        epochs: 25,
        clip_threshold: 4.0, // wider clip window for the link objective
        ..TrainConfig::default()
    };

    let clean = run_graph_clustering(&base, seed, &dataset);
    println!(
        "fault-free hardware : purity {:.3}, NMI {:.3} (encoder AUC {:.3})",
        clean.purity, clean.nmi, clean.link_auc
    );

    for strategy in FaultStrategy::all() {
        let config = TrainConfig {
            fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
            strategy,
            ..base
        };
        let out = run_graph_clustering(&config, seed, &dataset);
        println!(
            "{strategy:<20}: purity {:.3}, NMI {:.3} (5% faults, 1:1)",
            out.purity, out.nmi
        );
    }
    println!(
        "\nchance purity would be {:.3}; higher NMI = better community recovery",
        1.0 / dataset.num_classes as f64
    );
}
