//! Running FARe on your own graph: write a small edge-list + label file,
//! load it with `fare_graph::io`, and train with and without faults.
//!
//! Replace the generated files with your own data in the same format:
//! `edges.txt` has one `u v` pair per line, `labels.txt` one integer
//! class per node, and optionally `features.txt` one float row per node.
//!
//! Run with: `cargo run --release --example custom_dataset`

use fare::core::{run_fault_free, FaultStrategy, TrainConfig, Trainer};
use fare::graph::generate;
use fare::graph::io::load_dataset;
use fare::reram::FaultSpec;
use fare_rt::rand::SeedableRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    fare_bench::check_args(&[], &[]);
    // 1. Write a demo dataset to disk (stand-in for your real files).
    let dir = std::env::temp_dir().join("fare_custom_dataset_demo");
    std::fs::create_dir_all(&dir)?;
    let edges_path = dir.join("edges.txt");
    let labels_path = dir.join("labels.txt");
    {
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(7);
        let (graph, labels) = generate::sbm(300, 4, 0.15, 0.01, &mut rng);
        let mut edges_text = String::from("# u v\n");
        for (u, v) in graph.edges() {
            edges_text.push_str(&format!("{u} {v}\n"));
        }
        std::fs::write(&edges_path, edges_text)?;
        let labels_text: String = labels.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&labels_path, labels_text)?;
    }
    println!("wrote demo dataset to {}", dir.display());

    // 2. Load it back (features synthesised from graph structure since we
    //    provide none).
    let dataset = load_dataset(&edges_path, &labels_path, None, 12, 3, 7)?;
    println!(
        "loaded: {} nodes, {} edges, {} classes, {}-dim features\n",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes,
        dataset.features.cols()
    );

    // 3. Train on ideal vs faulty hardware.
    let base = TrainConfig {
        epochs: 20,
        fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
        ..TrainConfig::default()
    };
    let ideal = run_fault_free(&base, 7, &dataset);
    println!(
        "fault-free   : test accuracy {:.3}",
        ideal.final_test_accuracy
    );
    for strategy in [FaultStrategy::FaultUnaware, FaultStrategy::FaRe] {
        let out = Trainer::new(TrainConfig { strategy, ..base }, 7).run(&dataset);
        println!(
            "{strategy:<13}: test accuracy {:.3} (5% faults, 1:1)",
            out.final_test_accuracy
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
