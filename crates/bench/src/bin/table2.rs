//! Regenerates Table II: dataset statistics and workload configuration —
//! both the paper's original numbers and the scaled synthetic replicas
//! actually generated here (with their measured statistics).

use fare_bench::render_table;
use fare_graph::datasets::{Dataset, DatasetKind};

fn main() {
    let seed = fare_bench::params_from_args(&[]).seed;
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let ds = Dataset::generate(kind, seed);
        let spec = &ds.spec;
        let models: Vec<String> = spec.models.iter().map(|m| m.to_string()).collect();
        rows.push(vec![
            spec.name.to_string(),
            format!("{}", spec.paper_nodes),
            format!("{}", spec.paper_edges),
            format!(
                "Batch={}, Partitions={}",
                spec.paper_batch, spec.paper_partitions
            ),
            format!("{}", ds.graph.num_nodes()),
            format!("{}", ds.graph.num_edges()),
            format!(
                "Batch={}, Partitions={}",
                spec.clusters_per_batch, spec.partitions
            ),
            models.join("+"),
        ]);
    }
    println!("TABLE II. GRAPH DATASETS & GNN WORKLOAD CONFIGURATION");
    println!(
        "(lr = 0.01, epochs = 100 in the paper; scaled replicas generated with seed {seed})\n"
    );
    print!(
        "{}",
        render_table(
            &[
                "Dataset",
                "Paper #Nodes",
                "Paper #Edges",
                "Paper config",
                "Scaled #Nodes",
                "Scaled #Edges",
                "Scaled config",
                "GNN Model",
            ],
            &rows,
        )
    );
}
