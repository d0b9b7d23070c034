//! General-purpose training CLI: run any (dataset, model, strategy,
//! fault) combination and print the per-epoch trajectory.
//!
//! ```text
//! cargo run --release -p fare-bench --bin train -- \
//!     --dataset reddit --model gcn --strategy fare \
//!     --density 0.05 --ratio 1:1 --epochs 30 [--post 0.01] [--seed 42]
//! ```

use fare_bench::{numeric_flag, params_from_args, string_flag, usage_error};
use fare_core::{run_fault_free, FaultStrategy, TrainConfig, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_reram::FaultSpec;

fn parse_dataset(s: &str) -> DatasetKind {
    match s.to_lowercase().as_str() {
        "ppi" => DatasetKind::Ppi,
        "reddit" => DatasetKind::Reddit,
        "amazon2m" | "amazon" => DatasetKind::Amazon2M,
        "ogbl" => DatasetKind::Ogbl,
        other => usage_error(&format!(
            "unknown dataset {other}; use ppi|reddit|amazon2m|ogbl"
        )),
    }
}

fn parse_model(s: &str) -> ModelKind {
    match s.to_lowercase().as_str() {
        "gcn" => ModelKind::Gcn,
        "gat" => ModelKind::Gat,
        "sage" => ModelKind::Sage,
        other => usage_error(&format!("unknown model {other}; use gcn|gat|sage")),
    }
}

fn parse_strategy(s: &str) -> Option<FaultStrategy> {
    match s.to_lowercase().as_str() {
        "unaware" | "fault-unaware" => Some(FaultStrategy::FaultUnaware),
        "nr" | "neuron-reordering" => Some(FaultStrategy::NeuronReordering),
        "clip" | "clipping" => Some(FaultStrategy::ClippingOnly),
        "fare" => Some(FaultStrategy::FaRe),
        "ideal" | "fault-free" => None,
        other => usage_error(&format!(
            "unknown strategy {other}; use unaware|nr|clip|fare|ideal"
        )),
    }
}

/// The SA1 fraction of an `SA0:SA1` ratio such as `9:1`.
fn parse_ratio(s: &str) -> f64 {
    let fraction = s.split_once(':').and_then(|(sa0, sa1)| {
        let (sa0, sa1): (f64, f64) = (sa0.parse().ok()?, sa1.parse().ok()?);
        Some(sa1 / (sa0 + sa1))
    });
    match fraction {
        Some(f) if (0.0..=1.0).contains(&f) => f,
        _ => usage_error(&format!("--ratio must look like 9:1, got {s:?}")),
    }
}

fn main() {
    let params = params_from_args(&[
        "--dataset",
        "--model",
        "--strategy",
        "--density",
        "--ratio",
        "--post",
        "--theta",
        "--json",
    ]);
    let json = string_flag("--json");
    let dataset_kind = parse_dataset(&string_flag("--dataset").unwrap_or_else(|| "ppi".into()));
    let model = parse_model(&string_flag("--model").unwrap_or_else(|| "gcn".into()));
    let strategy = parse_strategy(&string_flag("--strategy").unwrap_or_else(|| "fare".into()));
    let density: f64 = numeric_flag("--density", 0.05);
    if !(0.0..=1.0).contains(&density) {
        usage_error(&format!("--density must be in [0, 1], got {density}"));
    }
    let sa1_fraction = parse_ratio(&string_flag("--ratio").unwrap_or_else(|| "9:1".into()));
    let post: f64 = numeric_flag("--post", 0.0);
    let theta: f32 = numeric_flag("--theta", 1.0);

    let config = TrainConfig {
        model,
        epochs: params.epochs,
        clip_threshold: theta,
        fault_spec: FaultSpec::with_sa1_fraction(density, sa1_fraction),
        post_deployment_density: post,
        strategy: strategy.unwrap_or(FaultStrategy::FaRe),
        ..TrainConfig::default()
    };
    if let Err(e) = config.validate() {
        usage_error(&e);
    }
    let dataset = Dataset::generate(dataset_kind, params.seed);

    println!(
        "dataset {} ({} nodes, {} edges) | model {model} | {} | density {:.1}% (SA1 fraction {:.2}) | post +{:.1}% | θ={theta}",
        dataset.spec.name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        strategy.map_or("fault-free".to_string(), |s| s.to_string()),
        100.0 * density,
        sa1_fraction,
        100.0 * post,
    );

    let outcome = match strategy {
        Some(s) => Trainer::new(
            TrainConfig {
                strategy: s,
                ..config
            },
            params.seed,
        )
        .run(&dataset),
        None => run_fault_free(&config, params.seed, &dataset),
    };

    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "epoch", "loss", "train acc", "test acc"
    );
    for e in &outcome.history {
        println!(
            "{:>6} {:>10.4} {:>10.3} {:>10.3}",
            e.epoch, e.loss, e.train_accuracy, e.test_accuracy
        );
    }
    println!(
        "\nfinal test accuracy {:.3} | normalised execution time {:.3}",
        outcome.final_test_accuracy, outcome.normalized_time
    );
    fare_bench::maybe_write_json(json.as_deref(), &outcome);
}
