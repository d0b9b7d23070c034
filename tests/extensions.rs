//! Integration tests for the extension surface: non-ideality models and
//! custom data, exercised together through the facade.

use fare::core::{FaultStrategy, TrainConfig, Trainer};
use fare::graph::generate;
use fare::graph::io::{assemble_dataset, read_edge_list};
use fare::reram::FaultSpec;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

#[test]
fn all_nonidealities_compose_in_one_run() {
    // SAFs + programming variation + drift + post-deployment faults +
    // regularisation, all at once, with FARe: training must remain
    // stable and learn.
    let ds =
        fare::graph::datasets::Dataset::generate(fare::graph::datasets::DatasetKind::Reddit, 4);
    let out = Trainer::new(
        TrainConfig {
            epochs: 10,
            fault_spec: FaultSpec::with_ratio(0.02, 9.0, 1.0),
            weight_variation_sigma: 0.05,
            weight_drift_sigma: 0.005,
            post_deployment_density: 0.005,
            weight_decay: 0.0005,
            grad_clip_norm: 5.0,
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        },
        4,
    )
    .run(&ds);
    assert!(
        out.final_test_accuracy > 0.7,
        "composed non-idealities broke training: {:.3}",
        out.final_test_accuracy
    );
    assert!(out.history.iter().all(|e| e.loss.is_finite()));
}

#[test]
fn custom_rmat_dataset_trains_under_faults() {
    // R-MAT graph → edge-list text → io loader → trainer, end to end.
    let mut rng = StdRng::seed_from_u64(5);
    let g = generate::rmat(7, 800, 0.5, 0.2, 0.2, &mut rng);
    let mut text = String::new();
    for (u, v) in g.edges() {
        text.push_str(&format!("{u} {v}\n"));
    }
    let reloaded = read_edge_list(text.as_bytes()).expect("round-trip parse");
    assert_eq!(reloaded.num_edges(), g.num_edges());
    // Degree-based two-class labels (hubs vs non-hubs): learnable from
    // structure alone.
    let mean_deg = reloaded.average_degree();
    let labels: Vec<usize> = (0..reloaded.num_nodes())
        .map(|u| usize::from(reloaded.degree(u) as f64 > mean_deg))
        .collect();
    let ds = assemble_dataset(reloaded, labels, None, 8, 2, 5).expect("assemble");
    // SAGE: its explicit self path keeps the hub's own degree channel
    // visible (GCN's symmetric normalisation scales a hub's self loop by
    // 1/(deg+1), washing the signal out).
    let out = Trainer::new(
        TrainConfig {
            model: fare::graph::datasets::ModelKind::Sage,
            epochs: 10,
            fault_spec: FaultSpec::density(0.02),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        },
        5,
    )
    .run(&ds);
    assert!(
        out.final_test_accuracy > 0.6,
        "hub classification failed: {:.3}",
        out.final_test_accuracy
    );
}
