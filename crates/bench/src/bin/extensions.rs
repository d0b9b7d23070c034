//! Extension experiments beyond the paper's figures: the other two edge
//! applications its introduction motivates — link prediction and graph
//! clustering — evaluated under the same fault model and mitigation
//! strategies, plus the model-depth ablation.
//!
//! These have no paper counterpart to compare against; they demonstrate
//! that FARe's protection is task-agnostic (it guards the *computation*,
//! not the objective).

use fare_bench::{params_from_args, pct, render_table};
use fare_core::ablation::depth_ablation;
use fare_core::clustering::run_graph_clustering;
use fare_core::link_prediction::run_link_prediction;
use fare_core::{FaultStrategy, TrainConfig};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_reram::FaultSpec;

fn main() {
    let params = params_from_args(&[]);
    let seed = params.seed;

    println!("Extension 1 — link prediction (Ogbl+SAGE, 5% faults, 1:1)\n");
    let dataset = Dataset::generate(DatasetKind::Ogbl, seed);
    // θ is a per-task hyperparameter (Section IV-B): the dot-product BCE
    // objective legitimately grows weights past 1, so the link tasks use
    // a wider clip window than classification.
    let base = TrainConfig {
        model: ModelKind::Sage,
        epochs: params.epochs,
        clip_threshold: 4.0,
        ..TrainConfig::default()
    };
    let mut rows = vec![{
        let out = run_link_prediction(&base, seed, &dataset);
        vec!["fault-free".to_string(), format!("{:.3}", out.final_auc)]
    }];
    for strategy in FaultStrategy::all() {
        let config = TrainConfig {
            fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
            strategy,
            ..base
        };
        let auc: f64 = (0..params.trials.max(1))
            .map(|t| {
                run_link_prediction(&config, seed.wrapping_add(1000 * t as u64), &dataset).final_auc
            })
            .sum::<f64>()
            / params.trials.max(1) as f64;
        rows.push(vec![strategy.to_string(), format!("{auc:.3}")]);
    }
    print!("{}", render_table(&["strategy", "held-out AUC"], &rows));

    println!("\nExtension 2 — graph clustering (Reddit+GCN, 5% faults, 1:1)\n");
    let dataset = Dataset::generate(DatasetKind::Reddit, seed);
    let base = TrainConfig {
        model: ModelKind::Gcn,
        epochs: params.epochs,
        clip_threshold: 4.0,
        ..TrainConfig::default()
    };
    let clean = run_graph_clustering(&base, seed, &dataset);
    let mut rows = vec![vec![
        "fault-free".to_string(),
        pct(clean.purity),
        format!("{:.3}", clean.nmi),
    ]];
    for strategy in FaultStrategy::all() {
        let config = TrainConfig {
            fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
            strategy,
            ..base
        };
        let (mut purity, mut nmi) = (0.0, 0.0);
        let trials = params.trials.max(1);
        for t in 0..trials {
            let out = run_graph_clustering(&config, seed.wrapping_add(1000 * t as u64), &dataset);
            purity += out.purity / trials as f64;
            nmi += out.nmi / trials as f64;
        }
        rows.push(vec![strategy.to_string(), pct(purity), format!("{nmi:.3}")]);
    }
    print!("{}", render_table(&["strategy", "purity", "NMI"], &rows));

    println!("\nExtension 3 — model depth under FARe (PPI+GCN, 3% faults, 9:1)\n");
    let rows: Vec<Vec<String>> = depth_ablation(&params, &[2, 3, 4])
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.depth),
                pct(r.accuracy),
                format!("{:.3}", r.normalized_time),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["layers", "FARe accuracy", "normalised time"], &rows)
    );
}
