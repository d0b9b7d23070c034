//! Ablation harness: sweeps FARe's design choices (DESIGN.md §4) —
//! assignment solver, pruning heuristic, crossbar slack, clip threshold
//! and post-deployment refresh — and prints one table per knob.

use fare_bench::{params_from_args, pct, render_table};
use fare_core::ablation::{
    clip_threshold_ablation, matcher_ablation, prune_ablation, refresh_ablation, slack_ablation,
};

fn main() {
    let params = params_from_args(&[]);
    let seed = params.seed;

    println!("Ablation 1 — assignment solver inside Algorithm 1 (5% faults, 1:1)\n");
    let rows: Vec<Vec<String>> = matcher_ablation(seed, 0.05)
        .into_iter()
        .map(|r| {
            vec![
                r.matcher.to_string(),
                format!("{}", r.mapping_cost),
                format!("{:.2} ms", r.wall_time_ms),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["solver", "mapping cost", "wall time"], &rows)
    );

    println!("\nAblation 2 — SA1-non-overlap pruning heuristic (lines 8-17)\n");
    let rows: Vec<Vec<String>> = prune_ablation(seed, 0.05)
        .into_iter()
        .map(|r| {
            vec![
                if r.prune { "on" } else { "off" }.into(),
                format!("{}", r.mapping_cost),
                format!("{}", r.sa1_cost),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["pruning", "mapping cost", "SA1 cost"], &rows)
    );

    println!("\nAblation 3 — crossbar over-provisioning slack\n");
    let rows: Vec<Vec<String>> = slack_ablation(seed, 0.05, &[1.0, 1.25, 1.5, 2.0, 3.0])
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.2}x", r.slack),
                format!("{}", r.crossbars),
                format!("{}", r.mapping_cost),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["slack", "crossbars", "mapping cost"], &rows)
    );

    println!("\nAblation 4 — clip threshold θ (Reddit+GCN, 5% faults, 1:1)\n");
    let rows: Vec<Vec<String>> =
        clip_threshold_ablation(&params, &[0.05, 0.25, 0.5, 1.0, 2.0, 8.0, 64.0])
            .into_iter()
            .map(|r| vec![format!("{}", r.threshold), pct(r.accuracy)])
            .collect();
    print!("{}", render_table(&["θ", "FARe accuracy"], &rows));

    println!("\nAblation 5 — post-deployment row-permutation refresh (Amazon2M+SAGE, 2%+2%)\n");
    let rows: Vec<Vec<String>> = refresh_ablation(&params)
        .into_iter()
        .map(|r| {
            vec![
                if r.refresh {
                    "refresh on"
                } else {
                    "refresh off"
                }
                .into(),
                pct(r.accuracy),
            ]
        })
        .collect();
    print!("{}", render_table(&["variant", "FARe accuracy"], &rows));
}
