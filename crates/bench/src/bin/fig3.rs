//! Regenerates Fig. 3: impact of 5 % SA0-only vs SA1-only pre-deployment
//! faults injected separately into the weight and adjacency crossbars
//! (SAGE + Amazon2M, fault-unaware training).

use fare_bench::{params_from_args, pct, render_table, string_flag};
use fare_core::experiments::{fig3, FaultPhase};
use fare_tensor::fixed::StuckPolarity;

fn main() {
    let params = params_from_args(&["--json"]);
    let json = string_flag("--json");
    eprintln!(
        "running fig3 (epochs={}, trials={}) ...",
        params.epochs, params.trials
    );
    let result = fig3(&params);
    fare_bench::maybe_write_json(json.as_deref(), &result);

    let mut rows = vec![vec![
        "fault-free".to_string(),
        "-".into(),
        pct(result.fault_free),
    ]];
    for phase in [FaultPhase::Weights, FaultPhase::Adjacency] {
        for pol in [StuckPolarity::StuckAtZero, StuckPolarity::StuckAtOne] {
            rows.push(vec![
                phase.to_string(),
                pol.to_string(),
                pct(result.accuracy_of(phase, pol)),
            ]);
        }
    }
    println!("Fig. 3 — test accuracy after 5% single-polarity faults (SAGE + Amazon2M)\n");
    print!(
        "{}",
        render_table(&["faulty matrix", "polarity", "test accuracy"], &rows)
    );

    let w_gap = result.accuracy_of(FaultPhase::Weights, StuckPolarity::StuckAtZero)
        - result.accuracy_of(FaultPhase::Weights, StuckPolarity::StuckAtOne);
    let a_gap = result.accuracy_of(FaultPhase::Adjacency, StuckPolarity::StuckAtZero)
        - result.accuracy_of(FaultPhase::Adjacency, StuckPolarity::StuckAtOne);
    println!();
    println!(
        "SA1-vs-SA0 severity gap: weights {:+.1} pp, adjacency {:+.1} pp",
        100.0 * w_gap,
        100.0 * a_gap
    );
    println!("(paper: SA1 faults hurt more than SA0 for both matrices)");
}
