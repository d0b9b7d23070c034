//! Regenerates Fig. 5: test accuracy of fault-unaware / NR / clipping /
//! FARe vs the fault-free reference, across all six Table II workloads
//! and fault densities {1, 3, 5} %.
//!
//! Panel (a) is SA0:SA1 = 9:1, panel (b) is 1:1. Select with
//! `--ratio 9:1` (default) or `--ratio 1:1`; `--ratio both` prints both.

use fare_bench::{params_from_args, pct, render_table, string_flag, usage_error};
use fare_core::experiments::{fig5, table2_workloads, AccuracyComparison};
use fare_core::FaultStrategy;

fn print_panel(cmp: &AccuracyComparison, densities: &[f64]) {
    let workloads = table2_workloads();
    let mut rows = Vec::new();
    for w in &workloads {
        for &d in densities {
            let mut row = vec![w.to_string(), format!("{:.0}%", d * 100.0)];
            row.push(pct(cmp.fault_free_of(*w)));
            for s in FaultStrategy::all() {
                row.push(pct(cmp.accuracy_of(*w, s, d)));
            }
            rows.push(row);
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "density",
                "fault-free",
                "unaware",
                "NR",
                "clipping",
                "FARe"
            ],
            &rows,
        )
    );
    println!();
    for s in FaultStrategy::all() {
        println!("mean accuracy {s}: {}", pct(cmp.mean_accuracy(s)));
    }
}

fn main() {
    let params = params_from_args(&["--ratio", "--json"]);
    let json = string_flag("--json");
    let ratio = string_flag("--ratio").unwrap_or_else(|| "9:1".into());
    let densities = [0.01, 0.03, 0.05];
    let workloads = table2_workloads();

    let panels: Vec<(f64, &str)> = match ratio.as_str() {
        "9:1" => vec![(0.1, "(a) SA0:SA1 = 9:1")],
        "1:1" => vec![(0.5, "(b) SA0:SA1 = 1:1")],
        "both" => vec![(0.1, "(a) SA0:SA1 = 9:1"), (0.5, "(b) SA0:SA1 = 1:1")],
        other => usage_error(&format!("unknown --ratio {other}; use 9:1, 1:1 or both")),
    };
    let mut results = Vec::new();
    for (sa1, title) in panels {
        eprintln!(
            "running fig5 {title} (epochs={}, trials={}, {} workloads) ...",
            params.epochs,
            params.trials,
            workloads.len()
        );
        let cmp = fig5(&params, &workloads, sa1, &densities);
        println!("Fig. 5 {title}\n");
        print_panel(&cmp, &densities);
        println!();
        results.push(cmp);
    }
    fare_bench::maybe_write_json(json.as_deref(), &results);
}
