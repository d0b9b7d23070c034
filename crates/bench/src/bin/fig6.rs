//! Regenerates Fig. 6: test accuracy with {1, 2, 3} % pre-deployment
//! faults plus 1 % additional post-deployment faults spread uniformly
//! over the epochs, for SA0:SA1 ratios 9:1 and 1:1, all strategies, all
//! workloads.

use fare_bench::{params_from_args, pct, render_table, string_flag};
use fare_core::experiments::{fig6, table2_workloads};
use fare_core::FaultStrategy;

fn main() {
    let params = params_from_args(&["--json"]);
    let json = string_flag("--json");
    let pre_densities = [0.01, 0.02, 0.03];
    let post = 0.01;
    let workloads = table2_workloads();

    let mut results = Vec::new();
    for (sa1, title) in [(0.1, "SA0:SA1 = 9:1"), (0.5, "SA0:SA1 = 1:1")] {
        eprintln!(
            "running fig6 {title} (epochs={}, trials={}) ...",
            params.epochs, params.trials
        );
        let cmp = fig6(&params, &workloads, sa1, &pre_densities, post);
        println!("Fig. 6 — pre-deployment + 1% post-deployment faults, {title}\n");
        let mut rows = Vec::new();
        for w in &workloads {
            for &d in &pre_densities {
                let mut row = vec![
                    w.to_string(),
                    format!("{:.0}%+1%", d * 100.0),
                    pct(cmp.fault_free_of(*w)),
                ];
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
                    "pre+post",
                    "fault-free",
                    "unaware",
                    "NR",
                    "clipping",
                    "FARe"
                ],
                &rows,
            )
        );
        // Paper headline: FARe loses at most ~1.9 pp with post-deployment
        // faults; NR loses up to ~15 pp.
        let worst = |s: FaultStrategy| -> f64 {
            let mut max = f64::NEG_INFINITY;
            for w in &workloads {
                for &d in &pre_densities {
                    max = max.max(cmp.fault_free_of(*w) - cmp.accuracy_of(*w, s, d));
                }
            }
            max
        };
        println!();
        println!(
            "worst accuracy loss vs fault-free: FARe {:.1} pp, NR {:.1} pp, clipping {:.1} pp, unaware {:.1} pp\n",
            100.0 * worst(FaultStrategy::FaRe),
            100.0 * worst(FaultStrategy::NeuronReordering),
            100.0 * worst(FaultStrategy::ClippingOnly),
            100.0 * worst(FaultStrategy::FaultUnaware),
        );
        results.push(cmp);
    }
    fare_bench::maybe_write_json(json.as_deref(), &results);
}
