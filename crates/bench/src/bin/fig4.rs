//! Regenerates Fig. 4: training-accuracy curves of fault-unaware (panel
//! a) vs FARe (panel b) under 1–5 % pre-deployment fault densities
//! (GCN + Reddit, SA0:SA1 = 9:1), against the fault-free curve.

use fare_bench::{params_from_args, render_table, string_flag};
use fare_core::experiments::fig4;

fn main() {
    let params = params_from_args(&["--json"]);
    let json = string_flag("--json");
    let densities = [0.01, 0.02, 0.03, 0.04, 0.05];
    eprintln!(
        "running fig4 (epochs={}, trials={}) ...",
        params.epochs, params.trials
    );
    let result = fig4(&params, &densities);
    fare_bench::maybe_write_json(json.as_deref(), &result);

    let mut header: Vec<String> = vec!["epoch".into(), "fault-free".into()];
    for d in &densities {
        header.push(format!("unaware {:.0}%", d * 100.0));
    }
    for d in &densities {
        header.push(format!("FARe {:.0}%", d * 100.0));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let epochs = result.fault_free.len();
    let mut rows = Vec::new();
    for e in 0..epochs {
        let mut row = vec![format!("{e}"), format!("{:.3}", result.fault_free[e])];
        for c in &result.unaware {
            row.push(format!("{:.3}", c[e]));
        }
        for c in &result.fare {
            row.push(format!("{:.3}", c[e]));
        }
        rows.push(row);
    }
    println!("Fig. 4 — training accuracy vs epoch (GCN + Reddit, SA0:SA1 = 9:1)\n");
    print!("{}", render_table(&header_refs, &rows));

    let final_gap_unaware: f64 = result
        .unaware
        .iter()
        .map(|c| result.fault_free[epochs - 1] - c[epochs - 1])
        .fold(0.0, f64::max);
    let final_gap_fare: f64 = result
        .fare
        .iter()
        .map(|c| result.fault_free[epochs - 1] - c[epochs - 1])
        .fold(0.0, f64::max);
    println!();
    println!(
        "worst final-epoch gap to fault-free: unaware {:.1} pp, FARe {:.1} pp",
        100.0 * final_gap_unaware,
        100.0 * final_gap_fare
    );
    println!("(paper: FARe's curves overlap fault-free; fault-unaware destabilises)");
}
