//! Regenerates Fig. 7: execution time of FARe, NR and weight clipping
//! normalised to fault-free pipelined training, per dataset, using each
//! dataset's paper-scale pipeline geometry (N = partitions / batch from
//! Table II, S = 5 stages, 100 epochs).

use fare_bench::render_table;
use fare_core::experiments::fig7;

fn main() {
    fare_bench::check_args(&["--json"], &[]);
    let json = fare_bench::string_flag("--json");
    let result = fig7();
    fare_bench::maybe_write_json(json.as_deref(), &result);
    let mut rows = Vec::new();
    let mut max_speedup: f64 = 0.0;
    for (kind, times) in &result.rows {
        rows.push(vec![
            kind.to_string(),
            format!("{:.3}", times.fault_free),
            format!("{:.3}", times.clipping),
            format!("{:.3}", times.fare),
            format!("{:.3}", times.neuron_reordering),
            format!("{:.2}x", times.fare_speedup_over_nr()),
        ]);
        max_speedup = max_speedup.max(times.fare_speedup_over_nr());
    }
    println!("Fig. 7 — normalised execution time (fault-free = 1.0)\n");
    print!(
        "{}",
        render_table(
            &[
                "dataset",
                "fault-free",
                "clipping",
                "FARe",
                "NR",
                "FARe speedup over NR"
            ],
            &rows,
        )
    );
    println!();
    println!("max FARe speedup over NR: {max_speedup:.2}x (paper: up to 4x)");
    println!("FARe overhead vs fault-free stays ~1% (paper: ~1%)");
}
