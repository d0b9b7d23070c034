//! Regenerates Table I: comparison of existing fault-tolerant techniques.

use fare_bench::render_table;
use fare_core::related::table1;

fn main() {
    fare_bench::check_args(&[], &[]);
    let yn = |b: bool| if b { "Y" } else { "N" }.to_string();
    let rows: Vec<Vec<String>> = table1()
        .into_iter()
        .map(|t| {
            vec![
                t.reference.to_string(),
                t.name.to_string(),
                yn(t.training),
                t.overhead.to_string(),
                format!("{} / {}", yn(t.combination), yn(t.aggregation)),
                yn(t.post_deployment),
            ]
        })
        .collect();
    println!("TABLE I. COMPARISON OF EXISTING FAULT-TOLERANT TECHNIQUES\n");
    print!(
        "{}",
        render_table(
            &[
                "Ref.",
                "Technique",
                "Training",
                "Perf. Overhead",
                "Combination/Aggregation",
                "Post-deployment",
            ],
            &rows,
        )
    );
}
