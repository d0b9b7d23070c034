//! Fault-density sweep: how each mitigation strategy degrades as the
//! stuck-at-fault density rises from 0 to 5 % — the scenario motivating
//! the paper's introduction (edge accelerators with imperfect ReRAM).
//!
//! Prints the accuracy-vs-density table, then the instrumented
//! [`fare::obs::RunManifest`] of the harshest FARe cell (5 % density),
//! rendered by [`fare::report::summarize::to_markdown`]: faults injected
//! per polarity, crossbars corrupted, mapping pairs solved and
//! remap-cache traffic, instead of ad-hoc tallies.
//!
//! Run with: `cargo run --release --example fault_sweep [-- --ratio 1:1]`
//! (`-- --smoke` for the reduced verify.sh geometry)

use fare::core::{run_fault_free, FaultStrategy, TrainConfig, Trainer};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::obs::{self, ClockMode, Mode};
use fare::reram::FaultSpec;

fn main() {
    fare_bench::check_args(&["--ratio"], &["--smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ratio_arg = fare_bench::string_flag("--ratio").unwrap_or_else(|| "9:1".into());
    let sa1_fraction = match ratio_arg.as_str() {
        "9:1" => 0.1,
        "1:1" => 0.5,
        other => fare_bench::usage_error(&format!("unknown ratio {other:?}; accepted: 9:1 1:1")),
    };
    obs::set_mode(Mode::Json);
    obs::set_clock(ClockMode::Fixed(1_000));

    let seed = 42;
    let (kind, epochs, densities): (_, _, &[f64]) = if smoke {
        (DatasetKind::Ppi, 4, &[0.0, 0.05])
    } else {
        (
            DatasetKind::Amazon2M,
            25,
            &[0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
        )
    };
    let dataset = Dataset::generate(kind, seed);
    let base = TrainConfig {
        model: ModelKind::Sage,
        epochs,
        ..TrainConfig::default()
    };

    let ideal = run_fault_free(&base, seed, &dataset);
    println!(
        "{kind:?} + SAGE, SA0:SA1 = {ratio_arg}; fault-free test accuracy {:.3}",
        ideal.final_test_accuracy
    );
    println!(
        "{:>8} {:>14} {:>8} {:>10} {:>8}",
        "density", "fault-unaware", "NR", "clipping", "FARe"
    );

    let mut worst_fare_manifest = None;
    for &density in densities {
        let mut row = format!("{:>7.0}%", density * 100.0);
        for strategy in FaultStrategy::all() {
            let config = TrainConfig {
                fault_spec: FaultSpec::with_sa1_fraction(density, sa1_fraction),
                strategy,
                ..base
            };
            obs::reset();
            let out = Trainer::new(config, seed).run(&dataset);
            if strategy == FaultStrategy::FaRe && density == *densities.last().unwrap() {
                worst_fare_manifest = Some(
                    obs::RunManifest::capture(
                        &format!("fault_sweep/fare@{:.0}%", density * 100.0),
                        seed,
                        &config,
                    )
                    .with_bench("final_test_accuracy", out.final_test_accuracy)
                    .with_bench(
                        "accuracy_vs_fault_free",
                        out.final_test_accuracy - ideal.final_test_accuracy,
                    ),
                );
            }
            let width = match strategy {
                FaultStrategy::FaultUnaware => 14,
                FaultStrategy::NeuronReordering => 8,
                FaultStrategy::ClippingOnly => 10,
                FaultStrategy::FaRe => 8,
            };
            row.push_str(&format!(" {:>w$.3}", out.final_test_accuracy, w = width));
        }
        println!("{row}");
    }
    println!();
    if let Some(manifest) = worst_fare_manifest {
        println!("{}", fare::report::summarize::to_markdown(&manifest));
    }
    println!("Expected shape (paper Fig. 5): fault-unaware decays fastest; FARe stays near the fault-free line even at 5%.");
}
