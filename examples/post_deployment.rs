//! Post-deployment fault endurance: faults keep appearing *while the
//! model trains* (ReRAM write wear-out), and FARe's per-epoch BIST +
//! row-permutation refresh absorbs them — the paper's Fig. 6 scenario.
//!
//! Starts from 2 % pre-deployment faults and adds 1 % more, spread
//! uniformly over the epochs, prints the per-epoch test-accuracy
//! trajectory of each strategy, then prints each strategy's
//! [`fare::obs::RunManifest`], rendered by
//! [`fare::report::summarize::to_markdown`] — the instrumented ground truth of
//! what the run actually did (faults injected, crossbars corrupted,
//! remap-cache hits/misses, epochs/batches executed) instead of ad-hoc
//! tallies.
//!
//! Run with: `cargo run --release --example post_deployment`
//! (`-- --smoke` for the reduced verify.sh geometry)

use fare::core::{run_fault_free, FaultStrategy, TrainConfig, Trainer};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::obs::{self, ClockMode, Mode};
use fare::reram::FaultSpec;

fn main() {
    fare_bench::check_args(&[], &["--smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Record counters for the manifests; the fixed clock keeps the
    // printed timer lines reproducible run-to-run.
    obs::set_mode(Mode::Json);
    obs::set_clock(ClockMode::Fixed(1_000));

    let seed = 7;
    let (kind, epochs) = if smoke {
        (DatasetKind::Ppi, 4)
    } else {
        (DatasetKind::Reddit, 25)
    };
    let dataset = Dataset::generate(kind, seed);
    let base = TrainConfig {
        model: ModelKind::Gcn,
        epochs,
        fault_spec: FaultSpec::with_ratio(0.02, 1.0, 1.0),
        post_deployment_density: 0.01,
        ..TrainConfig::default()
    };

    println!("{kind:?} + GCN, 2% pre-deployment + 1% post-deployment faults (SA0:SA1 = 1:1)\n");

    let ideal = run_fault_free(&base, seed, &dataset);
    let outcomes: Vec<_> = FaultStrategy::all()
        .iter()
        .map(|&s| {
            let config = TrainConfig {
                strategy: s,
                ..base
            };
            obs::reset();
            let out = Trainer::new(config, seed).run(&dataset);
            let manifest =
                obs::RunManifest::capture(&format!("post_deployment/{s}"), seed, &config)
                    .with_bench("final_test_accuracy", out.final_test_accuracy)
                    .with_bench(
                        "accuracy_vs_fault_free",
                        out.final_test_accuracy - ideal.final_test_accuracy,
                    );
            (s, out, manifest)
        })
        .collect();

    println!(
        "{:>5} {:>11} {:>14} {:>8} {:>10} {:>8}",
        "epoch", "fault-free", "fault-unaware", "NR", "clipping", "FARe"
    );
    for e in 0..epochs {
        let mut row = format!("{e:>5} {:>11.3}", ideal.history[e].test_accuracy);
        for (s, out, _) in &outcomes {
            let width = match s {
                FaultStrategy::FaultUnaware => 14,
                FaultStrategy::NeuronReordering => 8,
                FaultStrategy::ClippingOnly => 10,
                FaultStrategy::FaRe => 8,
            };
            row.push_str(&format!(
                " {:>w$.3}",
                out.history[e].test_accuracy,
                w = width
            ));
        }
        println!("{row}");
    }

    println!();
    for (_, _, manifest) in &outcomes {
        println!("{}", fare::report::summarize::to_markdown(manifest));
    }
    println!("(paper Fig. 6: FARe loses at most ~1.9 pp even with growing faults; NR loses up to ~15 pp)");
}
