//! Explores the pipelined execution-time model behind Fig. 7: how the
//! overhead of each fault-mitigation scheme scales with the number of
//! subgraph batches `N` (pipeline depth is `N + S − 1`), and exports
//! the schedule as Chrome traces — one *modeled* (the discrete-event
//! [`fare::reram::pipeline::Schedule`] laid out slot by slot, one trace
//! track per pipeline stage) and one *measured* (the golden workload
//! run under `FARE_OBS=trace`) — so the analytical picture and the real
//! instrumented run can be compared side by side in `chrome://tracing`
//! or ui.perfetto.dev.
//!
//! Run with: `cargo run --release --example pipeline_timing [--smoke]`
//!
//! `--smoke` shrinks the modeled schedule and keeps everything else;
//! traces land in `target/pipeline_timing/`.

use fare::obs::trace::{Phase, TraceEvent, TraceLog};
use fare::reram::pipeline::Schedule;
use fare::reram::timing::{PipelineSpec, TimingModel};

/// Lays the FARe schedule out as explicit-timestamp span events, one
/// Chrome track per pipeline stage: batch `b` occupies stage `s` during
/// cycle `issue(b) + s`, with the same front-end issue/stall logic as
/// [`fare::reram::pipeline::simulate`].
fn modeled_trace(schedule: &Schedule, cycle_ns: u64) -> TraceLog {
    let mut events = Vec::new();
    let mut epoch_start = 0usize;
    for epoch in 0..schedule.epochs {
        let mut issue = Vec::with_capacity(schedule.batches);
        let mut t = 0usize;
        for b in 0..schedule.batches {
            issue.push(t);
            t += 1;
            if schedule.stall_after_batch > 0 && b + 1 < schedule.batches {
                t += schedule.stall_after_batch;
            }
        }
        let drain = issue.last().expect("batches > 0") + schedule.stages;
        for (b, &at) in issue.iter().enumerate() {
            for s in 0..schedule.stages {
                let begin = (epoch_start + at + s) as u64 * cycle_ns;
                let name = format!("pipe.epoch{epoch}.batch{b}");
                events.push(TraceEvent {
                    name: name.clone(),
                    ph: Phase::B,
                    ts_ns: begin,
                    track: s as u64,
                    arg: Some(b as u64),
                });
                events.push(TraceEvent {
                    name,
                    ph: Phase::E,
                    ts_ns: begin + cycle_ns,
                    track: s as u64,
                    arg: None,
                });
            }
        }
        epoch_start += drain + schedule.epoch_service;
    }
    // Chrome wants each track's events time-ordered with ends before
    // same-timestamp begins.
    events.sort_by_key(|e| (e.ts_ns, e.ph == Phase::B));
    TraceLog::from_events(cycle_ns, events)
}

fn main() {
    fare_bench::check_args(&[], &["--smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("Normalised execution time vs pipeline length (S = 5 stages, 100 epochs)\n");
    println!(
        "{:>8} {:>11} {:>10} {:>8} {:>8} {:>22}",
        "batches", "fault-free", "clipping", "FARe", "NR", "FARe speedup over NR"
    );
    let sweep: &[usize] = if smoke {
        &[10, 100, 1000]
    } else {
        &[10, 50, 100, 500, 1000, 5000]
    };
    for &n in sweep {
        let model = TimingModel::new(PipelineSpec::new(n, 5, 1e-3, 100));
        let t = model.normalized();
        println!(
            "{n:>8} {:>11.3} {:>10.3} {:>8.3} {:>8.3} {:>21.2}x",
            t.fault_free,
            t.clipping,
            t.fare,
            t.neuron_reordering,
            t.fare_speedup_over_nr()
        );
    }

    println!();
    println!("Two asymptotics the paper calls out:");
    println!("- the clipping stage amortises away as N grows (N >> S), so FARe's");
    println!("  overhead converges to its ~1% preprocessing + 0.13% BIST charges;");
    println!("- NR's per-batch stall scales *with* N, so its overhead saturates");
    println!("  near 1 + stall/1 ≈ 4x, which is where FARe's 'up to 4x speedup'");
    println!("  comes from.");

    println!();
    println!("Absolute (un-normalised) times for the Table II datasets:");
    for kind in fare::graph::datasets::DatasetKind::all() {
        let spec = kind.spec();
        let n = (spec.paper_partitions / spec.paper_batch).max(1);
        let model = TimingModel::new(PipelineSpec::new(n, 5, 1e-3, 100));
        println!(
            "  {:<9} N={n:>4}: fault-free {:.2} s, FARe {:.2} s, NR {:.2} s",
            spec.name,
            model.fault_free(),
            model.fare(),
            model.neuron_reordering()
        );
    }

    // Chrome-trace exports: the modeled FARe schedule (clipping stage +
    // per-epoch BIST service) next to the measured golden-workload run.
    let out_dir = "target/pipeline_timing";
    std::fs::create_dir_all(out_dir).expect("create trace output dir");

    let (batches, epochs) = if smoke { (10, 2) } else { (50, 3) };
    let schedule = Schedule::new(batches, 5 + 1, epochs).with_epoch_service(2);
    let modeled = modeled_trace(&schedule, 1_000_000); // 1 ms stage delay
    let modeled_path = format!("{out_dir}/pipeline_modeled.trace.json");
    std::fs::write(&modeled_path, modeled.to_chrome()).expect("write modeled trace");
    println!();
    println!(
        "modeled schedule: N={batches} S={} E={epochs} -> {} span events, {}",
        schedule.stages,
        modeled.events.len() / 2,
        modeled_path
    );

    let (_, measured) = fare::golden::capture_trace();
    let measured_path = format!("{out_dir}/pipeline_measured.trace.json");
    std::fs::write(&measured_path, measured.to_chrome()).expect("write measured trace");
    println!(
        "measured golden run: {} span events ({} dropped), {}",
        measured.events.len(),
        measured.dropped,
        measured_path
    );
    println!("open both in chrome://tracing or ui.perfetto.dev to compare");
}
