//! FARe training benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//! ```
//!
//! `--trace 0` times untraced units of the workload on one worker
//! thread, over a panel of seeds derived from `--seed`, and prints the
//! end-to-end metrics. `--trace 1` runs the traced replica of
//! `Trainer::run` and prints the per-layer metrics. Every line but the
//! last starts with `#`; the last is one JSON object. README.md defines
//! the workloads and metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fare_core::link_prediction::run_link_prediction;
use fare_core::{FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_obs::{counters, Mode};
use fare_perfbench::replica;
use fare_perfbench::stats::{mean, median, windowed_tail};
use fare_perfbench::trace::Tracer;
use fare_perfbench::verdict::{judge, Tally, UnitOutcome, Verdict};
use fare_reram::FaultSpec;

const USAGE: &str = "perfbench --workload <reddit_gcn_fare|amazon_gat_unaware|ogbl_link_fare> --seed <n> --seconds <s> [--trace 0|1]";

/// Training epochs of every run, as in the re-anchor probe.
const EPOCHS: usize = 10;
/// SA1 share of injected faults: SA0:SA1 = 9:1.
const SA1_FRACTION: f64 = 0.1;
/// Builds of the inputs during set-up; `setup_s` takes their median.
const SETUP_REPS: usize = 7;

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("unit_ms_p50", "ms"),
    ("unit_ms_tail", "ms"),
    ("train_runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("test_accuracy", "fraction"),
    ("test_auc", "fraction"),
    ("mapping_cost", "count"),
    ("sim_time_norm", "x"),
];
/// Printed for an end-to-end metric that does not apply to the workload.
const NOT_APPLICABLE: f64 = 1.0;

/// Per-layer metrics (`--trace 1`) with their units. One the workload
/// does not measure is printed as 0.
const PER_LAYER: [(&str, &str); 24] = [
    ("graph.partition.ms", "ms"),
    ("graph.batch.ms", "ms"),
    ("reram.inject.ms", "ms"),
    ("reram.inject.calls", "count"),
    ("core.mapping.map.ms", "ms"),
    ("core.mapping.map.calls", "count"),
    ("core.mapping.pairs_solved", "count"),
    ("core.mapping.refresh.ms", "ms"),
    ("core.mapping.refresh.calls", "count"),
    ("core.remap_cache.hit_ratio", "ratio"),
    ("core.faulty.corrupt_adjacency.ms", "ms"),
    ("core.faulty.corrupt_adjacency.calls", "count"),
    ("graph.view.build.ms", "ms"),
    ("graph.view.build.calls", "count"),
    ("core.faulty.read_weights.ms", "ms"),
    ("core.faulty.read_weights.calls", "count"),
    ("gnn.forward.ms", "ms"),
    ("gnn.eval.ms", "ms"),
    ("gnn.backward.ms", "ms"),
    ("gnn.optim.ms", "ms"),
    ("bench.loss.ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("rt.par.speedup", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RedditGcnFare,
    AmazonGatUnaware,
    OgblLinkFare,
}

impl Workload {
    fn from_name(name: &str) -> Option<Self> {
        match name {
            "reddit_gcn_fare" => Some(Self::RedditGcnFare),
            "amazon_gat_unaware" => Some(Self::AmazonGatUnaware),
            "ogbl_link_fare" => Some(Self::OgblLinkFare),
            _ => None,
        }
    }

    /// Dataset and configuration of the workload; every field not set
    /// here is `TrainConfig::default()`.
    fn single_run(self) -> (DatasetKind, TrainConfig) {
        let base = TrainConfig {
            epochs: EPOCHS,
            fault_spec: FaultSpec::with_sa1_fraction(0.05, SA1_FRACTION),
            ..TrainConfig::default()
        };
        match self {
            Self::RedditGcnFare => (
                DatasetKind::Reddit,
                TrainConfig {
                    model: ModelKind::Gcn,
                    strategy: FaultStrategy::FaRe,
                    post_deployment_density: 0.01,
                    ..base
                },
            ),
            Self::AmazonGatUnaware => (
                DatasetKind::Amazon2M,
                TrainConfig {
                    model: ModelKind::Gat,
                    strategy: FaultStrategy::FaultUnaware,
                    ..base
                },
            ),
            Self::OgblLinkFare => (
                DatasetKind::Ogbl,
                TrainConfig {
                    model: ModelKind::Sage,
                    strategy: FaultStrategy::FaRe,
                    ..base
                },
            ),
        }
    }

    /// How many seeds, each with its own datasets, the end-to-end run
    /// cycles through. One seed's dataset can weigh a fifth more or less
    /// than another's, and its simulated results are a few hundred fault
    /// placements; a panel averages that out.
    fn panel_size(self) -> usize {
        match self {
            Self::RedditGcnFare => 16,
            Self::AmazonGatUnaware | Self::OgblLinkFare => 8,
        }
    }
}

/// The panel of `k` seeds for `seed`: `seed·k .. seed·k + k`, so two
/// seeds never share a panel member.
fn panel_seeds(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| seed.wrapping_mul(k as u64).wrapping_add(i))
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must lie in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The metrics, notes and checks of one invocation.
#[derive(Default)]
struct Report {
    tally: Tally,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
    failed_checks: Vec<String>,
}

impl Report {
    fn new(tally: Tally) -> Self {
        Self {
            tally,
            ..Self::default()
        }
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, value);
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed_checks.push(what.to_string());
        }
    }

    /// Prints the notes and the result line over `metrics`, with
    /// `missing` for each metric not set. Returns whether the run was
    /// correct.
    fn print(&self, metrics: &[(&str, &str)], missing: f64) -> bool {
        for note in &self.notes {
            println!("# {note}");
        }
        for what in &self.failed_checks {
            println!("# check failed: {what}");
        }
        println!(
            "# failed_frac {} ({} of {} units failed)",
            self.tally.failed_frac(),
            self.tally.failed,
            self.tally.attempted
        );
        let absent: Vec<&str> = metrics
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.values.contains_key(*name))
            .collect();
        if !absent.is_empty() {
            println!(
                "# not measured on this workload, printed as {missing}: {}",
                absent.join(", ")
            );
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(missing);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed_checks.is_empty() && self.tally.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        );
        correct
    }
}

/// Runs and times one unit, judging its outcome against `reference`.
/// The wall time of a unit that passed is appended to `ms` and returned.
fn timed_unit<T: UnitOutcome>(
    tally: &mut Tally,
    ms: &mut Vec<f64>,
    reference: &T,
    unit: impl FnOnce() -> T,
) -> Option<f64> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(unit));
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let verdict = judge(&result, reference);
    tally.record(verdict);
    (verdict == Verdict::Passed).then(|| {
        ms.push(elapsed);
        elapsed
    })
}

/// Times units round-robin over the panel, `unit(i)` judged against
/// `references[i]`, until `seconds` have passed. Runs whole rounds, at
/// least one, so every member is timed equally often.
fn time_units<T: UnitOutcome>(
    seconds: f64,
    references: &[T],
    unit: impl Fn(usize) -> T,
) -> (Vec<f64>, Tally) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut ms, mut tally) = (Vec::new(), Tally::default());
    loop {
        for (i, reference) in references.iter().enumerate() {
            timed_unit(&mut tally, &mut ms, reference, || unit(i));
        }
        if Instant::now() >= deadline {
            return (ms, tally);
        }
    }
}

fn p50(ms: &[f64]) -> Result<f64, String> {
    if ms.is_empty() {
        Err("no timed unit passed".to_string())
    } else {
        Ok(median(ms))
    }
}

/// Runs the untimed warm-up unit; the timed units must reproduce its
/// outcome.
fn warm_up<T>(unit: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(unit)).map_err(|_| "the warm-up unit panicked".to_string())
}

/// The warm-up unit of every panel member, in order.
fn warm_up_panel<T>(members: usize, unit: impl Fn(usize) -> T) -> Result<Vec<T>, String> {
    (0..members).map(|i| warm_up(|| unit(i))).collect()
}

/// Runs `f` with the worker pool limited to `threads`, then restores the
/// default thread count, even if `f` panics.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            fare_rt::par::set_threads(0);
        }
    }
    fare_rt::par::set_threads(threads);
    let _restore = Restore;
    f()
}

/// Starts the worker pool, then builds the inputs [`SETUP_REPS`] times.
/// Returns the inputs and the set-up time in seconds: the pool start plus
/// the median build.
fn setup<T>(build: impl Fn() -> T) -> (T, f64) {
    let start = Instant::now();
    fare_rt::par::run_batch(2, &|_| {});
    let pool_s = start.elapsed().as_secs_f64();
    let mut build_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = build();
        build_s.push(start.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    (
        inputs.expect("SETUP_REPS is positive"),
        pool_s + median(&build_s),
    )
}

/// `VmHWM`, the peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "the process status has no VmHWM line".to_string())
}

/// The timing metrics every workload reports.
fn record_timing(report: &mut Report, ms: &[f64], setup_s: f64) -> Result<(), String> {
    let p50 = p50(ms)?;
    let (windows, tail) = windowed_tail(ms);
    report.set("unit_ms_p50", p50);
    report.set("unit_ms_tail", tail.value);
    // One training run per unit. Over the summed unit times, not at the
    // median: when the host's speed switches between two levels, as the
    // reference container's does every few tens of seconds, the median
    // jumps from one level to the other while the sum moves with the share
    // of time spent at each.
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    report.set("train_runs_per_s", ms.len() as f64 / busy_s);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.notes.push(format!(
        "unit_ms_p50 over {} units; unit_ms_tail is the median over {windows} windows of {} units of each window's p{}, with {} units beyond it",
        ms.len(),
        ms.len() / windows,
        tail.percentile,
        tail.beyond
    ));
    Ok(())
}

/// Checks a classification outcome beyond reproducing itself.
fn check_outcome(report: &mut Report, outcome: &TrainOutcome) {
    report.check(
        outcome.history.len() == EPOCHS,
        "one history entry per epoch",
    );
    report.check(
        outcome.history.iter().all(|e| {
            (0.0..=1.0).contains(&e.train_accuracy) && (0.0..=1.0).contains(&e.test_accuracy)
        }),
        "accuracies lie in [0, 1]",
    );
    report.check(
        outcome.normalized_time >= 1.0,
        "normalised time is at least the fault-free time",
    );
}

fn classification_end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let (kind, config) = workload.single_run();
    let seeds = panel_seeds(seed, workload.panel_size());
    let (datasets, setup_s) = setup(|| panel_datasets(kind, &seeds));
    let unit = |i: usize| Trainer::new(config, seeds[i]).run(&datasets[i]);
    let references = warm_up_panel(seeds.len(), unit)?;
    let (ms, tally) = time_units(seconds, &references, unit);
    let mut report = Report::new(tally);
    record_timing(&mut report, &ms, setup_s)?;
    for reference in &references {
        check_outcome(&mut report, reference);
    }
    let panel_mean =
        |f: fn(&TrainOutcome) -> f64| mean(&references.iter().map(f).collect::<Vec<_>>());
    // A fault-unaware run's final accuracy collapses or not depending on
    // where its faults land, so across seeds it spreads far wider than
    // any bound; it is left out rather than reported as a regression gate.
    if config.strategy != FaultStrategy::FaultUnaware {
        report.set("test_accuracy", panel_mean(|r| r.final_test_accuracy));
    }
    report.set("mapping_cost", panel_mean(|r| r.final_mapping_cost as f64));
    report.set("sim_time_norm", panel_mean(|r| r.normalized_time));
    Ok(report)
}

fn panel_datasets(kind: DatasetKind, seeds: &[u64]) -> Vec<Dataset> {
    seeds.iter().map(|&s| Dataset::generate(kind, s)).collect()
}

fn link_end_to_end(seed: u64, seconds: f64) -> Result<Report, String> {
    let (kind, config) = Workload::OgblLinkFare.single_run();
    let seeds = panel_seeds(seed, Workload::OgblLinkFare.panel_size());
    let (datasets, setup_s) = setup(|| panel_datasets(kind, &seeds));
    let unit = |i: usize| run_link_prediction(&config, seeds[i], &datasets[i]);
    let references = warm_up_panel(seeds.len(), unit)?;
    let (ms, tally) = time_units(seconds, &references, unit);
    let mut report = Report::new(tally);
    record_timing(&mut report, &ms, setup_s)?;
    for reference in &references {
        report.check(
            reference.history.len() == EPOCHS,
            "one history entry per epoch",
        );
        report.check(
            reference
                .history
                .iter()
                .all(|e| (0.0..=1.0).contains(&e.auc)),
            "AUC lies in [0, 1]",
        );
    }
    let aucs: Vec<f64> = references.iter().map(|r| r.final_auc).collect();
    report.set("test_auc", mean(&aucs));
    Ok(report)
}

/// Fails when the unit's outcome on one worker thread differs from
/// `reference`, taken at the default thread count.
fn check_thread_invariance<T: UnitOutcome>(
    reference: &T,
    unit: impl FnOnce() -> T,
) -> Result<(), String> {
    match with_threads(1, unit).first_difference(reference) {
        None => Ok(()),
        Some(diff) => Err(format!(
            "the outcome on 1 thread differs from the default thread count: {diff}"
        )),
    }
}

fn classification_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let (kind, config) = workload.single_run();
    let (dataset, _) = setup(|| Dataset::generate(kind, seed));
    let unit = || Trainer::new(config, seed).run(&dataset);
    let reference = warm_up(unit)?;

    // Equivalence gate. The library's counters are on for this one run,
    // to read the pair and cache counts; every timed run keeps them off.
    fare_obs::set_mode(Mode::Json);
    fare_obs::reset();
    let gate = replica::run(&config, seed, &dataset, &Tracer::new());
    let pairs_solved = counters::CORE_MAPPING_PAIRS_SOLVED.get();
    let hits = counters::CORE_REMAP_CACHE_HITS.get();
    let misses = counters::CORE_REMAP_CACHE_MISSES.get();
    fare_obs::set_mode(Mode::Off);
    fare_obs::reset();
    if let Some(diff) = gate.first_difference(&reference) {
        return Err(format!("the replica diverges from Trainer::run at {diff}"));
    }
    check_thread_invariance(&reference, unit)?;

    let mut tally = Tally::default();
    let (mut default_ms, mut one_thread_ms, mut replica_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut self_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    let mut coverage = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        timed_unit(&mut tally, &mut default_ms, &reference, unit);
        let tracer = Tracer::new();
        let traced = || replica::run(&config, seed, &dataset, &tracer);
        if let Some(wall_ms) = timed_unit(&mut tally, &mut replica_ms, &reference, traced) {
            for layer in replica::LAYERS {
                let totals = tracer.layer(layer);
                self_ms
                    .entry(layer)
                    .or_default()
                    .push(totals.self_ns as f64 / 1e6);
                calls.insert(layer, totals.calls);
            }
            coverage.push(tracer.self_ns_total() as f64 / 1e6 / wall_ms);
        }
        timed_unit(&mut tally, &mut one_thread_ms, &reference, || {
            with_threads(1, unit)
        });
        if Instant::now() >= deadline {
            break;
        }
    }

    let default_p50 = p50(&default_ms)?;
    let coverage = p50(&coverage)?;
    let mut report = Report::new(tally);
    for (layer, ms) in &self_ms {
        report.set(format!("{layer}.ms"), median(ms));
    }
    for (layer, &n) in &calls {
        report.set(format!("{layer}.calls"), n as f64);
    }
    report.set("core.mapping.pairs_solved", pairs_solved as f64);
    let probes = hits + misses;
    report.set(
        "core.remap_cache.hit_ratio",
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        },
    );
    report.set("trace.coverage", coverage);
    report.set("trace.overhead", p50(&replica_ms)? / default_p50 - 1.0);
    report.set("rt.par.speedup", p50(&one_thread_ms)? / default_p50);
    report.check(coverage >= 0.95, "trace.coverage is at least 0.95");
    report.notes.push(format!(
        "the replica reproduces Trainer::run bit for bit; layer times are medians over {} traced units",
        replica_ms.len()
    ));
    report.notes.push(format!(
        "{} worker threads by default; outcomes on 1 thread are identical",
        fare_rt::par::current_threads()
    ));
    Ok(report)
}

fn link_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let (kind, config) = Workload::OgblLinkFare.single_run();
    let (dataset, _) = setup(|| Dataset::generate(kind, seed));
    let unit = || run_link_prediction(&config, seed, &dataset);
    let reference = warm_up(unit)?;
    check_thread_invariance(&reference, unit)?;
    let mut tally = Tally::default();
    let (mut default_ms, mut one_thread_ms) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        timed_unit(&mut tally, &mut default_ms, &reference, unit);
        timed_unit(&mut tally, &mut one_thread_ms, &reference, || {
            with_threads(1, unit)
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut report = Report::new(tally);
    report.set("rt.par.speedup", p50(&one_thread_ms)? / p50(&default_ms)?);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    // Untimed and timed units alike run with the library's telemetry off.
    fare_obs::set_mode(Mode::Off);
    // End-to-end units run on one worker thread. On a shared two-core
    // host the second worker's hand-offs made the same unit take one to
    // two and a half times as long, following the host's load rather than
    // the program. The traced run measures the default thread count.
    if !args.trace {
        fare_rt::par::set_threads(1);
    }
    let (seed, seconds) = (args.seed, args.seconds);
    let result = match (args.workload, args.trace) {
        (Workload::OgblLinkFare, false) => link_end_to_end(seed, seconds),
        (Workload::OgblLinkFare, true) => link_traced(seed, seconds),
        (workload, false) => classification_end_to_end(workload, seed, seconds),
        (workload, true) => classification_traced(workload, seed, seconds),
    };
    let (metrics, missing) = if args.trace {
        (&PER_LAYER[..], 0.0)
    } else {
        (&END_TO_END[..], NOT_APPLICABLE)
    };
    match result {
        Ok(report) if report.print(metrics, missing) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
