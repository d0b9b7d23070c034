//! Golden-trace regression net (ISSUE 4 tentpole).
//!
//! One small seeded GCN training run — FARe strategy, pre- *and*
//! post-deployment faults, so the fast paths (packed fault kernels,
//! `RemapCache`, incremental refresh) are all exercised — captured as a
//! [`fare::obs::RunManifest`]: the per-epoch loss/accuracy curve, every
//! non-zero telemetry counter, the count and fixed-clock total of every
//! span name and the per-crossbar heatmap rollup, serialised to lossless JSON and compared **byte for byte** against a
//! committed snapshot.
//!
//! "Did the fast path change behaviour?" is now a single diffable test:
//! any change to fault injection order, mapping decisions, cache hit
//! patterns, kernel call counts or the training trajectory shows up as
//! a snapshot diff.
//!
//! The workload definition lives in [`fare::golden`], shared with
//! `tests/trace_golden.rs` and the `fare-report run-golden` CLI gate.
//! The manifest uses the fixed telemetry clock (`ClockMode::Fixed`), so
//! it is bit-identical at any `FARE_RT_THREADS` — `scripts/verify.sh`
//! re-runs this test under 1 and 4 worker threads.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! FARE_GOLDEN_UPDATE=1 cargo test --test golden_trace
//! ```
//!
//! then commit the diff of `tests/golden/golden_trace.json` along with
//! an explanation of why the trace moved (see DESIGN.md §7).

use std::sync::Mutex;

use fare::core::Trainer;
use fare::obs::{self, ClockMode, Mode};

/// Committed snapshot (compiled in, so the test is cwd-independent).
const SNAPSHOT: &str = include_str!("golden/golden_trace.json");

/// Telemetry state is process-global; serialise the tests that touch it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The golden run's manifest matches the committed snapshot exactly.
#[test]
fn golden_trace_matches_committed_snapshot() {
    let _g = lock();
    let text = fare::golden::capture_manifest().to_json_pretty() + "\n";
    if std::env::var("FARE_GOLDEN_UPDATE").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/golden_trace.json"
        );
        std::fs::write(path, &text).expect("write golden snapshot");
        eprintln!("golden_trace: snapshot regenerated at {path}");
        return;
    }
    assert_eq!(
        text, SNAPSHOT,
        "golden trace diverged from tests/golden/golden_trace.json; if the \
         behaviour change is intentional, regenerate with \
         FARE_GOLDEN_UPDATE=1 cargo test --test golden_trace"
    );
}

/// The manifest — counters, timers, epoch curve, heatmaps — is
/// bit-identical on a serial and a 4-worker pool: counters count
/// logical events, not per-chunk work, and the fixed clock keeps
/// timers exact.
#[test]
fn golden_trace_bit_identical_across_thread_counts() {
    let _g = lock();
    fare_rt::par::set_threads(1);
    let one = fare::golden::capture_manifest().to_json_pretty();
    fare_rt::par::set_threads(4);
    let four = fare::golden::capture_manifest().to_json_pretty();
    fare_rt::par::set_threads(0);
    assert_eq!(one, four, "telemetry manifest differs across thread counts");
}

/// `FARE_OBS=off` must be a pure observer: disabling telemetry changes
/// no bit of the training output, and records nothing.
#[test]
fn disabled_telemetry_runs_are_identical_and_silent() {
    let _g = lock();
    let dataset = fare::golden::dataset();

    obs::set_mode(Mode::Off);
    obs::reset();
    let off = Trainer::new(fare::golden::config(), fare::golden::SEED).run(&dataset);
    let silent = obs::RunManifest::capture("off", fare::golden::SEED, &fare::golden::config());
    assert!(
        silent.counters.is_empty(),
        "disabled telemetry recorded counters"
    );
    assert!(
        silent.timers.is_empty(),
        "disabled telemetry recorded timers"
    );
    assert!(
        silent.epochs.is_empty(),
        "disabled telemetry recorded epochs"
    );
    assert!(
        silent.heatmaps.is_empty(),
        "disabled telemetry recorded heatmaps"
    );
    assert_eq!(
        obs::trace::buffered(),
        0,
        "disabled telemetry recorded spans"
    );

    obs::set_mode(Mode::Json);
    obs::set_clock(ClockMode::Fixed(1_000));
    obs::reset();
    let on = Trainer::new(fare::golden::config(), fare::golden::SEED).run(&dataset);
    obs::set_clock(ClockMode::Wall);
    obs::set_mode(Mode::Off);
    obs::reset();

    assert_eq!(off, on, "telemetry fed back into the training computation");
}
