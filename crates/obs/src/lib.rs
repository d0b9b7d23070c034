//! # fare-obs — telemetry core for the FARe workspace
//!
//! A zero-external-dependency, thread-safe observability layer:
//!
//! - **named monotonic counters** ([`Counter`]) — faults injected per
//!   polarity, crossbars corrupted/remapped, MVM and matmul
//!   invocations, `RemapCache` hits/misses, … The full taxonomy lives
//!   in [`counters`] and every counter is registered there, so a run
//!   manifest can enumerate them all.
//! - **span timers** ([`SpanTimer`]) with an injectable clock
//!   ([`ClockMode`]): under [`ClockMode::Fixed`] every span records a
//!   constant duration, so timer records stay bit-identical across
//!   `FARE_RT_THREADS` settings and golden traces can include them.
//! - a **per-epoch metrics sink** ([`record_epoch`]) the trainer feeds,
//! - **hierarchical span tracing** ([`trace`]) behind `FARE_OBS=trace`:
//!   nested begin/end events (train run → epoch → batch → {aggregate,
//!   matmul, mvm, map_adjacency, remap_refresh}) in a bounded ring
//!   buffer, exportable as a JSONL stream or a Chrome Trace Event
//!   Format JSON (`chrome://tracing` / Perfetto),
//! - **spatial heatmaps** ([`heatmap`]): per-crossbar accumulators
//!   (SA0/SA1 fault cells, mismatch cost, MVM traffic, modeled energy)
//!   rolled up into [`HeatmapGrid`]s on the manifest,
//! - and a [`RunManifest`] — seed, config, counter totals, epoch curve,
//!   heatmaps and optional bench numbers — serialised via `fare-rt`
//!   JSON.
//!
//! ## Overhead contract
//!
//! The whole layer sits behind a `FARE_OBS=trace|json|off` switch
//! (default **off**). Every recording call starts with a single relaxed
//! atomic load; when disabled nothing else happens, so instrumented hot
//! loops pay one predictable branch. `trace` is a strict superset of
//! `json` (counters/timers/epochs still record). Telemetry never feeds
//! back into any computation: enabling or disabling it must not change
//! a single bit of any training output (pinned by
//! `tests/determinism.rs`).
//!
//! ## Determinism contract
//!
//! Counter increments and span emissions are placed on *logical* event
//! paths (one `add` per injected fault, per MVM call, per cache
//! probe…), never inside per-chunk worker closures, so totals are
//! identical at any `FARE_RT_THREADS`. Combined with the fixed clock
//! (which also drives trace timestamps, see [`trace`]) this makes the
//! whole [`RunManifest`] — and the full span trace — bit-identical
//! across thread counts, the property `tests/golden_trace.rs` and
//! `tests/trace_golden.rs` snapshot.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fare_rt::json::ToJson;

pub mod heatmap;
pub mod trace;

pub use heatmap::HeatmapGrid;

// ---------------------------------------------------------------------------
// Mode switch
// ---------------------------------------------------------------------------

/// Telemetry mode: `Off` makes every recording call a no-op after one
/// relaxed atomic load; `Json` records counters/timers/epochs/heatmaps
/// so a [`RunManifest`] can be captured; `Trace` additionally records
/// nested spans into the [`trace`] ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Off,
    Json,
    Trace,
}

/// 0 = unresolved (read `FARE_OBS` on first use), 1 = off, 2 = json,
/// 3 = trace.
static MODE: AtomicU8 = AtomicU8::new(0);

fn resolve_mode() -> u8 {
    let resolved = match std::env::var("FARE_OBS") {
        Ok(v) if v == "trace" => 3,
        Ok(v) if v == "json" => 2,
        _ => 1,
    };
    // Racing first-uses resolve to the same value; any interleaved
    // `set_mode` wins over the env default.
    let _ = MODE.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    MODE.load(Ordering::Relaxed)
}

/// Is telemetry recording (json or trace)? One relaxed load on the
/// fast path.
#[inline]
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => resolve_mode() >= 2,
        m => m >= 2,
    }
}

/// Is span tracing recording? One relaxed load on the fast path.
#[inline]
pub fn trace_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => resolve_mode() == 3,
        m => m == 3,
    }
}

/// Programmatically override the `FARE_OBS` environment switch
/// (tests and examples use this; the env var only sets the default).
pub fn set_mode(mode: Mode) {
    let m = match mode {
        Mode::Off => 1,
        Mode::Json => 2,
        Mode::Trace => 3,
    };
    MODE.store(m, Ordering::Relaxed);
}

/// The currently effective mode.
pub fn mode() -> Mode {
    if trace_enabled() {
        Mode::Trace
    } else if enabled() {
        Mode::Json
    } else {
        Mode::Off
    }
}

// ---------------------------------------------------------------------------
// Clock injection
// ---------------------------------------------------------------------------

/// The clock behind every [`SpanTimer`].
///
/// * `Wall` — real monotonic time (`std::time::Instant`); durations are
///   informative but not reproducible.
/// * `Fixed(step_ns)` — every completed span records exactly `step_ns`
///   nanoseconds. Totals become `count × step_ns`: fully deterministic,
///   so golden traces can pin them. This is the **deterministic-clock
///   rule**: any test that compares manifests bitwise must install a
///   fixed clock first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    Wall,
    Fixed(u64),
}

/// 0 = wall, 1 = fixed (step in `CLOCK_STEP`).
static CLOCK_KIND: AtomicU8 = AtomicU8::new(0);
static CLOCK_STEP: AtomicU64 = AtomicU64::new(0);

/// Install the clock used by all span timers.
pub fn set_clock(clock: ClockMode) {
    match clock {
        ClockMode::Wall => CLOCK_KIND.store(0, Ordering::Relaxed),
        ClockMode::Fixed(step) => {
            CLOCK_STEP.store(step, Ordering::Relaxed);
            CLOCK_KIND.store(1, Ordering::Relaxed);
        }
    }
}

/// The clock currently installed.
pub fn clock() -> ClockMode {
    if CLOCK_KIND.load(Ordering::Relaxed) == 0 {
        ClockMode::Wall
    } else {
        ClockMode::Fixed(CLOCK_STEP.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named monotonic counter. Declare as a `static` in [`counters`] and
/// register it in [`counters::all`] so manifests can see it.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` events. No-op (after one relaxed load) when telemetry is
    /// off. Call once per *logical* event, never inside a per-chunk
    /// worker closure — that is what keeps totals thread-invariant.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The counter taxonomy. Names are `layer.subsystem.event`; a counter
/// only appears in a manifest once its total is non-zero, so adding a
/// new counter here never breaks an existing golden trace (see
/// DESIGN.md §7).
pub mod counters {
    use super::Counter;

    // -- fare-reram -------------------------------------------------------
    /// SA0 (stuck-at-zero) fault cells injected into crossbars.
    pub static RERAM_FAULTS_INJECTED_SA0: Counter = Counter::new("reram.faults.injected_sa0");
    /// SA1 (stuck-at-one) fault cells injected into crossbars.
    pub static RERAM_FAULTS_INJECTED_SA1: Counter = Counter::new("reram.faults.injected_sa1");
    /// Crossbars whose fault map was cleared.
    pub static RERAM_FAULTS_CLEARED: Counter = Counter::new("reram.faults.cleared");
    /// Draws from the Poisson fault-count sampler.
    pub static RERAM_POISSON_SAMPLES: Counter = Counter::new("reram.faults.poisson_samples");
    /// Stored matrices read back through a crossbar fault map: one per
    /// `Crossbar::read_binary` call, and one per placed block each time
    /// a mapped adjacency is corrupted.
    pub static RERAM_CROSSBARS_CORRUPTED: Counter = Counter::new("reram.crossbars.corrupted");
    /// Analog MVM invocations (`crossbar_mvm`).
    pub static RERAM_MVM_CALLS: Counter = Counter::new("reram.mvm.calls");
    /// Pipeline cycles attributed to those MVMs.
    pub static RERAM_MVM_CYCLES: Counter = Counter::new("reram.mvm.cycles");
    /// Whole-matrix faulty matmuls (`crossbar_matmul`).
    pub static RERAM_MATMUL_CALLS: Counter = Counter::new("reram.matmul.calls");
    /// Input rows pushed through `crossbar_matmul`.
    pub static RERAM_MATMUL_ROWS: Counter = Counter::new("reram.matmul.rows");
    /// Discrete-event pipeline simulations (`pipeline::simulate`).
    pub static RERAM_PIPELINE_SIMS: Counter = Counter::new("reram.pipeline.sims");
    /// Batches scheduled across all pipeline simulations.
    pub static RERAM_PIPELINE_BATCHES: Counter = Counter::new("reram.pipeline.batches");
    /// Closed-form timing-model evaluations (any strategy).
    pub static RERAM_TIMING_EVALS: Counter = Counter::new("reram.timing.evals");
    /// Energy-model estimates (`energy::estimate`).
    pub static RERAM_ENERGY_ESTIMATES: Counter = Counter::new("reram.energy.estimates");

    // -- fare-gnn ---------------------------------------------------------
    /// Full-model forward passes.
    pub static GNN_FORWARD_CALLS: Counter = Counter::new("gnn.forward.calls");
    /// Full-model backward passes.
    pub static GNN_BACKWARD_CALLS: Counter = Counter::new("gnn.backward.calls");
    /// Masked-accuracy evaluations.
    pub static GNN_ACCURACY_EVALS: Counter = Counter::new("gnn.metrics.accuracy_evals");

    // -- fare-core --------------------------------------------------------
    /// `Trainer::run` invocations.
    pub static CORE_TRAINER_RUNS: Counter = Counter::new("core.trainer.runs");
    /// Training epochs completed.
    pub static CORE_TRAINER_EPOCHS: Counter = Counter::new("core.trainer.epochs");
    /// Mini-batches trained.
    pub static CORE_TRAINER_BATCHES: Counter = Counter::new("core.trainer.batches");
    /// Post-deployment fault-injection events (per-epoch BIST rounds
    /// that actually added faults).
    pub static CORE_TRAINER_POST_INJECTIONS: Counter =
        Counter::new("core.trainer.post_deployment_injections");
    /// Full Algorithm-1 adjacency mappings built.
    pub static CORE_MAPPINGS_BUILT: Counter = Counter::new("core.mapping.built");
    /// Distinct (block-class, crossbar-class) G1 pairs actually solved.
    pub static CORE_MAPPING_PAIRS_SOLVED: Counter = Counter::new("core.mapping.pairs_solved");
    /// `RemapCache` probes that reused a cached row permutation.
    pub static CORE_REMAP_CACHE_HITS: Counter = Counter::new("core.remap_cache.hits");
    /// `RemapCache` probes that had to re-solve (crossbar mutated or
    /// placement moved) — i.e. crossbars remapped.
    pub static CORE_REMAP_CACHE_MISSES: Counter = Counter::new("core.remap_cache.misses");
    /// Strategy×density cells dispatched by the experiment drivers.
    pub static CORE_EXPERIMENT_CELLS: Counter = Counter::new("core.experiments.cells");
    /// (dataset, trial seed) pairs the experiment drivers partitioned
    /// and batched, once each, for all the runs of a sweep.
    pub static CORE_EXPERIMENT_PREPARED: Counter = Counter::new("core.experiments.prepared");

    /// Every counter, in manifest order. **Register new counters here**
    /// or they will silently stay out of every manifest.
    pub fn all() -> &'static [&'static Counter] {
        static ALL: [&Counter; 26] = [
            &RERAM_FAULTS_INJECTED_SA0,
            &RERAM_FAULTS_INJECTED_SA1,
            &RERAM_FAULTS_CLEARED,
            &RERAM_POISSON_SAMPLES,
            &RERAM_CROSSBARS_CORRUPTED,
            &RERAM_MVM_CALLS,
            &RERAM_MVM_CYCLES,
            &RERAM_MATMUL_CALLS,
            &RERAM_MATMUL_ROWS,
            &RERAM_PIPELINE_SIMS,
            &RERAM_PIPELINE_BATCHES,
            &RERAM_TIMING_EVALS,
            &RERAM_ENERGY_ESTIMATES,
            &GNN_FORWARD_CALLS,
            &GNN_BACKWARD_CALLS,
            &GNN_ACCURACY_EVALS,
            &CORE_TRAINER_RUNS,
            &CORE_TRAINER_EPOCHS,
            &CORE_TRAINER_BATCHES,
            &CORE_TRAINER_POST_INJECTIONS,
            &CORE_MAPPINGS_BUILT,
            &CORE_MAPPING_PAIRS_SOLVED,
            &CORE_REMAP_CACHE_HITS,
            &CORE_REMAP_CACHE_MISSES,
            &CORE_EXPERIMENT_CELLS,
            &CORE_EXPERIMENT_PREPARED,
        ];
        &ALL
    }
}

// ---------------------------------------------------------------------------
// Span timers
// ---------------------------------------------------------------------------

/// A named span timer: counts completed spans and accumulates their
/// duration under the installed [`ClockMode`]. Declare as a `static`
/// in [`timers`] and register it in [`timers::all`].
pub struct SpanTimer {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl SpanTimer {
    pub const fn new(name: &'static str) -> Self {
        SpanTimer {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Time `f` as one span. When telemetry is off this is just `f()`.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !enabled() {
            return f();
        }
        match clock() {
            ClockMode::Fixed(step) => {
                let out = f();
                self.count.fetch_add(1, Ordering::Relaxed);
                self.total_ns.fetch_add(step, Ordering::Relaxed);
                out
            }
            ClockMode::Wall => {
                let start = Instant::now();
                let out = f();
                let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.count.fetch_add(1, Ordering::Relaxed);
                self.total_ns.fetch_add(elapsed, Ordering::Relaxed);
                out
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// The span-timer registry; same registration rule as [`counters`].
pub mod timers {
    use super::SpanTimer;

    /// One whole `Trainer::run` (partition → map → epochs → evaluate).
    pub static CORE_TRAINER_RUN: SpanTimer = SpanTimer::new("core.trainer.run");
    /// One full Algorithm-1 adjacency mapping.
    pub static CORE_MAPPING_MAP: SpanTimer = SpanTimer::new("core.mapping.map_adjacency");
    /// One incremental post-BIST row-permutation refresh.
    pub static CORE_MAPPING_REFRESH: SpanTimer = SpanTimer::new("core.mapping.refresh");

    /// Every timer, in manifest order.
    pub fn all() -> &'static [&'static SpanTimer] {
        static ALL: [&SpanTimer; 3] = [&CORE_TRAINER_RUN, &CORE_MAPPING_MAP, &CORE_MAPPING_REFRESH];
        &ALL
    }
}

// ---------------------------------------------------------------------------
// Per-epoch metrics sink
// ---------------------------------------------------------------------------

/// One per-epoch training record, as pushed by the trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    pub epoch: usize,
    pub loss: f64,
    pub train_accuracy: f64,
    pub test_accuracy: f64,
}
fare_rt::json_struct!(EpochRecord {
    epoch,
    loss,
    train_accuracy,
    test_accuracy
});

static EPOCH_SINK: Mutex<Vec<EpochRecord>> = Mutex::new(Vec::new());

/// Record one epoch of training metrics. No-op when telemetry is off.
pub fn record_epoch(epoch: usize, loss: f64, train_accuracy: f64, test_accuracy: f64) {
    if !enabled() {
        return;
    }
    EPOCH_SINK.lock().unwrap().push(EpochRecord {
        epoch,
        loss,
        train_accuracy,
        test_accuracy,
    });
}

/// Epochs recorded since the last [`reset`] (sink left untouched).
pub fn epochs_recorded() -> Vec<EpochRecord> {
    EPOCH_SINK.lock().unwrap().clone()
}

// ---------------------------------------------------------------------------
// Reset
// ---------------------------------------------------------------------------

/// Zero every counter and timer, clear the epoch and heatmap sinks and
/// the trace buffer (rewinding the trace timeline to t=0). Call at the
/// start of a run whose manifest should describe that run alone.
pub fn reset() {
    for c in counters::all() {
        c.reset();
    }
    for t in timers::all() {
        t.reset();
    }
    EPOCH_SINK.lock().unwrap().clear();
    heatmap::reset();
    trace::reset();
}

// ---------------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------------

/// One counter total in a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEntry {
    pub name: String,
    pub value: u64,
}
fare_rt::json_struct!(CounterEntry { name, value });

/// One span-timer total in a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct TimerEntry {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}
fare_rt::json_struct!(TimerEntry {
    name,
    count,
    total_ns
});

/// One named bench number (seconds, ratios, …) attached to a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub name: String,
    pub value: f64,
}
fare_rt::json_struct!(BenchEntry { name, value });

/// The primary correctness artifact of an instrumented run: seed,
/// config (compact JSON string), every non-zero counter, every
/// non-empty timer, the per-epoch metric curve, and optional bench
/// numbers. Serialised losslessly via `fare-rt` JSON, so two manifests
/// are bit-identical iff the runs behaved identically.
///
/// Thread count is deliberately **not** part of the manifest: the
/// determinism gate compares manifests across `FARE_RT_THREADS`
/// settings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    pub run: String,
    pub seed: u64,
    pub config: String,
    pub counters: Vec<CounterEntry>,
    pub timers: Vec<TimerEntry>,
    pub epochs: Vec<EpochRecord>,
    pub heatmaps: Vec<HeatmapGrid>,
    pub bench: Vec<BenchEntry>,
}
fare_rt::json_struct!(RunManifest {
    run,
    seed,
    config,
    counters,
    timers,
    epochs,
    heatmaps,
    bench
});

impl RunManifest {
    /// Snapshot the current telemetry state into a manifest.
    ///
    /// Only non-zero counters and non-empty timers are included — the
    /// rule that lets new counters be added without perturbing golden
    /// traces of runs that never hit them.
    pub fn capture(run: &str, seed: u64, config: &impl ToJson) -> RunManifest {
        let config = fare_rt::json::to_string(config).unwrap_or_else(|_| "null".into());
        RunManifest {
            run: run.to_string(),
            seed,
            config,
            counters: counters::all()
                .iter()
                .filter(|c| c.get() > 0)
                .map(|c| CounterEntry {
                    name: c.name().to_string(),
                    value: c.get(),
                })
                .collect(),
            timers: timers::all()
                .iter()
                .filter(|t| t.count() > 0)
                .map(|t| TimerEntry {
                    name: t.name().to_string(),
                    count: t.count(),
                    total_ns: t.total_ns(),
                })
                .collect(),
            epochs: epochs_recorded(),
            heatmaps: heatmap::recorded(),
            bench: Vec::new(),
        }
    }

    /// Attach a named bench number (chainable).
    pub fn with_bench(mut self, name: &str, value: f64) -> Self {
        self.bench.push(BenchEntry {
            name: name.to_string(),
            value,
        });
        self
    }

    /// Pretty JSON — the golden-trace snapshot format.
    pub fn to_json_pretty(&self) -> String {
        fare_rt::json::to_string_pretty(self).expect("RunManifest serialises infallibly")
    }

    /// Human-readable summary block for examples and CLI tools.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run manifest: {} (seed {})\n",
            self.run, self.seed
        ));
        if !self.epochs.is_empty() {
            let last = &self.epochs[self.epochs.len() - 1];
            out.push_str(&format!(
                "  epochs recorded: {} (final loss {:.4}, train acc {:.3}, test acc {:.3})\n",
                self.epochs.len(),
                last.loss,
                last.train_accuracy,
                last.test_accuracy
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for c in &self.counters {
                out.push_str(&format!("    {:<44} {:>14}\n", c.name, c.value));
            }
        }
        if !self.timers.is_empty() {
            out.push_str("  timers:\n");
            for t in &self.timers {
                out.push_str(&format!(
                    "    {:<44} {:>6} spans {:>12.3} ms\n",
                    t.name,
                    t.count,
                    t.total_ns as f64 / 1e6
                ));
            }
        }
        if !self.heatmaps.is_empty() {
            out.push_str("  heatmaps:\n");
            for h in &self.heatmaps {
                out.push_str(&format!(
                    "    {:<44} {:>4} cells  sa0 {:>8}  sa1 {:>8}  mismatch {:>10}\n",
                    h.name,
                    h.cells(),
                    h.sa0.iter().sum::<u64>(),
                    h.sa1.iter().sum::<u64>(),
                    h.mismatch.iter().sum::<u64>()
                ));
            }
        }
        if !self.bench.is_empty() {
            out.push_str("  bench:\n");
            for b in &self.bench {
                out.push_str(&format!("    {:<44} {:>14.6}\n", b.name, b.value));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// Serialises every unit test in this crate that touches the
/// process-global state: mode, clock, counters, timers, sinks and the
/// trace ring. One lock for the whole crate, so a test in one module
/// cannot interleave with another module's `set_mode`/`reset`.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_inert_when_disabled() {
        let _g = test_lock();
        set_mode(Mode::Off);
        reset();
        counters::RERAM_MVM_CALLS.add(5);
        assert_eq!(counters::RERAM_MVM_CALLS.get(), 0);
        set_mode(Mode::Json);
        counters::RERAM_MVM_CALLS.add(5);
        assert_eq!(counters::RERAM_MVM_CALLS.get(), 5);
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn fixed_clock_makes_timers_deterministic() {
        let _g = test_lock();
        set_mode(Mode::Json);
        set_clock(ClockMode::Fixed(250));
        reset();
        for _ in 0..4 {
            timers::CORE_TRAINER_RUN.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(timers::CORE_TRAINER_RUN.count(), 4);
        assert_eq!(timers::CORE_TRAINER_RUN.total_ns(), 1000);
        set_clock(ClockMode::Wall);
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn manifest_includes_only_nonzero_counters_and_round_trips() {
        let _g = test_lock();
        set_mode(Mode::Json);
        reset();
        counters::CORE_REMAP_CACHE_HITS.add(3);
        record_epoch(0, 1.5, 0.4, 0.35);
        let m = RunManifest::capture("unit", 9, &7u32).with_bench("secs", 0.25);
        assert_eq!(m.counters.len(), 1);
        assert_eq!(m.counters[0].name, "core.remap_cache.hits");
        assert_eq!(m.epochs.len(), 1);
        let text = m.to_json_pretty();
        let back: RunManifest = fare_rt::json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json_pretty(), text);
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn counter_names_are_unique_and_registered() {
        let mut seen = std::collections::HashSet::new();
        for c in counters::all() {
            assert!(seen.insert(c.name()), "duplicate counter {}", c.name());
        }
        let mut seen = std::collections::HashSet::new();
        for t in timers::all() {
            assert!(seen.insert(t.name()), "duplicate timer {}", t.name());
        }
    }
}
