//! Trace-golden regression net (ISSUE 5 tentpole).
//!
//! Runs the shared golden workload ([`fare::golden`]) under
//! `FARE_OBS=trace` with the fixed telemetry clock and pins the
//! resulting hierarchical span trace:
//!
//! - the JSONL stream is **byte-identical** across `FARE_RT_THREADS`
//!   and across repeated runs (spans are emitted on logical paths only;
//!   fixed-clock timestamps come from a global event sequence),
//! - its FNV-1a digest, event count and per-span begin counts match the
//!   committed `tests/golden/golden_trace_digest.json` (the full stream
//!   is a few hundred KB, so the digest is what gets committed),
//! - the stream is structurally sound (balanced nesting, monotone
//!   timestamps) and the Chrome export parses as JSON,
//! - the trace-mode manifest equals the json-mode manifest, so the
//!   `fare-report run-golden` → `diff` verify.sh gate compares apples
//!   to apples,
//! - the manifest's timers are the span table: one timer per traced
//!   span name, counting exactly its begin events.
//!
//! Regenerate the digest after an intentional behaviour change with:
//!
//! ```text
//! FARE_GOLDEN_UPDATE=1 cargo test --test trace_golden
//! ```

use std::sync::Mutex;

/// Committed digest snapshot.
const DIGEST_SNAPSHOT: &str = include_str!("golden/golden_trace_digest.json");

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One span name with its begin-event count.
#[derive(Debug, Clone, PartialEq)]
struct SpanCount {
    name: String,
    begins: u64,
}
fare_rt::json_struct!(SpanCount { name, begins });

/// The committed fingerprint of the golden JSONL trace.
#[derive(Debug, Clone, PartialEq)]
struct TraceDigest {
    events: u64,
    dropped: u64,
    fnv64: String,
    span_counts: Vec<SpanCount>,
}
fare_rt::json_struct!(TraceDigest {
    events,
    dropped,
    fnv64,
    span_counts
});

fn digest_of(log: &fare::obs::trace::TraceLog) -> TraceDigest {
    let jsonl = log.to_jsonl();
    TraceDigest {
        events: log.events.len() as u64,
        dropped: log.dropped,
        fnv64: format!("{:016x}", fare::report::fnv1a64(jsonl.as_bytes())),
        span_counts: log
            .span_counts()
            .into_iter()
            .map(|(name, begins)| SpanCount { name, begins })
            .collect(),
    }
}

/// The golden trace digest matches the committed snapshot, and the
/// stream itself is structurally sound and export-clean.
#[test]
fn golden_span_trace_matches_committed_digest() {
    let _g = lock();
    let (_, log) = fare::golden::capture_trace();

    log.validate_nesting()
        .expect("balanced, monotone span stream");
    assert_eq!(log.dropped, 0, "golden trace must fit the ring buffer");

    // Round trip and Chrome export stay healthy on the real stream.
    let jsonl = log.to_jsonl();
    let back = fare::obs::trace::TraceLog::from_jsonl(&jsonl).expect("JSONL parses back");
    assert_eq!(back, log, "JSONL round trip is lossless");
    fare_rt::json::parse(&log.to_chrome()).expect("chrome export is valid JSON");

    let digest = digest_of(&log);
    let text = fare_rt::json::to_string_pretty(&digest).unwrap() + "\n";
    if std::env::var("FARE_GOLDEN_UPDATE").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/golden_trace_digest.json"
        );
        std::fs::write(path, &text).expect("write digest snapshot");
        eprintln!("trace_golden: digest regenerated at {path}");
        return;
    }
    let committed: TraceDigest =
        fare_rt::json::from_str(DIGEST_SNAPSHOT).expect("committed digest parses");
    assert_eq!(
        digest, committed,
        "golden span trace diverged from tests/golden/golden_trace_digest.json; \
         if the behaviour change is intentional, regenerate with \
         FARE_GOLDEN_UPDATE=1 cargo test --test trace_golden"
    );
}

/// The JSONL trace is byte-identical across worker-pool sizes and
/// across repeated runs — the ISSUE 5 acceptance criterion.
#[test]
fn golden_span_trace_is_byte_identical_across_thread_counts() {
    let _g = lock();
    fare_rt::par::set_threads(1);
    let one = fare::golden::capture_trace().1.to_jsonl();
    fare_rt::par::set_threads(4);
    let four = fare::golden::capture_trace().1.to_jsonl();
    let again = fare::golden::capture_trace().1.to_jsonl();
    fare_rt::par::set_threads(0);
    assert_eq!(one, four, "span trace differs across thread counts");
    assert_eq!(four, again, "span trace differs run-to-run");
}

/// Trace mode is a strict superset of json mode: the manifests agree,
/// so `fare-report diff` between a json-mode golden snapshot and a
/// trace-mode fresh run gates on real regressions only.
#[test]
fn trace_mode_manifest_equals_json_mode_manifest() {
    let _g = lock();
    let json_mode = fare::golden::capture_manifest();
    let (trace_mode, _) = fare::golden::capture_trace();
    assert_eq!(
        json_mode.to_json_pretty(),
        trace_mode.to_json_pretty(),
        "recording spans changed the counter/timer/epoch/heatmap record"
    );
}

/// Spans are the only timer: every manifest timer of the golden run
/// counts exactly the begin events of its name in the committed digest,
/// and every traced span name has a timer.
#[test]
fn manifest_timers_count_the_digest_spans() {
    let _g = lock();
    let manifest = fare::golden::capture_manifest();
    let committed: TraceDigest =
        fare_rt::json::from_str(DIGEST_SNAPSHOT).expect("committed digest parses");
    let timers: Vec<(&str, u64)> = manifest
        .timers
        .iter()
        .map(|t| (t.name.as_str(), t.count))
        .collect();
    let spans: Vec<(&str, u64)> = committed
        .span_counts
        .iter()
        .map(|s| (s.name.as_str(), s.begins))
        .collect();
    assert_eq!(
        timers, spans,
        "manifest timers disagree with the traced spans"
    );
    for t in &manifest.timers {
        assert_eq!(
            t.total_ns,
            t.count * fare::golden::CLOCK_STEP_NS,
            "{} is not timed by the fixed clock",
            t.name
        );
    }
}
