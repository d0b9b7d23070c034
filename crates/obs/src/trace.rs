//! Spans: the one way to time host code.
//!
//! Instrumented code opens nested spans ([`span`]/[`span_arg`]). Under
//! `FARE_OBS=json|trace` every span, when dropped, adds one to a
//! per-name count and its duration to a per-name total; those totals
//! are the `timers` of a [`RunManifest`](crate::RunManifest). Under
//! `FARE_OBS=trace` each span also pushes a begin event when created
//! and an end event when dropped, into a bounded global ring buffer
//! (oldest events are dropped first, with a drop count kept, so tracing
//! can never grow without bound). The recorded stream can be drained
//! with [`take`] and exported two ways:
//!
//! - [`TraceLog::to_jsonl`] — one JSON object per line, preceded by a
//!   meta header line; lossless round trip via [`TraceLog::from_jsonl`].
//! - [`TraceLog::to_chrome`] — Chrome Trace Event Format JSON, loadable
//!   in `chrome://tracing` or Perfetto (`ui.perfetto.dev`).
//!
//! ## Timestamps and determinism
//!
//! Timestamps and span durations come from the installed
//! [`ClockMode`]:
//!
//! * `Wall` — nanoseconds since the first event of the process, and
//!   real elapsed time per span; a real profile, not reproducible.
//! * `Fixed(step_ns)` — every span lasts exactly `step_ns`, so a name's
//!   total is its count times `step_ns`. A global event-sequence
//!   counter times `step_ns` stamps the events: every begin/end event
//!   gets the next tick, so the trace is strictly ordered and **fully
//!   deterministic**. Because spans are
//!   only emitted on logical event paths (never inside `fare-rt`
//!   worker closures — same rule as counters), the byte stream is
//!   identical at any `FARE_RT_THREADS`, which is what
//!   `tests/trace_golden.rs` pins.
//!
//! The span totals, the event sequence and the wall epoch all rewind on
//! [`reset`](crate::reset), so every instrumented run starts its
//! timeline at t = 0.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::{ClockMode, TimerEntry};

/// Begin/end phase of a [`TraceEvent`] (Chrome trace `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    B,
    /// Span end (`"E"`).
    E,
}
fare_rt::json_enum!(Phase { B, E });

/// One begin or end event in the span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name, `layer.operation` (e.g. `core.trainer.epoch`,
    /// `gnn.aggregate`, `core.mapping.refresh`).
    pub name: String,
    /// Phase: begin or end.
    pub ph: Phase,
    /// Timestamp in nanoseconds (see module docs for the clock rules).
    pub ts_ns: u64,
    /// Logical track for the Chrome export (pipeline stage, layer
    /// index, …). Spans recorded by [`span`] use track 0.
    pub track: u64,
    /// Optional argument (epoch number, batch index, block count, …).
    pub arg: Option<u64>,
}
fare_rt::json_struct!(TraceEvent {
    name,
    ph,
    ts_ns,
    track,
    arg
});

/// Ring-buffer state behind the global trace sink.
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    const fn new() -> Self {
        Ring {
            events: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Default ring capacity (events, not spans). The golden workload emits
/// ~2k events; a full Reddit run stays well under this.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

static RING: Mutex<Ring> = Mutex::new(Ring::new());
/// Next event-sequence tick for the fixed clock.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Wall epoch: the `Instant` of the first wall-clocked event since the
/// last reset (nanos offset stored lazily under the ring lock).
static WALL_EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Per-name span count and total duration in ns, in name order.
static TOTALS: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());

/// Locks [`TOTALS`]. A span drops while its thread may be unwinding, so
/// a poisoned lock is recovered: every update is a single insert or
/// addition, which leaves the table valid.
fn totals() -> MutexGuard<'static, BTreeMap<&'static str, (u64, u64)>> {
    TOTALS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clear the span totals and the buffer and rewind the timeline (called
/// by [`crate::reset`]).
pub(crate) fn reset() {
    totals().clear();
    let mut ring = RING.lock().unwrap();
    ring.events.clear();
    ring.dropped = 0;
    SEQ.store(0, Ordering::Relaxed);
    *WALL_EPOCH.lock().unwrap() = None;
}

/// Every span name closed since the last reset, with its count and
/// total duration, sorted by name.
pub(crate) fn timers() -> Vec<TimerEntry> {
    totals()
        .iter()
        .map(|(&name, &(count, total_ns))| TimerEntry {
            name: name.to_string(),
            count,
            total_ns,
        })
        .collect()
}

fn next_ts() -> u64 {
    match crate::clock() {
        ClockMode::Fixed(step) => SEQ.fetch_add(1, Ordering::Relaxed).wrapping_mul(step),
        ClockMode::Wall => {
            let mut epoch = WALL_EPOCH.lock().unwrap();
            let start = *epoch.get_or_insert_with(Instant::now);
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64
        }
    }
}

fn emit(name: &str, ph: Phase, track: u64, arg: Option<u64>) {
    let ev = TraceEvent {
        name: name.to_string(),
        ph,
        ts_ns: next_ts(),
        track,
        arg,
    };
    RING.lock().unwrap().push(ev);
}

/// RAII guard for one span. When dropped under `FARE_OBS=json|trace`
/// it adds its duration to its name's total; under `FARE_OBS=trace` it
/// also emits the begin event on creation and the end event on drop.
/// Inert when telemetry is off.
#[must_use = "a span ends when dropped; binding to _ ends it immediately"]
pub struct Span {
    name: &'static str,
    /// Wall-clock start; `None` when telemetry was off at creation.
    start: Option<Instant>,
    traced: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = match crate::clock() {
            ClockMode::Fixed(step) => step,
            ClockMode::Wall => start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        };
        if self.traced {
            emit(self.name, Phase::E, 0, None);
        }
        let mut totals = totals();
        let (count, total_ns) = totals.entry(self.name).or_insert((0, 0));
        *count += 1;
        *total_ns = total_ns.saturating_add(ns);
    }
}

/// Open a span. Call only on logical event paths (main thread /
/// once-per-event), never inside worker closures — the same placement
/// rule as counters, and what keeps traces thread-invariant.
#[inline]
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// [`span`] with an argument on the begin event (epoch index, batch
/// index, …), surfaced under `args` in the Chrome export.
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> Span {
    open(name, Some(arg))
}

#[inline]
fn open(name: &'static str, arg: Option<u64>) -> Span {
    if !crate::enabled() {
        return Span {
            name,
            start: None,
            traced: false,
        };
    }
    let traced = crate::trace_enabled();
    if traced {
        emit(name, Phase::B, 0, arg);
    }
    Span {
        name,
        start: Some(Instant::now()),
        traced,
    }
}

/// A drained trace: the event stream plus the clock step it was
/// recorded under (`step_ns` = 0 means wall clock) and how many events
/// the ring dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Fixed-clock step in ns; 0 when recorded under the wall clock.
    pub step_ns: u64,
    /// Events the ring buffer evicted (oldest-first) due to capacity.
    pub dropped: u64,
    /// The surviving events, in emission order.
    pub events: Vec<TraceEvent>,
}

/// Meta header line of the JSONL encoding.
#[derive(Debug, Clone, PartialEq)]
struct TraceMeta {
    step_ns: u64,
    dropped: u64,
    events: u64,
}
fare_rt::json_struct!(TraceMeta {
    step_ns,
    dropped,
    events
});

/// Drain the recorded events (and drop count) into a [`TraceLog`].
/// The timeline keeps running; use [`crate::reset`] to rewind it.
pub fn take() -> TraceLog {
    let mut ring = RING.lock().unwrap();
    let events: Vec<TraceEvent> = ring.events.drain(..).collect();
    let dropped = ring.dropped;
    ring.dropped = 0;
    drop(ring);
    let step_ns = match crate::clock() {
        ClockMode::Fixed(step) => step,
        ClockMode::Wall => 0,
    };
    TraceLog {
        step_ns,
        dropped,
        events,
    }
}

/// Events currently buffered (for tests; does not drain).
pub fn buffered() -> usize {
    RING.lock().unwrap().events.len()
}

impl TraceLog {
    /// Build a log from externally-constructed events (used by the
    /// pipeline-timing example to export *modeled* schedules).
    pub fn from_events(step_ns: u64, events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            step_ns,
            dropped: 0,
            events,
        }
    }

    /// JSONL encoding: a meta line (`{"step_ns":…,"dropped":…,
    /// "events":N}`) followed by one compact JSON object per event,
    /// newline-terminated. Byte-deterministic given the same events.
    pub fn to_jsonl(&self) -> String {
        let meta = TraceMeta {
            step_ns: self.step_ns,
            dropped: self.dropped,
            events: self.events.len() as u64,
        };
        let mut out = fare_rt::json::to_string(&meta).expect("trace meta serialises");
        out.push('\n');
        for ev in &self.events {
            out.push_str(&fare_rt::json::to_string(ev).expect("trace event serialises"));
            out.push('\n');
        }
        out
    }

    /// Parse a [`to_jsonl`](Self::to_jsonl) stream back. Errors on
    /// malformed lines or an event count that disagrees with the meta
    /// header.
    pub fn from_jsonl(text: &str) -> Result<TraceLog, String> {
        let mut lines = text.lines();
        let meta_line = lines.next().ok_or("empty trace stream")?;
        let meta: TraceMeta =
            fare_rt::json::from_str(meta_line).map_err(|e| format!("bad meta line: {e:?}"))?;
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let ev: TraceEvent = fare_rt::json::from_str(line)
                .map_err(|e| format!("bad event on line {}: {e:?}", i + 2))?;
            events.push(ev);
        }
        if events.len() as u64 != meta.events {
            return Err(format!(
                "meta says {} events, stream has {}",
                meta.events,
                events.len()
            ));
        }
        Ok(TraceLog {
            step_ns: meta.step_ns,
            dropped: meta.dropped,
            events,
        })
    }

    /// Chrome Trace Event Format JSON: open the output in
    /// `chrome://tracing` or Perfetto. Timestamps are microseconds
    /// (`ts_ns / 1000`, fractional part kept); `track` maps to `tid` so
    /// modeled pipeline stages render as parallel rows.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = match ev.ph {
                Phase::B => "B",
                Phase::E => "E",
            };
            let cat = ev.name.split('.').next().unwrap_or("fare");
            let ts_us = ev.ts_ns / 1000;
            let ts_frac = ev.ts_ns % 1000;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}",
                ev.name, cat, ph, ts_us, ts_frac, ev.track
            ));
            if let Some(arg) = ev.arg {
                out.push_str(&format!(",\"args\":{{\"arg\":{arg}}}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Check the structural invariants of a span stream: every end
    /// matches the innermost open begin of the same name, nothing is
    /// left open, and timestamps never decrease. Returns a description
    /// of the first violation.
    pub fn validate_nesting(&self) -> Result<(), String> {
        let mut stack: Vec<&str> = Vec::new();
        let mut last_ts = 0u64;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.ts_ns < last_ts {
                return Err(format!(
                    "event {i} ({}) goes back in time: {} < {}",
                    ev.name, ev.ts_ns, last_ts
                ));
            }
            last_ts = ev.ts_ns;
            match ev.ph {
                Phase::B => stack.push(&ev.name),
                Phase::E => match stack.pop() {
                    Some(open) if open == ev.name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: end of {} while {} is innermost",
                            ev.name, open
                        ))
                    }
                    None => return Err(format!("event {i}: end of {} with no open span", ev.name)),
                },
            }
        }
        if let Some(open) = stack.pop() {
            return Err(format!("span {open} never ended"));
        }
        Ok(())
    }

    /// Per-span-name (begin) event counts, sorted by name — the compact
    /// shape pinned by the trace-golden digest.
    pub fn span_counts(&self) -> Vec<(String, u64)> {
        let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for ev in &self.events {
            if ev.ph == Phase::B {
                *counts.entry(&ev.name).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_clock, set_mode, test_lock, ClockMode, Mode};

    fn fixture() -> TraceLog {
        TraceLog::from_events(
            7,
            vec![
                TraceEvent {
                    name: "core.trainer.run".into(),
                    ph: Phase::B,
                    ts_ns: 0,
                    track: 0,
                    arg: None,
                },
                TraceEvent {
                    name: "core.trainer.epoch".into(),
                    ph: Phase::B,
                    ts_ns: 7,
                    track: 0,
                    arg: Some(0),
                },
                TraceEvent {
                    name: "core.trainer.epoch".into(),
                    ph: Phase::E,
                    ts_ns: 14,
                    track: 0,
                    arg: None,
                },
                TraceEvent {
                    name: "core.trainer.run".into(),
                    ph: Phase::E,
                    ts_ns: 21,
                    track: 0,
                    arg: None,
                },
            ],
        )
    }

    #[test]
    fn spans_are_inert_when_not_tracing() {
        let _g = test_lock();
        set_mode(Mode::Json);
        crate::reset();
        {
            let _s = span("core.trainer.run");
        }
        assert_eq!(buffered(), 0, "json mode must not record spans");
        set_mode(Mode::Off);
        crate::reset();
    }

    #[test]
    fn fixed_clock_spans_are_sequenced_and_nested() {
        let _g = test_lock();
        set_mode(Mode::Trace);
        set_clock(ClockMode::Fixed(10));
        crate::reset();
        {
            let _run = span("core.trainer.run");
            for e in 0..2u64 {
                let _epoch = span_arg("core.trainer.epoch", e);
            }
        }
        let log = take();
        set_clock(ClockMode::Wall);
        set_mode(Mode::Off);
        crate::reset();

        assert_eq!(log.events.len(), 6);
        assert_eq!(log.step_ns, 10);
        let ts: Vec<u64> = log.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(log.events[1].arg, Some(0));
        log.validate_nesting().unwrap();
        assert_eq!(
            log.span_counts(),
            vec![
                ("core.trainer.epoch".to_string(), 2),
                ("core.trainer.run".to_string(), 1)
            ]
        );
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let log = fixture();
        let text = log.to_jsonl();
        let back = TraceLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_rejects_count_mismatch_and_garbage() {
        let log = fixture();
        let mut text = log.to_jsonl();
        // Drop the last event line → count mismatch.
        let trimmed: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n")
        };
        assert!(TraceLog::from_jsonl(&trimmed).is_err());
        text.push_str("not json\n");
        assert!(TraceLog::from_jsonl(&text).is_err());
        assert!(TraceLog::from_jsonl("").is_err());
    }

    #[test]
    fn chrome_export_is_valid_json_with_all_events() {
        let log = fixture();
        let chrome = log.to_chrome();
        let parsed = fare_rt::json::parse(&chrome).expect("chrome export parses as JSON");
        let obj = match parsed {
            fare_rt::json::Json::Obj(o) => o,
            other => panic!("expected object, got {other:?}"),
        };
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        match events {
            fare_rt::json::Json::Arr(a) => assert_eq!(a.len(), log.events.len()),
            other => panic!("expected array, got {other:?}"),
        }
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ts\":0.007")); // 7 ns = 0.007 µs
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut ring = Ring::new();
        ring.capacity = 4;
        for ts_ns in 0..12u64 {
            ring.push(TraceEvent {
                name: "gnn.attention".into(),
                ph: if ts_ns % 2 == 0 { Phase::B } else { Phase::E },
                ts_ns,
                track: 0,
                arg: Some(ts_ns / 2),
            });
        }

        assert_eq!(ring.events.len(), 4);
        assert_eq!(ring.dropped, 8);
        // Survivors are the newest events.
        assert_eq!(ring.events.back().unwrap().ts_ns, 11);
    }

    #[test]
    fn validate_nesting_flags_violations() {
        let mut log = fixture();
        log.events[2].name = "gnn.forward".into();
        assert!(log.validate_nesting().is_err());

        let mut log = fixture();
        log.events.truncate(2);
        assert!(log.validate_nesting().is_err());

        let mut log = fixture();
        log.events[3].ts_ns = 1;
        assert!(log.validate_nesting().is_err());
    }
}
