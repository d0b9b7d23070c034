//! Property tests for the span-trace exporters: arbitrary well-formed
//! span streams must round-trip losslessly through JSONL, export to
//! parseable Chrome Trace JSON with every event intact, and keep the
//! nesting/monotonicity invariants the emitter guarantees by
//! construction.

use fare_obs::trace::{Phase, TraceEvent, TraceLog};
use fare_rt::json::Json;
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};

const NAMES: [&str; 7] = [
    "core.trainer.run",
    "core.trainer.epoch",
    "core.trainer.batch",
    "gnn.aggregate",
    "gnn.matmul",
    "gnn.attention",
    "core.mapping.refresh",
];

/// Generate a random *well-formed* span stream: a random walk that
/// either opens a random span or closes the innermost one, then closes
/// whatever is left — balanced by construction, with strictly
/// increasing fixed-clock timestamps.
fn random_stream(seed: u64, len: usize, step: u64) -> TraceLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut ts = 0u64;
    let mut tick = |events: &mut Vec<TraceEvent>, name: &str, ph: Phase, arg: Option<u64>| {
        events.push(TraceEvent {
            name: name.to_string(),
            ph,
            ts_ns: ts,
            track: 0,
            arg,
        });
        ts += step;
    };
    for _ in 0..len {
        let open = stack.is_empty() || rng.gen_bool(0.55);
        if open {
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            let arg = if rng.gen_bool(0.4) {
                Some(rng.gen_range(0..1000u64))
            } else {
                None
            };
            stack.push(name);
            tick(&mut events, name, Phase::B, arg);
        } else {
            let name = stack.pop().unwrap();
            tick(&mut events, name, Phase::E, None);
        }
    }
    while let Some(name) = stack.pop() {
        tick(&mut events, name, Phase::E, None);
    }
    TraceLog::from_events(step, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn jsonl_round_trips_arbitrary_streams(
        seed in 0u64..10_000,
        len in 0usize..120,
        step in 1u64..5_000,
    ) {
        let log = random_stream(seed, len, step);
        let text = log.to_jsonl();
        let back = TraceLog::from_jsonl(&text).expect("round trip parses");
        prop_assert_eq!(&back, &log);
        // Idempotent: re-encoding is byte-identical.
        prop_assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn generated_streams_satisfy_nesting_invariants(
        seed in 0u64..10_000,
        len in 0usize..120,
    ) {
        let log = random_stream(seed, len, 10);
        prop_assert!(log.validate_nesting().is_ok());
        // Begin and end counts balance per name.
        let mut per_name: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
        for ev in &log.events {
            *per_name.entry(ev.name.as_str()).or_insert(0) +=
                if ev.ph == Phase::B { 1 } else { -1 };
        }
        prop_assert!(per_name.values().all(|&v| v == 0));
    }

    #[test]
    fn chrome_export_parses_back_with_every_event(
        seed in 0u64..10_000,
        len in 0usize..120,
        step in 1u64..5_000,
    ) {
        let log = random_stream(seed, len, step);
        let chrome = log.to_chrome();
        let parsed = fare_rt::json::parse(&chrome).expect("chrome export parses");
        let Json::Obj(fields) = parsed else { panic!("chrome export is not an object") };
        let events = fields.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v);
        let Some(Json::Arr(events)) = events else { panic!("no traceEvents array") };
        prop_assert_eq!(events.len(), log.events.len());
        // Spot-check field fidelity on every event: name matches and
        // ph is B or E in stream order.
        for (ev, parsed_ev) in log.events.iter().zip(events) {
            let Json::Obj(po) = parsed_ev else { panic!("event is not an object") };
            let get = |key: &str| po.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
            prop_assert_eq!(get("name"), Some(Json::Str(ev.name.clone())));
            let want_ph = match ev.ph { Phase::B => "B", Phase::E => "E" };
            prop_assert_eq!(get("ph"), Some(Json::Str(want_ph.to_string())));
            // Timestamp in µs: ns/1000 with three fixed decimals.
            let want_ts = format!("{}.{:03}", ev.ts_ns / 1000, ev.ts_ns % 1000);
            prop_assert_eq!(get("ts"), Some(Json::Num(want_ts)));
        }
    }

    #[test]
    fn nesting_validator_rejects_random_corruption(
        seed in 0u64..10_000,
        len in 4usize..120,
    ) {
        let log = random_stream(seed, len, 10);
        // len >= 4 guarantees at least one event. Flipping one phase
        // always breaks balance (B count no longer equals E count for
        // that name).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let idx = rng.gen_range(0..log.events.len());
        let mut corrupted = log.clone();
        corrupted.events[idx].ph = match corrupted.events[idx].ph {
            Phase::B => Phase::E,
            Phase::E => Phase::B,
        };
        prop_assert!(corrupted.validate_nesting().is_err());
    }
}
