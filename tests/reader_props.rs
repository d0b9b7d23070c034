//! Property tests for the readers a binary runs: seeded truncations and
//! mutations of the golden manifest and the golden JSONL trace must make
//! `parse_manifest` and `TraceLog::from_jsonl` return `Ok` or `Err`,
//! never panic; and every manifest that parses must summarize, diff,
//! render as heatmaps and plot as figures without panicking.

use std::sync::OnceLock;

use fare::obs::trace::TraceLog;
use fare::obs::{HeatmapGrid, RunManifest};
use fare::report::diff::{diff, DiffOptions};
use fare::report::figures::{epoch_curves, CurveMetric};
use fare::report::{heatmap, parse_manifest, summarize};
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};

const GOLDEN_MANIFEST: &str = include_str!("golden/golden_trace.json");

/// Bytes that change the JSON structure or a number.
const BYTES: &[u8] = b"0123456789-+.eE\"{}[],: n";

/// Values that push a reader or an analyzer to its limits: the first
/// six fit a `u64` field, the rest only a float field or none.
const TOKENS: [&str; 12] = [
    "0",
    "1",
    "2",
    "7",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "-0",
    "0.5",
    "1e999",
    "null",
];

/// `text` after one to three seeded edits. Most replace the number at
/// or after a position by an extreme token, which keeps the JSON valid
/// and tests the analyzers; the rest truncate, swap a byte for a
/// structural one or delete a short span, which tests the readers.
fn mutate(text: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..10) {
            0 => bytes.truncate(at),
            1 => bytes[at] = BYTES[rng.gen_range(0..BYTES.len())],
            2 => {
                let end = (at + rng.gen_range(1..64)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let Some(start) = bytes[at..].iter().position(u8::is_ascii_digit) else {
                    continue;
                };
                let start = at + start;
                let end = bytes[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit() && !b"-+.eE".contains(b))
                    .map_or(bytes.len(), |len| start + len);
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(start..end, token.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn golden() -> &'static RunManifest {
    static GOLDEN: OnceLock<RunManifest> = OnceLock::new();
    GOLDEN.get_or_init(|| parse_manifest(GOLDEN_MANIFEST).expect("golden manifest parses"))
}

fn golden_jsonl() -> &'static str {
    static JSONL: OnceLock<String> = OnceLock::new();
    JSONL.get_or_init(|| fare::golden::capture_trace().1.to_jsonl())
}

/// Runs every analyzer `fare-report` has on `m`, discarding results.
fn analyze(m: &RunManifest) {
    let _ = summarize::to_markdown(m);
    for (a, b) in [(m, golden()), (golden(), m), (m, m)] {
        let _ = diff(a, b, &DiffOptions::default()).to_markdown(false);
    }
    for grid in &m.heatmaps {
        for metric in HeatmapGrid::metric_names() {
            let _ = heatmap::ascii(grid, metric);
            let _ = heatmap::svg(grid, metric);
        }
    }
    let both = [m.clone(), golden().clone()];
    for metric in [
        CurveMetric::Loss,
        CurveMetric::TrainAccuracy,
        CurveMetric::TestAccuracy,
    ] {
        let _ = epoch_curves(&both, metric);
    }
}

#[test]
fn mutants_reach_the_analyzers() {
    // Guards the property below against vacuity: a good share of the
    // mutants must still parse, or the analyzers would go untested.
    let parsed = (0..256)
        .filter(|&seed| parse_manifest(&mutate(GOLDEN_MANIFEST, seed)).is_ok())
        .count();
    assert!(parsed >= 25, "only {parsed} of 256 mutants parse");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_manifests_parse_or_error_and_analyze_without_panic(seed in any::<u64>()) {
        if let Ok(m) = parse_manifest(&mutate(GOLDEN_MANIFEST, seed)) {
            analyze(&m);
        }
    }

    #[test]
    fn mutated_traces_parse_or_error(seed in any::<u64>()) {
        if let Ok(log) = TraceLog::from_jsonl(&mutate(golden_jsonl(), seed)) {
            let _ = log.span_counts();
            let _ = log.to_chrome();
        }
    }
}
