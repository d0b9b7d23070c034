//! # fare-report — manifest analyzers for the FARe workspace
//!
//! The read side of the observability stack: where `fare-obs` *writes*
//! [`RunManifest`]s, this crate turns them back
//! into something an operator can act on:
//!
//! - [`summarize`] — one manifest → markdown tables (counters, timers,
//!   epoch curve, heatmap totals, bench numbers),
//! - [`diff`] — two manifests → per-counter/per-timer/per-epoch delta
//!   report with a configurable relative tolerance; drives the
//!   `fare-report diff` CI gate against `tests/golden/golden_trace.json`
//!   and the committed `BENCH_*.json` files,
//! - [`heatmap`] — [`HeatmapGrid`](fare_obs::HeatmapGrid) → ASCII or
//!   SVG crossbar grids,
//! - [`figures`] — epoch curves from one or more manifests → fig5-style
//!   SVG line charts, via the in-repo [`svg`] writer (keeping the build
//!   hermetic — no plotting dependency).
//!
//! Everything here is a pure function of its inputs and renders
//! byte-deterministically; file IO lives in the `fare-report` binary
//! (`src/bin/fare-report.rs` in the facade crate).

#![forbid(unsafe_code)]

pub mod diff;
pub mod figures;
pub mod heatmap;
pub mod summarize;
pub mod svg;

use fare_obs::RunManifest;

/// Parse a manifest from its pretty-JSON text (the format written by
/// [`RunManifest::to_json_pretty`](fare_obs::RunManifest::to_json_pretty)).
/// Rejects a heatmap grid that fails
/// [`HeatmapGrid::check`](fare_obs::HeatmapGrid::check), so every
/// analyzer here can render and total what this returns.
pub fn parse_manifest(text: &str) -> Result<RunManifest, String> {
    let manifest: RunManifest =
        fare_rt::json::from_str(text).map_err(|e| format!("not a RunManifest: {e:?}"))?;
    for grid in &manifest.heatmaps {
        grid.check()?;
    }
    Ok(manifest)
}

/// FNV-1a 64-bit digest of a byte stream — stable fingerprint used by
/// the trace-golden test to pin the full JSONL trace without committing
/// every event.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parse_manifest_rejects_garbage() {
        assert!(parse_manifest("{}").is_err());
        assert!(parse_manifest("not json").is_err());
    }
}
