//! `fare-report` — the workspace's telemetry analyzer CLI.
//!
//! Subcommands (see `fare-report help`):
//!
//! - `summarize <manifest.json>` — markdown tables for one manifest.
//! - `diff <baseline.json> <candidate.json>` — per-counter/timer/epoch
//!   delta report; exits non-zero when any quantity moves beyond
//!   `--tolerance`. verify.sh runs this as the regression gate against
//!   `tests/golden/golden_trace.json`, and it diffs `BENCH_*.json`
//!   files across PRs the same way.
//! - `heatmap <manifest.json>` — per-crossbar grids as ASCII (default)
//!   or SVG (`--svg <path>`).
//! - `figures <manifest.json>... --out <dir>` — fig5-style SVG epoch
//!   curves; `--check` re-renders and asserts deterministic non-empty
//!   output.
//! - `run-golden --out <path>` — execute the golden workload under
//!   `FARE_OBS=trace` and write its manifest (and optionally the JSONL
//!   / Chrome traces), producing the fresh side for `diff`.
//!
//! Exit codes: 0 success, 1 regression/check failure, 2 usage error.

use std::process::ExitCode;

use fare::obs::{self};
use fare::report::diff::{diff, DiffOptions};
use fare::report::figures::{epoch_curves, CurveMetric};
use fare::report::{heatmap, parse_manifest, summarize};

fn usage() -> &'static str {
    "fare-report — analyze fare-obs run manifests\n\n\
     USAGE:\n\
     \x20 fare-report summarize <manifest.json>\n\
     \x20 fare-report diff <baseline.json> <candidate.json> [--tolerance <rel>] [--ignore-timer-ns] [--all]\n\
     \x20 fare-report heatmap <manifest.json> [--grid <name>] [--metric <sa0|sa1|faults|mismatch|mvms|energy>] [--svg <path>]\n\
     \x20 fare-report figures <manifest.json>... --out <dir> [--metric <loss|train_accuracy|test_accuracy>] [--check]\n\
     \x20 fare-report run-golden --out <manifest.json> [--jsonl <path>] [--chrome <path>]\n"
}

fn read_manifest(path: &str) -> Result<obs::RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_manifest(&text).map_err(|e| format!("{path}: {e}"))
}

/// Pull `--flag <value>` out of `args`, removing both tokens.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pull a boolean `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn cmd_summarize(args: Vec<String>) -> Result<ExitCode, String> {
    let [path] = args.as_slice() else {
        return Err("summarize takes exactly one manifest path".to_string());
    };
    let manifest = read_manifest(path)?;
    print!("{}", summarize::to_markdown(&manifest));
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(mut args: Vec<String>) -> Result<ExitCode, String> {
    let tolerance = match take_flag(&mut args, "--tolerance")? {
        Some(t) => t
            .parse::<f64>()
            .map_err(|_| format!("bad --tolerance {t:?}"))?,
        None => 0.0,
    };
    let ignore_timer_ns = take_switch(&mut args, "--ignore-timer-ns");
    let all = take_switch(&mut args, "--all");
    let [base_path, cand_path] = args.as_slice() else {
        return Err("diff takes exactly two manifest paths".to_string());
    };
    let baseline = read_manifest(base_path)?;
    let candidate = read_manifest(cand_path)?;
    let report = diff(
        &baseline,
        &candidate,
        &DiffOptions {
            tolerance,
            ignore_timer_ns,
        },
    );
    print!("{}", report.to_markdown(!all));
    if report.ok() {
        println!("diff: OK (tolerance {tolerance})");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "diff: {} quantities beyond tolerance {tolerance}",
            report.beyond_tolerance()
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_heatmap(mut args: Vec<String>) -> Result<ExitCode, String> {
    let grid_name = take_flag(&mut args, "--grid")?;
    let metric = take_flag(&mut args, "--metric")?.unwrap_or_else(|| "faults".to_string());
    let svg_path = take_flag(&mut args, "--svg")?;
    let [path] = args.as_slice() else {
        return Err("heatmap takes exactly one manifest path".to_string());
    };
    let manifest = read_manifest(path)?;
    if manifest.heatmaps.is_empty() {
        return Err(format!("{path}: manifest has no heatmaps section"));
    }
    let grid = match &grid_name {
        Some(name) => manifest
            .heatmaps
            .iter()
            .find(|g| &g.name == name)
            .ok_or_else(|| {
                format!(
                    "no grid {name:?}; available: {}",
                    manifest
                        .heatmaps
                        .iter()
                        .map(|g| g.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?,
        None => &manifest.heatmaps[0],
    };
    match svg_path {
        Some(out) => {
            let svg = heatmap::svg(grid, &metric)?;
            std::fs::write(&out, svg).map_err(|e| format!("{out}: {e}"))?;
            println!("heatmap: wrote {out}");
        }
        None => print!("{}", heatmap::ascii(grid, &metric)?),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_figures(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out_dir = take_flag(&mut args, "--out")?.ok_or("figures needs --out <dir>")?;
    let metric_arg = take_flag(&mut args, "--metric")?;
    let check = take_switch(&mut args, "--check");
    if args.is_empty() {
        return Err("figures needs at least one manifest path".to_string());
    }
    let manifests: Vec<obs::RunManifest> = args
        .iter()
        .map(|p| read_manifest(p))
        .collect::<Result<_, _>>()?;
    let metrics: Vec<CurveMetric> = match metric_arg {
        Some(name) => vec![CurveMetric::parse(&name).ok_or_else(|| {
            format!("bad --metric {name:?}; valid: loss, train_accuracy, test_accuracy")
        })?],
        None => vec![CurveMetric::Loss, CurveMetric::TestAccuracy],
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    for metric in metrics {
        let svg = epoch_curves(&manifests, metric)?;
        if check {
            let again = epoch_curves(&manifests, metric)?;
            if svg != again {
                return Err(format!("{} figure is not deterministic", metric.label()));
            }
            if svg.len() < 500 || !svg.contains("<polyline") && !svg.contains("<rect") {
                return Err(format!("{} figure looks empty", metric.label()));
            }
        }
        let name = match metric {
            CurveMetric::Loss => "loss",
            CurveMetric::TrainAccuracy => "train_accuracy",
            CurveMetric::TestAccuracy => "test_accuracy",
        };
        let path = format!("{out_dir}/fig5_{name}.svg");
        std::fs::write(&path, &svg).map_err(|e| format!("{path}: {e}"))?;
        println!("figures: wrote {path} ({} bytes)", svg.len());
    }
    if check {
        println!("figures: check OK");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run_golden(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?.ok_or("run-golden needs --out <manifest.json>")?;
    let jsonl = take_flag(&mut args, "--jsonl")?;
    let chrome = take_flag(&mut args, "--chrome")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let (manifest, trace) = fare::golden::capture_trace();
    std::fs::write(&out, manifest.to_json_pretty() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!(
        "run-golden: wrote {out} ({} events traced, {} dropped)",
        trace.events.len(),
        trace.dropped
    );
    if let Some(path) = jsonl {
        std::fs::write(&path, trace.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        println!("run-golden: wrote {path}");
    }
    if let Some(path) = chrome {
        std::fs::write(&path, trace.to_chrome()).map_err(|e| format!("{path}: {e}"))?;
        println!("run-golden: wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "summarize" => cmd_summarize(argv),
        "diff" => cmd_diff(argv),
        "heatmap" => cmd_heatmap(argv),
        "figures" => cmd_figures(argv),
        "run-golden" => cmd_run_golden(argv),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown subcommand {other:?}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fare-report {cmd}: {msg}");
            ExitCode::from(2)
        }
    }
}
