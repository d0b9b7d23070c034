//! Shared plumbing for the figure/table binaries.
//!
//! Each binary regenerates one table or figure of the paper and prints
//! the same rows/series the paper reports. Common command-line flags:
//!
//! - `--epochs N` — training epochs per run (default 30),
//! - `--trials N` — independent trials averaged per bar (default 3),
//! - `--seed N` — base RNG seed (default 42),
//! - `--quick` — 8 epochs × 1 trial, for smoke runs.
//!
//! Every binary checks its whole command line before it does any work:
//! an argument that is not one of its flags, a flag that needs a value
//! and has none, or a flag given twice exits with status 2
//! ([`check_args`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fare_core::experiments::ExperimentParams;

/// The value-taking flags [`params_from`] reads.
const EXPERIMENT_FLAGS: [&str; 3] = ["--epochs", "--trials", "--seed"];

/// Checks the command line of an experiment binary, which accepts the
/// common flags plus the value-taking flags `valued` of its own, then
/// parses the common flags from `std::env::args`.
///
/// An argument that is none of these, or a flag whose value is missing
/// or not a number, is a [`usage_error`].
pub fn params_from_args(valued: &[&str]) -> ExperimentParams {
    let accepted: Vec<&str> = EXPERIMENT_FLAGS.iter().chain(valued).copied().collect();
    check_args(&accepted, &["--quick"]);
    let args: Vec<String> = std::env::args().collect();
    params_from(&args).unwrap_or_else(|e| usage_error(&e))
}

/// Parses experiment flags from an explicit argument list (testable).
/// Other flags are skipped; [`check_args`] is what rejects the unknown
/// ones. Errors when a flag's value is missing or not a number.
pub fn params_from(args: &[String]) -> Result<ExperimentParams, String> {
    let mut params = ExperimentParams::default();
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> Result<u64, String> {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("flag {} needs a numeric value", args[i]))
        };
        match args[i].as_str() {
            "--epochs" => {
                params.epochs = take(i)? as usize;
                i += 1;
            }
            "--trials" => {
                params.trials = take(i)? as usize;
                i += 1;
            }
            "--seed" => {
                params.seed = take(i)?;
                i += 1;
            }
            "--quick" => {
                params.epochs = 8;
                params.trials = 1;
            }
            _ => {}
        }
        i += 1;
    }
    Ok(params)
}

/// Checks the process arguments before a binary does any work: each must
/// be one of the flags in `valued`, followed by its value, which may not
/// be one of these flags itself, or one of the `switches`, which take
/// none, and no flag may be given twice. Anything else is a
/// [`usage_error`].
pub fn check_args(valued: &[&str], switches: &[&str]) {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, valued, switches).unwrap_or_else(|e| usage_error(&e))
}

/// [`check_args`] over an explicit argument list, program name first.
/// One of the program's own flags never serves as another flag's value:
/// `--out --smoke` is `--out` without a value.
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let is_flag = |a: &str| valued.contains(&a) || switches.contains(&a);
    let mut rest = args.iter().skip(1).peekable();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(arg) = rest.next() {
        if seen.contains(&arg.as_str()) {
            return Err(format!("flag {arg} given twice"));
        }
        seen.push(arg);
        if valued.contains(&arg.as_str()) {
            if rest.next_if(|v| !is_flag(v)).is_none() {
                return Err(format!("flag {arg} needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            if valued.is_empty() && switches.is_empty() {
                return Err(format!(
                    "unknown argument {arg:?}; this program takes no flags"
                ));
            }
            let accepted: Vec<&str> = valued.iter().chain(switches).copied().collect();
            return Err(format!(
                "unknown argument {arg:?}; accepted flags: {}",
                accepted.join(" ")
            ));
        }
    }
    Ok(())
}

/// Reports a bad command line on stderr and exits with status 2, the
/// usage-error code `fare-report` uses too.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The value following `flag` parsed as a `T`, or `default` when the flag
/// is absent; a value that does not parse is a [`usage_error`].
pub fn numeric_flag<T: std::str::FromStr>(flag: &str, default: T) -> T {
    match string_flag(flag) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} needs a numeric value, got {v:?}"))),
        None => default,
    }
}

/// Writes a serialisable experiment result as pretty-printed JSON to
/// `path`, the value of `--json` a binary read before its run; no-op for
/// `None`.
///
/// Lets downstream tooling (plotting scripts, CI dashboards) consume the
/// figures without scraping the text tables.
///
/// # Panics
///
/// Panics if the file cannot be written or the value fails to serialise.
pub fn maybe_write_json<T: fare_rt::json::ToJson>(path: Option<&str>, value: &T) {
    if let Some(path) = path {
        let json = fare_rt::json::to_string_pretty(value).expect("result serialises to JSON");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote JSON results to {path}");
    }
}

/// Returns the value following `flag` in the process arguments, or
/// `None` when the flag is absent. A flag given as the last argument,
/// with no value after it, is a [`usage_error`].
pub fn string_flag(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, flag).unwrap_or_else(|e| usage_error(&e))
}

/// The value following `flag` in `args`: `Ok(None)` when the flag is
/// absent, an error when nothing follows it.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("flag {flag} needs a value")),
    }
}

/// Times `f` over `iters` runs (after one untimed warmup) in ns/iter.
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    time_ns_with_input(iters, || (), |_| f())
}

/// Times `f` over `iters` runs (after one untimed warmup) in ns/iter,
/// each run on its own input from `setup` — the one timing loop of the
/// `bench_*` manifest writers. Neither `setup` nor dropping the inputs
/// is timed: inputs are built in batches of up to 64 before the clock
/// starts and dropped after it stops.
pub fn time_ns_with_input<T>(
    iters: usize,
    mut setup: impl FnMut() -> T,
    mut f: impl FnMut(&mut T),
) -> f64 {
    f(&mut setup());
    let mut timed = std::time::Duration::ZERO;
    let mut left = iters;
    while left > 0 {
        let mut batch: Vec<T> = (0..left.min(64)).map(|_| setup()).collect();
        left -= batch.len();
        let start = std::time::Instant::now();
        batch.iter_mut().for_each(&mut f);
        timed += start.elapsed();
    }
    timed.as_nanos() as f64 / iters as f64
}

/// Renders an aligned text table.
///
/// # Example
///
/// ```
/// use fare_bench::render_table;
/// let t = render_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(t.contains("name"));
/// assert!(t.contains("bb"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$} | ", cell, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&fmt_row(&sep));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats an accuracy as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let p = params_from(&argv("prog")).unwrap();
        assert_eq!(p.epochs, 30);
        assert_eq!(p.trials, 3);
        assert_eq!(p.seed, 42);
    }

    #[test]
    fn parses_all_flags() {
        let p = params_from(&argv("prog --epochs 50 --trials 5 --seed 7")).unwrap();
        assert_eq!(p.epochs, 50);
        assert_eq!(p.trials, 5);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn quick_mode() {
        let p = params_from(&argv("prog --quick")).unwrap();
        assert_eq!(p.epochs, 8);
        assert_eq!(p.trials, 1);
    }

    #[test]
    fn rejects_unknown_flags() {
        let args = argv("prog --ratio 1:1 --epochs 9");
        let err = check_flags(&args, &EXPERIMENT_FLAGS, &["--quick"]).unwrap_err();
        assert!(err.contains("unknown argument \"--ratio\""), "{err}");
        // A flag the binary lists is accepted, with its value skipped.
        let valued = ["--epochs", "--ratio"];
        assert_eq!(check_flags(&args, &valued, &[]), Ok(()));
        // A typo of a listed flag, a stray value and a valueless last
        // flag are all rejected.
        for bad in [
            "prog --epoch 1",
            "prog 9",
            "prog --quick 1",
            "prog --epochs",
            "prog --epochs 1 --epochs 2",
            "prog --quick --quick",
        ] {
            assert!(
                check_flags(&argv(bad), &EXPERIMENT_FLAGS, &["--quick"]).is_err(),
                "{bad}"
            );
        }
        // `params_from` itself skips the binary's own flags.
        assert_eq!(params_from(&args).unwrap().epochs, 9);
    }

    #[test]
    fn a_flag_is_never_another_flags_value() {
        for (bad, valued, switches) in [
            ("prog --out --smoke", &["--out"][..], &["--smoke"][..]),
            ("prog --json --quick", &["--json"], &["--quick"]),
            ("prog --json --epochs 3", &["--json", "--epochs"], &[]),
        ] {
            let err = check_flags(&argv(bad), valued, switches).unwrap_err();
            let flag = bad.split_whitespace().nth(1).unwrap();
            assert_eq!(err, format!("flag {flag} needs a value"), "{bad}");
        }
        // A value that merely looks like a flag is still a value.
        assert_eq!(
            check_flags(&argv("prog --out --other"), &["--out"], &[]),
            Ok(())
        );
    }

    #[test]
    fn unknown_flag_error_names_the_accepted_flags_or_none() {
        let args = argv("prog --x");
        let err = check_flags(&args, &["--ratio"], &["--smoke"]).unwrap_err();
        assert_eq!(
            err,
            "unknown argument \"--x\"; accepted flags: --ratio --smoke"
        );
        let err = check_flags(&args, &[], &[]).unwrap_err();
        assert_eq!(err, "unknown argument \"--x\"; this program takes no flags");
    }

    #[test]
    fn missing_or_non_numeric_value_is_an_error() {
        for bad in ["prog --epochs", "prog --trials x", "prog --seed -1"] {
            let err = params_from(&argv(bad)).unwrap_err();
            assert!(err.contains("needs a numeric value"), "{bad}: {err}");
        }
    }

    #[test]
    fn flag_values() {
        let args = argv("prog --out x.json --json");
        assert_eq!(flag_value(&args, "--out"), Ok(Some("x.json".into())));
        assert_eq!(flag_value(&args, "--ratio"), Ok(None));
        let err = flag_value(&args, "--json").unwrap_err();
        assert!(err.contains("--json needs a value"), "{err}");
    }

    #[test]
    fn table_alignment() {
        let t = render_table(&["a", "bcd"], &[vec!["xx".into(), "y".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
    }
}
