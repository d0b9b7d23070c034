//! CLI contract of the `fare-bench` binaries: a bad or unknown flag is a
//! usage error with exit code 2 and a message on stderr, before any
//! work; never a panic, and never a silent fall-back to the default.

use std::process::Command;

/// Exit code, stdout and stderr of `bin args`.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Each case exits 2 with `want` on stderr, before the binary prints
/// any result.
fn assert_usage_errors(bin: &str, cases: &[(&[&str], &str)]) {
    for &(args, want) in cases {
        let (code, stdout, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} did work first: {stdout}");
    }
}

#[test]
fn bad_flags_exit_with_usage_error_2() {
    let cases: [(&[&str], &str); 17] = [
        (&["--dataset", "cora"], "unknown dataset"),
        (&["--model", "gin"], "unknown model"),
        (&["--strategy", "pray"], "unknown strategy"),
        (&["--ratio", "9"], "--ratio"),
        (&["--ratio", "nine:1"], "--ratio"),
        (&["--ratio", "0:0"], "--ratio"),
        (&["--epochs", "many"], "needs a numeric value"),
        (&["--density", "lots"], "needs a numeric value"),
        (&["--density", "2"], "--density"),
        (&["--epochs", "0"], "epochs must be positive"),
        // A trailing flag with no value is an error, not its default.
        (&["--epochs", "1", "--density"], "--density needs a value"),
        (&["--epochs", "1", "--dataset"], "--dataset needs a value"),
        (&["--epochs", "2", "--json"], "--json needs a value"),
        // An unknown flag, a typo of a known one, or a stray value is an
        // error, not silently ignored.
        (&["--epoch", "1"], "unknown argument \"--epoch\""),
        (
            &["--epochs", "1", "--bogus", "3"],
            "unknown argument \"--bogus\"",
        ),
        (&["--epochs", "1", "3"], "unknown argument \"3\""),
        // A repeated flag is ambiguous: `--density` used to keep its
        // first value and `--epochs` its last.
        (
            &["--density", "0.1", "--density", "0.2"],
            "flag --density given twice",
        ),
    ];
    assert_usage_errors(env!("CARGO_BIN_EXE_train"), &cases);
}

#[test]
fn bench_mapping_bad_values_exit_with_usage_error_2() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["--smoke", "--xbar-size", "0"],
            "--xbar-size must be positive",
        ),
        (&["--smoke", "--nodes", "0"], "--nodes must be positive"),
        (&["--smoke", "--iters", "0"], "--iters must be positive"),
        (
            &["--smoke", "--density", "2"],
            "--density must be in [0, 1]",
        ),
        (
            &["--smoke", "--density", "-0.5"],
            "--density must be in [0, 1]",
        ),
        (&["--smoke", "--density"], "--density needs a value"),
    ];
    assert_usage_errors(env!("CARGO_BIN_EXE_bench_mapping"), &cases);
}

#[test]
fn every_binary_rejects_unknown_flags_before_work() {
    let unknown = "unknown argument \"--bogus\"";
    let cases: [(&str, &[&str], &str); 13] = [
        (env!("CARGO_BIN_EXE_ablation"), &["--bogus"], unknown),
        // `ablation` writes no JSON, so it takes no `--json`.
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--json", "x.json"],
            "unknown argument \"--json\"",
        ),
        (env!("CARGO_BIN_EXE_extensions"), &["--bogus"], unknown),
        (env!("CARGO_BIN_EXE_fig3"), &["--quick", "--bogus"], unknown),
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["--json"],
            "--json needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_fig5"),
            &["--ratio", "1:1", "--bogus"],
            unknown,
        ),
        (env!("CARGO_BIN_EXE_fig6"), &["--bogus", "1"], unknown),
        (
            env!("CARGO_BIN_EXE_fig7"),
            &["--epochs", "1"],
            "unknown argument \"--epochs\"",
        ),
        (env!("CARGO_BIN_EXE_table1"), &["--bogus"], unknown),
        (env!("CARGO_BIN_EXE_table2"), &["--bogus"], unknown),
        (env!("CARGO_BIN_EXE_table3"), &["--bogus"], unknown),
        (
            env!("CARGO_BIN_EXE_bench_core"),
            &["--smoke", "--bogus"],
            unknown,
        ),
        (
            env!("CARGO_BIN_EXE_bench_mapping"),
            &["--smoke", "--bogus"],
            unknown,
        ),
    ];
    for (bin, args, want) in cases {
        assert_usage_errors(bin, &[(args, want)]);
    }
}

#[test]
fn a_flag_is_never_read_as_another_flags_value() {
    // `--out --smoke` used to run the smoke bench and write its manifest
    // to a file named `--smoke`; `--json --quick` likewise.
    let dir = std::env::temp_dir().join(format!("fare_flag_value_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cases = [
        (env!("CARGO_BIN_EXE_bench_mapping"), ["--out", "--smoke"]),
        (env!("CARGO_BIN_EXE_fig5"), ["--json", "--quick"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let want = format!("flag {} needs a value", args[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work first");
        assert!(!dir.join(args[1]).exists(), "{args:?} wrote {}", args[1]);
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
