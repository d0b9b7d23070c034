//! CLI contract of `train` and `bench_mapping`: a bad flag is a usage
//! error with exit code 2 and a message on stderr, never a panic, and
//! never a silent fall-back to the default.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_errors(bin: &str, cases: &[(&[&str], &str)]) {
    for &(args, want) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_flags_exit_with_usage_error_2() {
    let cases: [(&[&str], &str); 12] = [
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
