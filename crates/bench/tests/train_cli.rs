//! `train` CLI contract: a bad flag is a usage error with exit code 2
//! and a message on stderr, never a panic.

use std::process::Command;

fn train(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_train"))
        .args(args)
        .output()
        .expect("run train");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flags_exit_with_usage_error_2() {
    let cases: [(&[&str], &str); 10] = [
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
    ];
    for (args, want) in cases {
        let (code, stderr) = train(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
