//! `fare-report` CLI contract on hostile input: a manifest nested far
//! deeper than any real one, or one whose heatmap cannot be rendered,
//! must produce the documented usage-error exit code 2, not an abort;
//! and a manifest whose loss diverged diffs clean against itself.

use std::path::PathBuf;
use std::process::Command;

/// Runs `fare-report <cmd> <manifest> [<manifest>]` on `text` written
/// to a file named `name`; returns the exit code and stderr.
fn fare_report(cmd: &str, name: &str, text: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write manifest");
    let mut command = Command::new(env!("CARGO_BIN_EXE_fare-report"));
    command.arg(cmd).arg(&path);
    if cmd == "diff" {
        command.arg(&path);
    }
    let out = command.output().expect("run fare-report");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A manifest with one epoch of `loss` and one heatmap grid.
fn manifest(loss: &str, rows: u64, cols: u64, sa0: [u64; 2], sa1: [u64; 2]) -> String {
    format!(
        r#"{{"run":"t","seed":1,"config":"{{}}","counters":[],"timers":[],
        "epochs":[{{"epoch":0,"loss":{loss},"train_accuracy":0.5,"test_accuracy":0.4}}],
        "heatmaps":[{{"name":"g","rows":{rows},"cols":{cols},"sa0":[{},{}],"sa1":[{},{}],
        "mismatch":[0,0],"mvms":[0,0],"energy_nj":[0,0]}}],"bench":[]}}"#,
        sa0[0], sa0[1], sa1[0], sa1[1]
    )
}

#[test]
fn summarize_rejects_deeply_nested_arrays_with_exit_2() {
    let (code, stderr) = fare_report("summarize", "deep_arrays.json", &"[".repeat(200_000));
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper"), "stderr: {stderr}");
}

#[test]
fn summarize_rejects_deeply_nested_objects_with_exit_2() {
    let (code, stderr) = fare_report(
        "summarize",
        "deep_objects.json",
        &r#"{"a":"#.repeat(200_000),
    );
    assert_eq!(code, Some(2), "stderr: {stderr}");
}

#[test]
fn heatmap_rejects_a_grid_with_zero_columns_with_exit_2() {
    let text = manifest("1.0", 1, 0, [1, 2], [0, 0]);
    let (code, stderr) = fare_report("heatmap", "zero_cols.json", &text);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot hold"), "stderr: {stderr}");
}

#[test]
fn heatmap_rejects_fault_counts_past_u64_with_exit_2() {
    let text = manifest("1.0", 1, 2, [u64::MAX, 0], [1, 0]);
    let (code, stderr) = fare_report("heatmap", "overflow.json", &text);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("overflows"), "stderr: {stderr}");
}

#[test]
fn diff_of_a_nan_loss_manifest_against_itself_is_ok() {
    let text = manifest("null", 1, 2, [1, 2], [0, 1]);
    let (code, stderr) = fare_report("diff", "nan_loss.json", &text);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
