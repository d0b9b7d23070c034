//! `fare-report` CLI contract on hostile input: a manifest nested far
//! deeper than any real one must produce the documented usage-error
//! exit code 2, not a stack-overflow abort.

use std::path::PathBuf;
use std::process::Command;

fn summarize_exit_code(name: &str, text: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write hostile manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_fare-report"))
        .arg("summarize")
        .arg(&path)
        .output()
        .expect("run fare-report");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn summarize_rejects_deeply_nested_arrays_with_exit_2() {
    let (code, stderr) = summarize_exit_code("deep_arrays.json", &"[".repeat(200_000));
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper"), "stderr: {stderr}");
}

#[test]
fn summarize_rejects_deeply_nested_objects_with_exit_2() {
    let (code, stderr) = summarize_exit_code("deep_objects.json", &r#"{"a":"#.repeat(200_000));
    assert_eq!(code, Some(2), "stderr: {stderr}");
}
