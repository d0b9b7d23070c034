//! Hermeticity lint: no workspace manifest may declare a registry
//! dependency (C-HERMETIC).
//!
//! The build must succeed with no network and a cold cargo cache, so the
//! only dependencies allowed anywhere are in-repo `path` deps (declared
//! once in `[workspace.dependencies]`) and `X.workspace = true`
//! references to them. A dep line like `rand = "0.8"` — or a table
//! without a `path` key — would reintroduce crates.io and break every
//! offline environment; this test makes that a test failure instead of
//! a CI surprise.
//!
//! The same file checks that every crate root forbids `unsafe` code, so
//! no crate can opt back in with an `allow`.

use std::path::{Path, PathBuf};

/// Every `Cargo.toml` in the workspace (root + `crates/*`).
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates).expect("crates/ exists") {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    assert!(
        out.len() >= 11,
        "expected root + 10 crates, found {}",
        out.len()
    );
    out
}

/// The `key = value` dependency lines of every `[*dependencies*]`
/// section, with comments stripped.
fn dependency_lines(toml: &str) -> Vec<(String, String)> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for raw in toml.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            out.push((key.trim().to_string(), value.trim().to_string()));
        }
    }
    out
}

#[test]
fn all_dependencies_are_in_repo_path_deps() {
    for manifest in workspace_manifests() {
        let toml = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        for (name, value) in dependency_lines(&toml) {
            // Sub-keys of an already-vetted inline table, e.g. the
            // `path`/`version` keys themselves, only appear inside
            // `{ ... }` values handled below.
            let hermetic = value.contains("path =")
                || value.contains("path=")
                || value == "{ workspace = true }"
                || value.ends_with("workspace = true")
                || (name.ends_with(".workspace") && value == "true");
            assert!(
                hermetic,
                "{}: dependency `{name} = {value}` is not a path/workspace dep — \
                 registry deps break the offline build",
                manifest.display()
            );
            if value.contains("path") {
                let path_ok = value.contains("crates/");
                assert!(
                    path_ok,
                    "{}: dependency `{name}` points outside the repo: {value}",
                    manifest.display()
                );
            }
        }
    }
}

#[test]
fn workspace_dependency_table_only_names_fare_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut in_table = false;
    for raw in toml.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if !in_table || line.is_empty() {
            continue;
        }
        let name = line.split('=').next().unwrap().trim();
        assert!(
            name.starts_with("fare-"),
            "[workspace.dependencies] names a non-workspace crate: {name}"
        );
    }
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for manifest in workspace_manifests().into_iter().skip(1) {
        roots.push(manifest.with_file_name("src").join("lib.rs"));
    }
    for lib in roots {
        let source =
            std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("read {}: {e}", lib.display()));
        assert!(
            source
                .lines()
                .any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{} does not declare #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}
