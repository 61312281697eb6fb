//! Repository-invariant lints, enforced as tests so they fail with the
//! offending file and line:
//!
//! * every workspace crate keeps `#![forbid(unsafe_code)]`;
//! * the ingestion paths hardened by the fault-tolerance work stay free of
//!   `unwrap()`/`expect()` outside test code, so no corrupted input can
//!   reintroduce a panic path;
//! * the replay engine and its two policies name no `BTreeMap` outside test
//!   code: their per-event tables are indexed by dense ids, and an ordered
//!   map keyed by one must not quietly return to the hot path.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn crate_roots() -> Vec<PathBuf> {
    let crates = workspace_root().join("crates");
    let mut roots: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("workspace has a crates/ directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    roots.sort();
    assert!(
        roots.len() >= 10,
        "expected the full crate set, got {roots:?}"
    );
    roots
}

#[test]
fn every_crate_forbids_unsafe_code() {
    let mut missing = Vec::new();
    for root in crate_roots() {
        let lib = root.join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).expect("lib.rs is readable");
        if !text.contains("#![forbid(unsafe_code)]") {
            missing.push(lib);
        }
    }
    assert!(
        missing.is_empty(),
        "crates without #![forbid(unsafe_code)]: {missing:?}"
    );
}

/// The non-test portion of one source file: everything before the first
/// `#[cfg(test)]` at column zero (the house style keeps unit tests in one
/// trailing module).
fn non_test_code(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
        .map(|(i, line)| (i + 1, line))
}

/// Files on the hardened ingestion path: a corrupted byte stream flows
/// through all of them before any report exists, so a panic here defeats
/// the recovery machinery. `crates/lint/src` is included wholesale — the
/// linter's whole purpose is consuming hostile input.
fn hardened_files() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut files = vec![
        root.join("crates/trace/src/stream.rs"),
        root.join("crates/trace/src/pbin.rs"),
        root.join("crates/trace/src/pipelined.rs"),
        root.join("crates/detect/src/inject.rs"),
        root.join("crates/record/src/chunked.rs"),
    ];
    let lint_src = root.join("crates/lint/src");
    let mut lint_files: Vec<PathBuf> = std::fs::read_dir(&lint_src)
        .expect("lint crate sources exist")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    lint_files.sort();
    assert!(lint_files.len() >= 4, "lint crate has its modules");
    files.extend(lint_files);
    files
}

fn is_comment(line: &str) -> bool {
    let trimmed = line.trim_start();
    trimmed.starts_with("//") || trimmed.starts_with("//!") || trimmed.starts_with("///")
}

#[test]
fn ingestion_paths_stay_panic_free() {
    let mut offenders: Vec<String> = Vec::new();
    for path in hardened_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if is_comment(line) {
                continue;
            }
            for needle in [".unwrap()", ".expect("] {
                if line.contains(needle) {
                    offenders.push(format!(
                        "{}:{line_no}: {needle} in non-test code: {}",
                        relative(&path),
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "panic paths on hardened ingestion code:\n{}",
        offenders.join("\n")
    );
}

/// The replay engine's per-event path. `reference.rs` is exempt: the
/// reference loops keep their ordered maps as the oracle's specification.
fn dense_replay_files() -> Vec<PathBuf> {
    let src = workspace_root().join("crates/replay/src");
    ["engine.rs", "original.rs", "free.rs"]
        .iter()
        .map(|f| src.join(f))
        .collect()
}

#[test]
fn replay_hot_path_names_no_ordered_map() {
    let mut offenders: Vec<String> = Vec::new();
    for path in dense_replay_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if !is_comment(line) && line.contains("BTreeMap") {
                offenders.push(format!("{}:{line_no}: {}", relative(&path), line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "BTreeMap on the replay engine's per-event path (index by the dense id instead):\n{}",
        offenders.join("\n")
    );
}

fn relative(path: &Path) -> String {
    path.strip_prefix(workspace_root())
        .unwrap_or(path)
        .display()
        .to_string()
}

#[test]
fn lint_crate_is_documented_and_safe() {
    let lib = workspace_root().join("crates/lint/src/lib.rs");
    let text = std::fs::read_to_string(&lib).expect("lint lib.rs is readable");
    assert!(text.contains("#![warn(missing_docs)]"));
    assert!(text.contains("#![forbid(unsafe_code)]"));
}
