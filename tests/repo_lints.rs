//! Repository-invariant lints, enforced as tests so they fail with the
//! offending file and line:
//!
//! * every library and binary root keeps `#![forbid(unsafe_code)]`: each
//!   crate's, and the root package's `src/suite.rs` and `src/bin/*.rs`;
//! * the ingestion paths hardened by the fault-tolerance work stay free of
//!   `unwrap()`/`expect()` and of the assert and panic macros outside test
//!   code, so no corrupted input can reintroduce a panic path;
//! * the replay engine and its two policies name no `BTreeMap` outside test
//!   code, and neither does the transform (`plan.rs`, `topology.rs`) that
//!   builds what the ULCP-free policy replays: their per-section and
//!   per-event tables are indexed by dense ids, and an ordered map keyed by
//!   one must not quietly return (the public `NodeSync::lockset` stays a
//!   `BTreeSet`);
//! * neither does the detection kernel or the pair classifier, whose
//!   reversed replay runs on stack arrays (or one heap buffer) per pair;
//! * only the sink modules (`crates/detect/src/sink.rs` and `plan.rs`)
//!   implement `UlcpSink` outside test code, so every engine collects
//!   through `CollectPairs` and aggregates through `PlanAggregator`, in the
//!   canonical pair order the engines emit (no sink re-sorts);
//! * no stage after detection reads a pair list: outside test code, no line
//!   of the transform crate, the report crate or the root package names the
//!   materialized pair list (`UlcpAnalysis`) or its sink (`CollectPairs`),
//!   and the facade crate names them only in its `prelude` re-export;
//! * library entry points read chunk files through the pipelined scanner:
//!   outside test code, no line of the trace, report, lint or record crate
//!   or of the root package calls an inline-scanner constructor, which stays
//!   the zero-thread reference for tests. The one exception is the fault
//!   injector's `corrupt_chunk_file` (`crates/detect/src/inject.rs`), which
//!   the lint does not scan;
//! * the core count is read in one place: outside test code, exactly one
//!   line under `crates/` and `src/` calls `available_parallelism`, in
//!   `perfplay_trace::available_threads`, so every thread budget starts
//!   from the same reading;
//! * the chunk contract is checked in one place: outside test code and
//!   comments, the texts of its violations appear under `crates/` and
//!   `src/` only in its checker, `crates/trace/src/contract.rs`, so the
//!   readers, `load_trace` and the linter cannot drift apart;
//! * chunk windows are cut in one place: outside test code and comments, a
//!   `TraceChunk` struct literal appears under `crates/` and `src/` only in
//!   `crates/trace/src/stream.rs`, where `TraceChunks` cuts every window the
//!   library streams or spills, and in the PBIN decoder
//!   (`crates/trace/src/pbin.rs`), which rebuilds the chunks a file carries;
//! * sections are built in one place: outside test code and comments, no
//!   line of the trace, detect, lint or report crate but
//!   `crates/trace/src/section.rs`, home of `SectionBuilder` and
//!   `OpenLocks`, builds a `MemAccess` or searches a lock stack with
//!   `rposition`, so extraction, the trace statistics, validation and the
//!   linter pair acquires with releases by one rule;
//! * the shadow-memory history is kept in one place: outside test code and
//!   comments, `fn value_before` is defined under `crates/` and `src/` only
//!   in `crates/detect/src/shadow.rs`, so detection and the reference
//!   engine read the reversed replay's starting state from one
//!   `LastWriteIndex`, which the batch engine builds from the whole trace;
//! * detection runs one engine: outside test code and comments,
//!   `PairKernel::new` is called under `crates/` and `src/` only in
//!   `crates/detect/src/pairing.rs`, and outside test code no line under
//!   `crates/detect/src/` names `std::thread`, `mpsc` or `sync_channel`,
//!   because the per-lock fan-out goes through
//!   `perfplay_trace::map_work_queue`; so no second, threaded pairing
//!   engine returns;
//! * the facade keeps one run configuration: no struct in
//!   `crates/core/src/lib.rs` declares a field named after a field of
//!   `PipelineConfig`, which `PerfPlayConfig` nests instead of copying;
//! * in-memory analysis detects with the batch engine directly:
//!   `PipelineConfig` declares no `chunk_events`, outside test code and
//!   comments `crates/report/src/pipeline.rs` names
//!   `ParallelStreamingDetector` only inside `analyze_chunk_files`, and
//!   `crates/detect/src/parallel_stream.rs` declares no `fn analyze_trace`,
//!   so `ParallelStreamingDetector`, which loads an `EventSource` and
//!   detects it with the batch engine, reads only chunk files and no
//!   in-memory trace takes a detour through a stream;
//! * retired names stay retired: no source file, test, example, README, CI
//!   workflow or verification note names the sequential streaming engine
//!   (`ParallelStreamingDetector` at one worker replaced it), the second
//!   measurement mechanism (perfbench and the `perfplay` CLI replaced it),
//!   the pair-list report path (the plan and its per-site rows replaced it),
//!   the pipelined twins of the chunk-file entry points (the plain entry
//!   points read through the pipelined scanner), the incremental chunk
//!   writer (the one-pass spill replaced it), the facade's copies of the
//!   pipeline's configuration and errors (`PerfPlayConfig` nests
//!   `PipelineConfig`, and `PerfPlayError` wraps `PipelineError`), the
//!   sharded streaming engine's resident-state machinery (`load_trace` and
//!   the batch engine replaced it), or the detection outputs only that
//!   engine needed: the second aggregating sink, the re-sorting hook and the
//!   streamed result wrappers (`PlanAggregator`, the engines' own emission
//!   order and `SinkAnalysis` beside `StreamingStats` replaced them).

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

/// The `.rs` files directly inside `dir`, sorted; none if it does not exist.
fn rs_files_in(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    files.sort();
    files
}

/// The root file of every library and binary target: each crate's
/// `src/lib.rs`, and the root package's library `src/suite.rs` and its
/// binaries `src/bin/*.rs`.
fn target_roots() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut roots: Vec<PathBuf> = crate_roots().iter().map(|c| c.join("src/lib.rs")).collect();
    roots.push(root.join("src/suite.rs"));
    roots.extend(rs_files_in(&root.join("src/bin")));
    assert!(
        roots.contains(&root.join("src/bin/perfplay.rs")),
        "the CLI's root is missing from {roots:?}"
    );
    roots
}

#[test]
fn every_crate_forbids_unsafe_code() {
    let mut missing = Vec::new();
    for file in target_roots() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        if !text.contains("#![forbid(unsafe_code)]") {
            missing.push(relative(&file));
        }
    }
    assert!(
        missing.is_empty(),
        "target roots without #![forbid(unsafe_code)]: {missing:?}"
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
        root.join("crates/trace/src/contract.rs"),
        root.join("crates/trace/src/stream.rs"),
        root.join("crates/trace/src/frame.rs"),
        root.join("crates/trace/src/pbin.rs"),
        root.join("crates/trace/src/pipelined.rs"),
        root.join("crates/detect/src/inject.rs"),
        root.join("crates/record/src/chunked.rs"),
    ];
    let lint_files = rs_files_in(&root.join("crates/lint/src"));
    assert!(lint_files.len() >= 4, "lint crate has its modules");
    files.extend(lint_files);
    files
}

fn is_comment(line: &str) -> bool {
    let trimmed = line.trim_start();
    trimmed.starts_with("//") || trimmed.starts_with("//!") || trimmed.starts_with("///")
}

/// What panics on bad input: the two unwrapping calls, and the assert and
/// panic macros. `assert!(` also matches `debug_assert!(`, and
/// `assert_eq!(` matches `debug_assert_eq!(`.
const PANIC_PATHS: [&str; 9] = [
    ".unwrap()",
    ".expect(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

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
            for needle in PANIC_PATHS {
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

/// The replay engine's per-event path and the transformation it replays.
/// The replay crate's `reference.rs` is exempt: the reference loops keep
/// their ordered maps as the oracle's specification, as does the transform
/// oracle in `tests/plan_equivalence.rs`.
fn dense_id_files() -> Vec<PathBuf> {
    let root = workspace_root();
    [
        "crates/replay/src/engine.rs",
        "crates/replay/src/original.rs",
        "crates/replay/src/free.rs",
        "crates/transform/src/plan.rs",
        "crates/transform/src/topology.rs",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect()
}

/// Every non-test, non-comment line of `files` that names `BTreeMap`.
fn ordered_map_lines(files: &[PathBuf]) -> Vec<String> {
    let mut offenders: Vec<String> = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if !is_comment(line) && line.contains("BTreeMap") {
                offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
            }
        }
    }
    offenders
}

#[test]
fn replay_hot_path_names_no_ordered_map() {
    let offenders = ordered_map_lines(&dense_id_files());
    assert!(
        offenders.is_empty(),
        "BTreeMap on the replay engine's per-event path or in the transform (index by the \
         dense id instead):\n{}",
        offenders.join("\n")
    );
}

/// The detection engine's per-pair path. `reference.rs` and
/// `shadow.rs`'s `MemorySnapshot` are exempt: the oracle keeps its ordered
/// maps.
fn detect_hot_path_files() -> Vec<PathBuf> {
    let src = workspace_root().join("crates/detect/src");
    ["kernel.rs", "classify.rs"]
        .iter()
        .map(|f| src.join(f))
        .collect()
}

#[test]
fn detect_hot_path_names_no_ordered_map() {
    let offenders = ordered_map_lines(&detect_hot_path_files());
    assert!(
        offenders.is_empty(),
        "BTreeMap on the detection engine's per-pair path (use the packed rows or \
         stack arrays instead):\n{}",
        offenders.join("\n")
    );
}

/// The only library files allowed to implement `UlcpSink`.
const SINK_MODULES: [&str; 2] = ["crates/detect/src/sink.rs", "crates/detect/src/plan.rs"];

#[test]
fn sinks_live_in_the_sink_modules() {
    let root = workspace_root();
    let mut offenders: Vec<String> = Vec::new();
    for krate in crate_roots() {
        for path in rs_files_in(&krate.join("src")) {
            if SINK_MODULES.iter().any(|m| path == root.join(m)) {
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            for (line_no, line) in non_test_code(&text) {
                if !is_comment(line) && line.contains("UlcpSink for") {
                    offenders.push(format!("{}:{line_no}: {}", relative(&path), line.trim()));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "UlcpSink implemented outside {SINK_MODULES:?} (collect through CollectPairs or \
         aggregate through PlanAggregator instead):\n{}",
        offenders.join("\n")
    );
}

/// Names of the materialized pair list and the sink that collects it.
const PAIR_LIST_NAMES: [&str; 2] = ["UlcpAnalysis", "CollectPairs"];

/// Every `.rs` file under the given workspace directories, sorted.
fn rs_files_under(dirs: &[&str]) -> Vec<PathBuf> {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in dirs {
        files_under(&root.join(dir), &mut files);
    }
    files.retain(|p| p.extension().is_some_and(|ext| ext == "rs"));
    files.sort();
    files
}

/// Every `.rs` file of the stages after detection: the transform and report
/// crates, and the root package's library and CLI.
fn post_detection_files() -> Vec<PathBuf> {
    rs_files_under(&["crates/transform/src", "crates/report/src", "src"])
}

/// The non-test lines of `text` that name the pair list, comments included.
/// With `allow_prelude`, the lines of the `pub mod prelude { ... }` block are
/// exempt.
fn pair_list_lines(path: &Path, text: &str, allow_prelude: bool) -> Vec<String> {
    let mut offenders = Vec::new();
    let mut in_prelude = false;
    for (line_no, line) in non_test_code(text) {
        if allow_prelude && line.starts_with("pub mod prelude {") {
            in_prelude = true;
        }
        if !in_prelude && PAIR_LIST_NAMES.iter().any(|name| line.contains(name)) {
            offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
        }
        if in_prelude && line == "}" {
            in_prelude = false;
        }
    }
    offenders
}

#[test]
fn stages_after_detection_name_no_pair_list() {
    let files = post_detection_files();
    assert!(
        files.len() >= 10,
        "expected the transform, report and root sources, got {files:?}"
    );
    let mut offenders: Vec<String> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        offenders.extend(pair_list_lines(path, &text, false));
    }
    let core = workspace_root().join("crates/core/src/lib.rs");
    let text = std::fs::read_to_string(&core).expect("core lib.rs is readable");
    assert!(
        text.contains("pub mod prelude {"),
        "the facade keeps a prelude"
    );
    offenders.extend(pair_list_lines(&core, &text, true));
    assert!(
        offenders.is_empty(),
        "a stage after detection names the pair list (read the DetectionPlan and its \
         per-site rows instead; only the facade's prelude may re-export it):\n{}",
        offenders.join("\n")
    );
}

/// Constructors of the inline chunk-file scanner, the zero-thread reference
/// the equivalence tests compare the pipelined scanner against. A line names
/// one only as a whole word, so the pipelined constructors
/// (`ChunkFileReader::open_pipelined`, `RawChunkRecords::open_pipelined`) do
/// not count.
const INLINE_SCANNER_CONSTRUCTORS: [&str; 5] = [
    "ChunkFileReader::open",
    "ChunkFileReader::with_policy",
    "ChunkFileReader::with_policy_and_format",
    "RawChunkRecords::open",
    "RawChunkRecords::open_with_format",
];

#[test]
fn entry_points_read_through_the_pipelined_scanner() {
    // The code that reads chunk files for a user: the trace crate's
    // `read_chunked_trace`, the report, lint and record crates, and the root
    // package's library and CLI. The scanners' own definitions in the trace
    // crate construct through `Self::` or the pipelined constructors, so
    // they do not count. The one library caller of the inline scanner is the
    // fault injector's `corrupt_chunk_file` in the detect crate, which this
    // lint does not scan.
    let files = rs_files_under(&[
        "crates/trace/src",
        "crates/report/src",
        "crates/lint/src",
        "crates/record/src",
        "src",
    ]);
    assert!(
        files.len() >= 28,
        "expected the trace, report, lint, record and root sources, got {files:?}"
    );
    let mut offenders: Vec<String> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            let calls = INLINE_SCANNER_CONSTRUCTORS
                .iter()
                .any(|c| names_word(line, c));
            if !is_comment(line) && calls {
                offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "an entry point reads a chunk file through the inline scanner (use \
         PipelinedChunkReader or RawChunkRecords::open_pipelined):\n{}",
        offenders.join("\n")
    );
}

/// The one file allowed to read the core count: `available_threads` lives
/// there.
const CORE_COUNT_READER: &str = "crates/trace/src/lib.rs";

#[test]
fn the_core_count_is_read_in_one_place() {
    // Library and binary sources; integration tests may read it freely.
    let files: Vec<PathBuf> = rs_files_under(&["crates", "src"])
        .into_iter()
        .filter(|p| !relative(p).split('/').any(|part| part == "tests"))
        .collect();
    assert!(
        files.len() >= 50,
        "expected every crate's and the root package's sources, got {files:?}"
    );
    let mut calls: Vec<String> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if !is_comment(line) && line.contains("available_parallelism(") {
                calls.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
            }
        }
    }
    assert!(
        calls.len() == 1 && calls[0].starts_with(&format!("{CORE_COUNT_READER}:")),
        "library code must read the core count exactly once, in {CORE_COUNT_READER} \
         (call perfplay_trace::available_threads instead); found:\n{}",
        calls.join("\n")
    );
}

/// The texts of the chunk contract's violations: a second copy of a rule
/// words its violation again.
const CONTRACT_MESSAGES: [&str; 4] = [
    "does not advance past",
    "non-contiguous span",
    "rewinds across a gap",
    "outside chunk",
];

/// The one file that checks the chunk contract.
const CONTRACT_CHECKER: &str = "crates/trace/src/contract.rs";

#[test]
fn the_chunk_contract_is_checked_in_one_place() {
    // Library and binary sources; integration tests may word them freely.
    let files: Vec<PathBuf> = rs_files_under(&["crates", "src"])
        .into_iter()
        .filter(|p| !relative(p).split('/').any(|part| part == "tests"))
        .collect();
    let mut offenders: Vec<String> = Vec::new();
    let mut worded: Vec<&str> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let in_checker = relative(path) == CONTRACT_CHECKER;
        for (line_no, line) in non_test_code(&text) {
            if is_comment(line) {
                continue;
            }
            for message in CONTRACT_MESSAGES.into_iter().filter(|m| line.contains(m)) {
                if in_checker {
                    worded.push(message);
                } else {
                    offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a chunk-contract rule is checked outside {CONTRACT_CHECKER} (call \
         perfplay_trace::ChunkContract instead):\n{}",
        offenders.join("\n")
    );
    for message in CONTRACT_MESSAGES {
        assert!(
            worded.contains(&message),
            "{CONTRACT_CHECKER} no longer words `{message}`; update CONTRACT_MESSAGES"
        );
    }
}

/// The files allowed to build a `TraceChunk` literal: the one window cutter,
/// `TraceChunks`, and the PBIN decoder, which rebuilds the chunks a file
/// carries.
const CHUNK_BUILDERS: [&str; 2] = ["crates/trace/src/stream.rs", "crates/trace/src/pbin.rs"];

#[test]
fn chunk_windows_are_cut_in_one_place() {
    // Library and binary sources; integration tests may build chunks freely.
    let files: Vec<PathBuf> = rs_files_under(&["crates", "src"])
        .into_iter()
        .filter(|p| !relative(p).split('/').any(|part| part == "tests"))
        .collect();
    let mut offenders: Vec<String> = Vec::new();
    for path in &files {
        if CHUNK_BUILDERS.contains(&relative(path).as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if !is_comment(line) && line.contains("TraceChunk {") {
                offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a chunk is built outside {CHUNK_BUILDERS:?} (cut windows with \
         perfplay_trace::TraceChunks instead):\n{}",
        offenders.join("\n")
    );
}

/// The one file that pairs acquires with releases and collects what a
/// section accessed.
const SECTION_BUILDER: &str = "crates/trace/src/section.rs";

/// Whether `line` builds a `MemAccess` (rather than matching one: a
/// pattern sits before a `=>`, after a `let` or inside `matches!`), or
/// searches a lock stack: an `rposition` whose predicate names a lock.
fn builds_a_section(line: &str) -> bool {
    let builds_access = ["MemAccess::Read(", "MemAccess::Write("]
        .iter()
        .any(|access| {
            line.match_indices(access).any(|(at, _)| {
                let (before, rest) = line.split_at(at);
                !rest.contains("=>")
                    && !before.trim_end().ends_with("let")
                    && !before.contains("matches!(")
            })
        });
    let searches_locks = line
        .split_once("rposition(")
        .is_some_and(|(_, predicate)| predicate.contains("lock"));
    builds_access || searches_locks
}

#[test]
fn sections_are_built_in_one_place() {
    let files: Vec<PathBuf> = rs_files_under(&[
        "crates/trace",
        "crates/detect",
        "crates/lint",
        "crates/report",
    ])
    .into_iter()
    .filter(|p| !relative(p).split('/').any(|part| part == "tests"))
    .collect();
    let mut offenders: Vec<String> = Vec::new();
    let mut built_in_builder = false;
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if is_comment(line) || !builds_a_section(line) {
                continue;
            }
            if relative(path) == SECTION_BUILDER {
                built_in_builder = true;
            } else {
                offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "sections are built outside {SECTION_BUILDER} (step a \
         perfplay_trace::SectionBuilder, or match releases with OpenLocks):\n{}",
        offenders.join("\n")
    );
    assert!(
        built_in_builder,
        "{SECTION_BUILDER} no longer builds a MemAccess; update builds_a_section"
    );
}

/// The one file that keeps a shadow-memory history.
const SHADOW_HISTORY: &str = "crates/detect/src/shadow.rs";

#[test]
fn the_shadow_history_is_kept_in_one_place() {
    // Library and binary sources; integration tests may define helpers.
    let files: Vec<PathBuf> = rs_files_under(&["crates", "src"])
        .into_iter()
        .filter(|p| !relative(p).split('/').any(|part| part == "tests"))
        .collect();
    let mut offenders: Vec<String> = Vec::new();
    let mut defined_in_shadow = false;
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (line_no, line) in non_test_code(&text) {
            if is_comment(line) || !line.contains("fn value_before(") {
                continue;
            }
            if relative(path) == SHADOW_HISTORY {
                defined_in_shadow = true;
            } else {
                offenders.push(format!("{}:{line_no}: {}", relative(path), line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a shadow-memory history is kept outside {SHADOW_HISTORY} (build a \
         perfplay_detect::LastWriteIndex instead):\n{}",
        offenders.join("\n")
    );
    assert!(
        defined_in_shadow,
        "{SHADOW_HISTORY} no longer defines `fn value_before`; update this lint"
    );
}

/// The one file that runs the pairing kernel: the batch engine.
const PAIRING_ENGINE: &str = "crates/detect/src/pairing.rs";
/// The detection crate's sources, which start no thread of their own.
const DETECT_SOURCES: &str = "crates/detect/src/";
/// What starts a thread or passes messages between threads.
const THREAD_PRIMITIVES: [&str; 3] = ["std::thread", "mpsc", "sync_channel"];

#[test]
fn detection_runs_one_engine() {
    // Library and binary sources; integration tests may drive anything.
    let files: Vec<PathBuf> = rs_files_under(&["crates", "src"])
        .into_iter()
        .filter(|p| !relative(p).split('/').any(|part| part == "tests"))
        .collect();
    let mut second_kernels: Vec<String> = Vec::new();
    let mut threaded: Vec<String> = Vec::new();
    let mut kernel_in_engine = false;
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let file = relative(path);
        for (line_no, line) in non_test_code(&text) {
            if !is_comment(line) && line.contains("PairKernel::new(") {
                if file == PAIRING_ENGINE {
                    kernel_in_engine = true;
                } else {
                    second_kernels.push(format!("{file}:{line_no}: {}", line.trim()));
                }
            }
            if file.starts_with(DETECT_SOURCES)
                && THREAD_PRIMITIVES.iter().any(|p| line.contains(p))
            {
                threaded.push(format!("{file}:{line_no}: {}", line.trim()));
            }
        }
    }
    assert!(
        second_kernels.is_empty(),
        "the pairing kernel runs outside {PAIRING_ENGINE} (detect through \
         perfplay_detect::Detector instead):\n{}",
        second_kernels.join("\n")
    );
    assert!(
        kernel_in_engine,
        "{PAIRING_ENGINE} no longer calls `PairKernel::new`; update this lint"
    );
    assert!(
        threaded.is_empty(),
        "{DETECT_SOURCES} starts or feeds threads of its own (fan out through \
         perfplay_trace::map_work_queue instead):\n{}",
        threaded.join("\n")
    );
}

const FACADE: &str = "crates/core/src/lib.rs";
const PIPELINE_CONFIG: &str = "crates/report/src/pipeline.rs";

/// The named fields of the braced structs `text` declares outside comments,
/// as `(struct, field, line)`: a field is a line inside the struct's braces
/// that reads `[pub ]name: Type`.
fn struct_fields(text: &str) -> Vec<(String, String, usize)> {
    let mut fields = Vec::new();
    let mut open: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let code = line.trim();
        if is_comment(code) {
            continue;
        }
        let Some(owner) = &open else {
            if let Some((_, rest)) = code.split_once("struct ") {
                if code.ends_with('{') {
                    open = Some(rest.chars().take_while(|&c| is_word_char(c)).collect());
                }
            }
            continue;
        };
        if code.starts_with('}') {
            open = None;
            continue;
        }
        let decl = code
            .strip_prefix("pub(crate) ")
            .or_else(|| code.strip_prefix("pub "))
            .unwrap_or(code);
        if let Some((field, _)) = decl.split_once(':') {
            if !field.is_empty() && field.chars().all(is_word_char) {
                fields.push((owner.clone(), field.to_string(), i + 1));
            }
        }
    }
    fields
}

fn read_workspace_file(path: &str) -> String {
    std::fs::read_to_string(workspace_root().join(path))
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The fields `PipelineConfig` declares, checked to include `preflight`, so
/// a lint reading them looks where the struct is.
fn pipeline_config_fields() -> Vec<String> {
    let fields: Vec<String> = struct_fields(&read_workspace_file(PIPELINE_CONFIG))
        .into_iter()
        .filter(|(owner, _, _)| owner == "PipelineConfig")
        .map(|(_, field, _)| field)
        .collect();
    assert!(
        fields.iter().any(|field| field == "preflight"),
        "{PIPELINE_CONFIG} no longer declares `PipelineConfig` where this lint looks; update it"
    );
    fields
}

#[test]
fn the_facade_copies_no_pipeline_field() {
    let pipeline_fields = pipeline_config_fields();
    let facade_fields = struct_fields(&read_workspace_file(FACADE));
    assert!(
        facade_fields
            .iter()
            .any(|(owner, field, _)| owner == "PerfPlayConfig" && field == "pipeline"),
        "{FACADE} no longer declares `PerfPlayConfig::pipeline` where this lint looks; update it"
    );
    let offenders: Vec<String> = facade_fields
        .iter()
        .filter(|(_, field, _)| pipeline_fields.contains(field))
        .map(|(owner, field, line)| format!("{FACADE}:{line}: `{owner}::{field}`"))
        .collect();
    assert!(
        offenders.is_empty(),
        "the facade declares a field of `PipelineConfig` (set it through \
         `PerfPlayConfig::pipeline` instead):\n{}",
        offenders.join("\n")
    );
}

const STREAMING_ENGINE: &str = "crates/detect/src/parallel_stream.rs";
/// The one function of `PIPELINE_CONFIG` that runs the streaming engine.
const CHUNK_FILE_DRIVER: &str = "fn analyze_chunk_files";

#[test]
fn in_memory_analysis_detects_with_the_batch_engine() {
    assert!(
        !pipeline_config_fields()
            .iter()
            .any(|field| field == "chunk_events"),
        "`PipelineConfig` declares `chunk_events` again: in-memory analysis detects with the \
         batch engine, and the streaming engine reads chunk files"
    );

    // The driver's body runs from its signature to the first closing brace
    // at column zero.
    let pipeline = read_workspace_file(PIPELINE_CONFIG);
    let mut in_driver = false;
    let mut named_in_driver = false;
    let mut offenders: Vec<String> = Vec::new();
    for (line_no, line) in non_test_code(&pipeline) {
        if line.contains(CHUNK_FILE_DRIVER) {
            in_driver = true;
        }
        if !is_comment(line) && line.contains("ParallelStreamingDetector") {
            if in_driver {
                named_in_driver = true;
            } else {
                offenders.push(format!("{PIPELINE_CONFIG}:{line_no}: {}", line.trim()));
            }
        }
        if in_driver && line.starts_with('}') {
            in_driver = false;
        }
    }
    assert!(
        offenders.is_empty(),
        "the pipeline runs the streaming engine outside `analyze_chunk_files` (detect an \
         in-memory trace with `Detector::with_workers`):\n{}",
        offenders.join("\n")
    );
    assert!(
        named_in_driver,
        "`{CHUNK_FILE_DRIVER}` in {PIPELINE_CONFIG} no longer names \
         `ParallelStreamingDetector`; update this lint"
    );

    let engine = read_workspace_file(STREAMING_ENGINE);
    assert!(
        engine.contains("fn analyze_with"),
        "{STREAMING_ENGINE} no longer declares the streaming engine; update this lint"
    );
    let wrappers: Vec<String> = engine
        .lines()
        .enumerate()
        .filter(|(_, line)| !is_comment(line) && line.contains("fn analyze_trace"))
        .map(|(i, line)| format!("{STREAMING_ENGINE}:{}: {}", i + 1, line.trim()))
        .collect();
    assert!(
        wrappers.is_empty(),
        "the streaming engine has an in-memory wrapper again (stream a trace with \
         `analyze_with(&mut TraceChunks::new(&trace, n), sink)`):\n{}",
        wrappers.join("\n")
    );
}

/// A name the repository retired. Each is assembled with `concat!`, so that
/// this file does not name it either.
struct Retired {
    name: &'static str,
    /// Which occurrences of `name` count.
    counts: Counts,
    /// What replaced it.
    replaced_by: &'static str,
}

/// Which occurrences of a retired name count as naming it.
enum Counts {
    /// Every occurrence.
    Anywhere,
    /// Only where no letter, digit or `_` touches either end, so
    /// `reproduce` does not name the binary.
    WholeWord,
    /// Every occurrence not directly preceded by this prefix, so the
    /// parallel engine's name does not name the sequential engine, but a
    /// plural, a suffixed type or another prefix does.
    ExceptAfter(&'static str),
}

const RETIRED_ENGINE: &[Retired] = &[Retired {
    name: concat!("Streaming", "Detector"),
    counts: Counts::ExceptAfter("Parallel"),
    replaced_by: "ParallelStreamingDetector::with_workers(config, 1)",
}];

/// The second measurement mechanism: the harness crate, its binary, its
/// benchmark stub and the single-run JSON artifacts.
const RETIRED_MEASUREMENT: &[Retired] = &[
    Retired {
        name: concat!("perfplay", "-bench"),
        counts: Counts::WholeWord,
        replaced_by: "perfbench and the perfplay CLI",
    },
    Retired {
        name: concat!("perfplay", "_bench"),
        counts: Counts::WholeWord,
        replaced_by: "perfbench and the perfplay CLI",
    },
    Retired {
        name: concat!("re", "pro"),
        counts: Counts::WholeWord,
        replaced_by: "the perfplay CLI, an integration test, or tests/acceptance.rs",
    },
    Retired {
        name: concat!("BENCH", "_"),
        counts: Counts::Anywhere,
        replaced_by: "perfbench's workloads (perfbench/README.md maps each)",
    },
    Retired {
        name: concat!("PERFPLAY_", "BENCH", "_FAST"),
        counts: Counts::Anywhere,
        replaced_by: "perfbench --quick",
    },
    Retired {
        name: concat!("vendor/", "criterion"),
        counts: Counts::Anywhere,
        replaced_by: "perfbench",
    },
];

/// The pair-list report path: the per-pair gain list, its fusion, the
/// report and impact split built from it, and the wrappers that only ever
/// passed one value.
const RETIRED_PAIR_LIST_REPORT: &[Retired] = &[
    Retired {
        name: concat!("fuse_", "ulcps"),
        counts: Counts::WholeWord,
        replaced_by: "fuse_aggregates over a plan's aggregate table",
    },
    Retired {
        name: concat!("fuse_ulcp", "_gains"),
        counts: Counts::WholeWord,
        replaced_by: "fuse_aggregates over a plan's aggregate table",
    },
    Retired {
        name: concat!("ulcp_", "gains"),
        counts: Counts::WholeWord,
        replaced_by: "ReplayGains folded per site by a Detector::plan pass",
    },
    Retired {
        name: concat!("Ulcp", "Gain"),
        counts: Counts::WholeWord,
        replaced_by: "the per-site rows of SiteAggregates",
    },
    Retired {
        name: concat!("PerfReport::", "build"),
        counts: Counts::WholeWord,
        replaced_by: "PerfReport::from_plan, re-ranked with PerfReport::with_gains",
    },
    Retired {
        name: concat!("ImpactSplit::", "compute"),
        counts: Counts::WholeWord,
        replaced_by: "ImpactSplit::with_total_gain",
    },
    Retired {
        name: concat!("analyze_plan", "_with"),
        counts: Counts::WholeWord,
        replaced_by: "analyze_plan",
    },
    Retired {
        name: concat!("analyze_trace", "_single_pass"),
        counts: Counts::WholeWord,
        replaced_by: "analyze_plan, which PerfPlay::analyze_trace runs",
    },
    Retired {
        name: concat!("Topology::", "from_analysis"),
        counts: Counts::WholeWord,
        replaced_by: "Topology::from_parts",
    },
];

/// The pipelined twins of the chunk-file entry points: the plain entry
/// points now read through the pipelined scanner themselves.
const RETIRED_PIPELINED_TWINS: &[Retired] = &[
    Retired {
        name: concat!("lint_chunk_file", "_pipelined"),
        counts: Counts::WholeWord,
        replaced_by: "lint_chunk_file, which reads through the pipelined scanner",
    },
    Retired {
        name: concat!("convert_chunk_file", "_pipelined"),
        counts: Counts::WholeWord,
        replaced_by: "convert_chunk_file, which reads through the pipelined scanner",
    },
];

/// The incremental chunk writer: the spill writes the chunks `TraceChunks`
/// cuts from the trace, and nothing else wrote chunk files.
const RETIRED_CHUNKED_WRITER: &[Retired] = &[Retired {
    name: concat!("Chunked", "Writer"),
    counts: Counts::WholeWord,
    replaced_by: "spill_trace_with_format",
}];

/// The sharded streaming engine's resident-state machinery: the section
/// renumbering after compaction, and the peaks of pairs held and of
/// searches retired mid-stream. The stream is loaded and detected whole.
const RETIRED_SHARDED_ENGINE: &[Retired] = &[
    Retired {
        name: concat!("remap", "_sections"),
        counts: Counts::WholeWord,
        replaced_by: "load_trace, whose sections are numbered densely from the start",
    },
    Retired {
        name: concat!("peak_live", "_pairs"),
        counts: Counts::WholeWord,
        replaced_by: "DetectionPlan::resident_entries, the plan's size after detection",
    },
    Retired {
        name: concat!("retired", "_before_end"),
        counts: Counts::WholeWord,
        replaced_by: "nothing: the batch engine searches from every section of a loaded trace",
    },
];

/// The detection outputs only the sharded streaming engine needed: the
/// second aggregating sink that `PlanAggregator` wrapped, the hook that
/// re-sorted the retained lists after the scan, and the streamed result
/// wrappers that repeated `UlcpAnalysis` and `SinkAnalysis` with the stream
/// statistics added.
const RETIRED_DETECTION_OUTPUTS: &[Retired] = &[
    Retired {
        name: concat!("Site", "Aggregator"),
        counts: Counts::WholeWord,
        replaced_by: "PlanAggregator, the one aggregating sink (`Detector::plan`)",
    },
    Retired {
        name: concat!("se", "al"),
        counts: Counts::WholeWord,
        replaced_by: "nothing: the engines emit in the canonical order",
    },
    Retired {
        name: concat!("Streaming", "Analysis"),
        counts: Counts::WholeWord,
        replaced_by: "`ParallelStreamingDetector::analyze_with`'s \
                      `(SinkAnalysis<S>, StreamingStats)`; a `CollectPairs` run converts \
                      into `UlcpAnalysis`",
    },
    Retired {
        name: concat!("StreamingSink", "Analysis"),
        counts: Counts::WholeWord,
        replaced_by: "`ParallelStreamingDetector::analyze_with`'s \
                      `(SinkAnalysis<S>, StreamingStats)`",
    },
];

/// The facade's copies of the pipeline's configuration and errors:
/// `PerfPlayConfig` nests `PipelineConfig`, and `PerfPlayError` wraps
/// `PipelineError` in one variant.
const RETIRED_FACADE_COPIES: &[Retired] = &[
    Retired {
        name: concat!("PerfPlayConfig::", "pipeline()"),
        counts: Counts::Anywhere,
        replaced_by: "the `PerfPlayConfig::pipeline` field",
    },
    Retired {
        name: concat!(".pipeline", "()"),
        counts: Counts::Anywhere,
        replaced_by: "the `PerfPlayConfig::pipeline` field",
    },
    Retired {
        name: concat!("PerfPlayError::", "Replay"),
        counts: Counts::WholeWord,
        replaced_by: "PerfPlayError::Pipeline(PipelineError::Replay(..))",
    },
    Retired {
        name: concat!("PerfPlayError::", "Stream"),
        counts: Counts::WholeWord,
        replaced_by: "PerfPlayError::Pipeline(PipelineError::Stream(..))",
    },
    Retired {
        name: concat!("PerfPlayError::", "Panic"),
        counts: Counts::WholeWord,
        replaced_by: "PerfPlayError::Pipeline(PipelineError::Panic(..))",
    },
    Retired {
        name: concat!("PerfPlayError::", "Preflight"),
        counts: Counts::WholeWord,
        replaced_by: "PerfPlayError::Pipeline(PipelineError::Preflight(..))",
    },
    Retired {
        name: concat!("PerfPlayError::", "Trace"),
        counts: Counts::WholeWord,
        replaced_by: "nothing: the facade never returned it",
    },
    Retired {
        name: concat!("PerfPlayError::", "Plan"),
        counts: Counts::WholeWord,
        replaced_by: "nothing: the facade never returned it",
    },
];

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Retired {
    fn named_in(&self, line: &str) -> bool {
        match self.counts {
            Counts::Anywhere => line.contains(self.name),
            Counts::WholeWord => names_word(line, self.name),
            Counts::ExceptAfter(prefix) => line
                .match_indices(self.name)
                .any(|(at, _)| !line[..at].ends_with(prefix)),
        }
    }
}

/// True if `line` names `word` with no letter, digit or `_` touching either
/// end.
fn names_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + word.len()..]);
        !before.chars().next_back().is_some_and(is_word_char)
            && !after.chars().next().is_some_and(is_word_char)
    })
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Every line of the scanned files that names one of `retired`. The scan
/// covers the code, tests, examples, README, CI workflow and verification
/// notes. `perfbench/` belongs to the benchmark, and `CHANGES.md` and
/// `ROADMAP.md` are history, so they may name what was retired.
fn retired_name_lines(retired: &[Retired]) -> Vec<String> {
    let root = workspace_root();
    let mut files = vec![root.join("README.md")];
    for dir in ["crates", "tests", "src", "examples", ".github", ".claude"] {
        files_under(&root.join(dir), &mut files);
    }
    let mut offenders: Vec<String> = Vec::new();
    for path in files {
        // Binary files cannot name anything.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            for name in retired.iter().filter(|r| r.named_in(line)) {
                offenders.push(format!(
                    "{}:{}: `{}` was replaced by {}: {}",
                    relative(&path),
                    i + 1,
                    name.name,
                    name.replaced_by,
                    line.trim()
                ));
            }
        }
    }
    offenders
}

#[test]
fn retired_streaming_engine_is_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_ENGINE);
    assert!(
        offenders.is_empty(),
        "the retired sequential streaming engine is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_measurement_mechanism_is_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_MEASUREMENT);
    assert!(
        offenders.is_empty(),
        "the retired measurement mechanism is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_pair_list_report_path_is_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_PAIR_LIST_REPORT);
    assert!(
        offenders.is_empty(),
        "the retired pair-list report path is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_pipelined_twins_are_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_PIPELINED_TWINS);
    assert!(
        offenders.is_empty(),
        "a retired pipelined twin is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_chunked_writer_is_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_CHUNKED_WRITER);
    assert!(
        offenders.is_empty(),
        "the retired incremental chunk writer is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_sharded_engine_state_is_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_SHARDED_ENGINE);
    assert!(
        offenders.is_empty(),
        "the retired sharded streaming engine's state is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_detection_outputs_are_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_DETECTION_OUTPUTS);
    assert!(
        offenders.is_empty(),
        "a retired detection output is named:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn retired_facade_copies_are_named_nowhere() {
    let offenders = retired_name_lines(RETIRED_FACADE_COPIES);
    assert!(
        offenders.is_empty(),
        "a retired copy of the pipeline's configuration or errors is named:\n{}",
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
