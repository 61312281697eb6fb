//! End-to-end tests of the `perfplay` binary: the three commands on real
//! chunk files, their output and their exit status (0 success, 1 a file
//! failed or linted with errors, 2 a usage error).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};

/// A fresh directory holding `chunks.jsonl`, a seeded recording spilled in
/// several chunks. Each test passes its own name, so parallel tests never
/// share a file.
fn fixture_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfplay-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let program = random_workload(
        31,
        &GeneratorConfig {
            threads: 4,
            locks: 3,
            objects: 12,
            sections_per_thread: 30,
        },
    );
    let trace = Recorder::new(SimConfig::default())
        .record(&program)
        .expect("seeded recording succeeds")
        .trace;
    let summary = spill_trace(&trace, dir.join("chunks.jsonl"), 64).expect("spill fixture");
    assert!(summary.chunks >= 4, "fixture needs several chunks");
    dir
}

fn perfplay(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfplay"))
        .args(args)
        .output()
        .expect("perfplay runs")
}

fn status(output: &Output) -> i32 {
    output.status.code().expect("perfplay exits with a code")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

/// Runs `perfplay convert SRC DST` and requires it to succeed.
fn convert(src: &Path, dst: &Path) {
    let out = perfplay(&["convert".as_ref(), src, dst]);
    assert_eq!(status(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
}

/// Copies `src` to `dst` with the middle byte's bit 6 flipped: inside a PBIN
/// frame, the frame CRC catches it.
fn flip_middle_byte(src: &Path, dst: &Path) {
    let mut bytes = std::fs::read(src).expect("read chunk file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(dst, bytes).expect("write flipped copy");
}

#[test]
fn convert_roundtrip_is_byte_identical() {
    let dir = fixture_dir("roundtrip");
    let jsonl = dir.join("chunks.jsonl");
    let pbin = dir.join("chunks.pbin");
    let back = dir.join("back.jsonl");
    convert(&jsonl, &pbin);
    assert_eq!(ChunkFormat::detect(&pbin), Ok(ChunkFormat::Pbin));
    convert(&pbin, &back);
    assert_eq!(
        std::fs::read(&jsonl).unwrap(),
        std::fs::read(&back).unwrap(),
        "jsonl -> pbin -> jsonl changed the bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_prints_the_same_report_for_both_formats() {
    let dir = fixture_dir("formats");
    let jsonl = dir.join("chunks.jsonl");
    let pbin = dir.join("chunks.pbin");
    convert(&jsonl, &pbin);
    let report = |path: &Path| {
        let out = perfplay(&["analyze".as_ref(), path]);
        assert_eq!(status(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
        let text = stdout(&out);
        assert!(text.starts_with(&format!("{}: ", path.display())), "{text}");
        assert!(text.contains("BodyOverlapGain proxy"), "{text}");
        assert!(text.contains("#1 "), "no recommendation printed:\n{text}");
        text.replace(&path.display().to_string(), "PATH")
    };
    assert_eq!(report(&jsonl), report(&pbin));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_expands_a_directory_of_mixed_formats() {
    let dir = fixture_dir("directory");
    let jsonl = dir.join("chunks.jsonl");
    let pbin = dir.join("twin.pbin");
    convert(&jsonl, &pbin);
    std::fs::write(dir.join("notes.txt"), "not a chunk file").unwrap();
    let out = perfplay(&["analyze".as_ref(), &dir]);
    assert_eq!(status(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    let files: Vec<&str> = text
        .lines()
        .filter(|line| line.contains(" events, "))
        .collect();
    assert_eq!(files.len(), 2, "{text}");
    assert!(files[0].starts_with(&format!("{}: ", jsonl.display())));
    assert!(files[1].starts_with(&format!("{}: ", pbin.display())));
    // The directory means exactly its chunk files, sorted.
    let explicit = perfplay(&["analyze".as_ref(), &jsonl, &pbin]);
    assert_eq!(text, stdout(&explicit));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_accepts_a_clean_file() {
    let dir = fixture_dir("lint-clean");
    let out = perfplay(&["lint".as_ref(), &dir.join("chunks.jsonl")]);
    assert_eq!(status(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("0 error(s)"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_rejects_a_file_without_its_trailer() {
    let dir = fixture_dir("lint-trailer");
    let text = std::fs::read_to_string(dir.join("chunks.jsonl")).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop();
    let cut = dir.join("cut.jsonl");
    std::fs::write(&cut, lines.join("\n") + "\n").unwrap();
    let out = perfplay(&["lint".as_ref(), &cut, "--json".as_ref()]);
    assert_eq!(status(&out), 1);
    assert!(stdout(&out).contains("\"L006\""), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip inside a PBIN frame is a frame CRC mismatch: L007
/// (`RecordParse`), the cause. The other codes it drags along, such as L002
/// (`NonContiguousSpan`) for the chunk that went missing, are effects.
#[test]
fn a_flipped_pbin_byte_fails_lint_with_record_parse_and_fails_analyze() {
    let dir = fixture_dir("flip");
    let pbin = dir.join("chunks.pbin");
    let flipped = dir.join("flipped.pbin");
    convert(&dir.join("chunks.jsonl"), &pbin);
    flip_middle_byte(&pbin, &flipped);

    let out = perfplay(&["lint".as_ref(), &flipped, "--json".as_ref()]);
    assert_eq!(status(&out), 1);
    let json = stdout(&out);
    assert!(json.contains("\"L007\""), "{json}");
    assert!(json.contains("CRC"), "{json}");

    let out = perfplay(&["analyze".as_ref(), &flipped]);
    assert_eq!(status(&out), 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&flipped.display().to_string()), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed command line whose input is wrong is a failure, not a
/// usage error.
#[test]
fn a_directory_without_chunk_files_fails() {
    let dir = fixture_dir("empty-dir");
    let empty = dir.join("empty");
    std::fs::create_dir(&empty).unwrap();
    std::fs::write(empty.join("notes.txt"), "not a chunk file").unwrap();
    for command in ["lint", "analyze"] {
        let out = perfplay(&[command.as_ref(), &empty]);
        assert_eq!(status(&out), 1, "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no *.jsonl or *.pbin"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let dir = fixture_dir("usage");
    let file = dir.join("chunks.jsonl");
    let before = std::fs::read(&file).unwrap();
    for args in [
        vec!["lint".as_ref(), file.as_path(), "--verbose".as_ref()],
        vec!["analyze".as_ref(), file.as_path(), "--json".as_ref()],
        vec!["convert".as_ref(), file.as_path()],
        vec!["convert".as_ref(), file.as_path(), file.as_path()],
        vec!["detect".as_ref(), file.as_path()],
        vec![],
    ] {
        let out = perfplay(&args);
        assert_eq!(status(&out), 2, "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: perfplay"));
    }
    assert_eq!(before, std::fs::read(&file).unwrap(), "a usage error wrote");
    let _ = std::fs::remove_dir_all(&dir);
}
