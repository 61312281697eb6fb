//! `perfplay` — what users do with chunk files, from the command line.
//!
//! ```text
//! perfplay convert SRC DST        translate a chunk file between formats
//! perfplay lint PATH... [--json]  lint chunk files without running detection
//! perfplay analyze PATH...        detect ULCPs and rank fixes, fused over the files
//! ```
//!
//! `convert` reads SRC's format from its magic bytes and picks DST's from
//! its extension (`.pbin` is binary, anything else JSON-lines). A PATH is a
//! chunk file or a directory; a directory stands for every `*.jsonl` and
//! `*.pbin` file inside it, sorted. `lint --json` prints each file's report
//! as one JSON document, in path order.
//!
//! Commands and flags are UTF-8; SRC, DST and PATH are paths and may be any
//! bytes the platform allows.
//!
//! Exit status: 0 on success, 1 when an input fails (a file cannot be read,
//! converted or analyzed, lints with errors, or a directory holds no chunk
//! file), 2 on a usage error: a malformed command line.

#![forbid(unsafe_code)]

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfplay::prelude::{
    analyze_chunk_files, convert_chunk_file, lint_chunk_file, LintConfig, PipelineConfig,
    RecoveryPolicy, Time,
};

const USAGE: &str = "usage: perfplay convert SRC DST
       perfplay lint PATH... [--json]
       perfplay analyze PATH...";

/// Ranked recommendations `analyze` prints.
const TOP_RECOMMENDATIONS: usize = 10;

/// Why a command did not succeed; each variant is one exit status.
enum Stop {
    /// A file could not be read, converted or analyzed, or linted with
    /// errors, or a directory held no chunk file: exit 1.
    Failed(String),
    /// The command line is wrong: exit 2.
    Usage(String),
}

fn main() -> ExitCode {
    let args: Vec<OsString> = std::env::args_os().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Failed(message)) => {
            eprintln!("perfplay: {message}");
            ExitCode::from(1)
        }
        Err(Stop::Usage(message)) => {
            eprintln!("perfplay: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[OsString]) -> Result<(), Stop> {
    let Some((command, rest)) = args.split_first() else {
        return Err(Stop::Usage("no command given".into()));
    };
    let Some(command) = command.to_str() else {
        return Err(Stop::Usage(format!(
            "unknown command `{}`",
            command.to_string_lossy()
        )));
    };
    let mut json = false;
    let mut operands = Vec::new();
    for arg in rest {
        // A lossy copy keeps a leading `--`, so a flag that is not UTF-8
        // is still recognized as a flag, and rejected.
        let text = arg.to_string_lossy();
        if !text.starts_with("--") {
            operands.push(Path::new(arg));
        } else if text == "--json" && command == "lint" {
            json = true;
        } else {
            return Err(Stop::Usage(format!(
                "unknown flag `{text}` for `{command}`"
            )));
        }
    }
    match (command, operands.as_slice()) {
        ("convert", [src, dst]) => convert(src, dst),
        ("convert", _) => Err(Stop::Usage("`convert` takes exactly SRC and DST".into())),
        ("lint" | "analyze", []) => Err(Stop::Usage(format!("`{command}` needs a PATH"))),
        ("lint", paths) => lint(&chunk_files(paths)?, json),
        ("analyze", paths) => analyze(&chunk_files(paths)?),
        (other, _) => Err(Stop::Usage(format!("unknown command `{other}`"))),
    }
}

/// Expands the PATH operands: a directory stands for every `*.jsonl` and
/// `*.pbin` file inside it, sorted; anything else is taken as a chunk file.
fn chunk_files(paths: &[&Path]) -> Result<Vec<PathBuf>, Stop> {
    let mut files = Vec::new();
    for &path in paths {
        if !path.is_dir() {
            files.push(path.to_path_buf());
            continue;
        }
        let entries = std::fs::read_dir(path)
            .map_err(|e| Stop::Failed(format!("cannot read {}: {e}", path.display())))?;
        let mut found: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "jsonl" || e == "pbin"))
            .collect();
        if found.is_empty() {
            return Err(Stop::Failed(format!(
                "no *.jsonl or *.pbin chunk files in {}",
                path.display()
            )));
        }
        found.sort();
        files.append(&mut found);
    }
    Ok(files)
}

fn convert(src: &Path, dst: &Path) -> Result<(), Stop> {
    // Creating DST truncates it: converting a file onto itself would
    // destroy the source before it is read.
    let same_file = match (std::fs::canonicalize(src), std::fs::canonicalize(dst)) {
        (Ok(src), Ok(dst)) => src == dst,
        _ => false,
    };
    if same_file {
        return Err(Stop::Usage(format!(
            "SRC and DST are the same file: {}",
            src.display()
        )));
    }
    let summary = convert_chunk_file(src, dst, None)
        .map_err(|e| Stop::Failed(format!("converting {} failed: {e}", src.display())))?;
    println!(
        "{} ({}) -> {} ({}): {} records, {} chunks, {} events, {} -> {} bytes",
        src.display(),
        summary.from.name(),
        dst.display(),
        summary.to.name(),
        summary.records,
        summary.chunks,
        summary.events,
        summary.bytes_in,
        summary.bytes_out
    );
    Ok(())
}

fn lint(files: &[PathBuf], json: bool) -> Result<(), Stop> {
    let mut failing = 0;
    for path in files {
        let report = lint_chunk_file(path, &LintConfig::default());
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}:\n{}", path.display(), report.render_human());
        }
        if report.errors() > 0 {
            failing += 1;
        }
    }
    match failing {
        0 => Ok(()),
        n => Err(Stop::Failed(format!(
            "{n} of {} file(s) lint with errors",
            files.len()
        ))),
    }
}

/// Detection only, fused over every file: the sweep loads each file and
/// detects it with the per-lock fan-out, one thread per core (the default
/// `parallel`), under the library's default recovery policy.
fn analyze(files: &[PathBuf]) -> Result<(), Stop> {
    let sweep = analyze_chunk_files(files, &PipelineConfig::default(), RecoveryPolicy::default());
    for stream in &sweep.per_stream {
        let stats = &stream.stats;
        println!(
            "{}: {} events, {} sections, {} gap(s), {} event(s) lost",
            stream.path, stats.events, stats.sections, stats.gaps, stats.events_lost
        );
    }
    let b = &sweep.fused_breakdown;
    println!(
        "ULCPs: {} total (NL {}, RR {}, DW {}, Benign {}); TLCP edges: {}; lock acquisitions: {}",
        b.total_ulcps(),
        b.null_lock,
        b.read_read,
        b.disjoint_write,
        b.benign,
        b.tlcp_edges,
        b.lock_acquisitions
    );
    println!(
        "ranking: no replay ran, so gains are the detection-time BodyOverlapGain proxy, \
         not Equation 1"
    );
    println!("recommendations ({} groups):", sweep.recommendations.len());
    for (rank, rec) in sweep
        .recommendations
        .iter()
        .take(TOP_RECOMMENDATIONS)
        .enumerate()
    {
        println!(
            "  #{:<2} P={:>5.1}%  gain={:<12} pairs={:<6} {} <-> {}",
            rank + 1,
            rec.opportunity * 100.0,
            Time::from_nanos(rec.group.gain_ns).to_string(),
            rec.group.dynamic_pairs,
            rec.group.region_first,
            rec.group.region_second
        );
    }
    for failure in &sweep.failures {
        eprintln!(
            "{}: {}",
            files[failure.trace_index].display(),
            failure.error
        );
    }
    match sweep.failures.len() {
        0 => Ok(()),
        n => Err(Stop::Failed(format!(
            "{n} of {} file(s) failed",
            files.len()
        ))),
    }
}
