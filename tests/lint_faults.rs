//! Static-lint fault suite: every injected fault kind must surface as the
//! documented diagnostic codes ([`codes_for_fault`]) at a usable location,
//! in both chunk-file formats, and clean generated traces must lint clean
//! across workload shapes and chunkings.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay::{PerfPlay, PerfPlayConfig, PerfPlayError};
use perfplay_trace::Trace;

fn record(seed: u64, gen: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, gen);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Shared clean corpus: one recorded trace spilled to a chunk file in each
/// format.
struct Corpus {
    trace: Trace,
    path: PathBuf,
    /// The same trace as PBIN. It is spilled once, here: `check_fault` runs
    /// concurrently from several tests, and a spill per call would race on
    /// the temp path.
    pbin: PathBuf,
    chunks: u64,
    lines: usize,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let trace = record(
            13,
            &GeneratorConfig {
                threads: 4,
                locks: 2,
                objects: 5,
                sections_per_thread: 9,
            },
        );
        let path =
            std::env::temp_dir().join(format!("perfplay-lint-clean-{}.jsonl", std::process::id()));
        let summary = spill_trace(&trace, &path, 24).unwrap();
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(summary.chunks >= 4, "corpus needs several chunks");
        let pbin = path.with_extension("pbin");
        spill_trace(&trace, &pbin, 24).unwrap();
        assert_eq!(ChunkFormat::detect(&pbin), Ok(ChunkFormat::Pbin));
        Corpus {
            trace,
            path,
            pbin,
            chunks: summary.chunks,
            lines,
        }
    })
}

/// The two clean spills with the layer name each one's reports go under.
fn clean_files(corpus: &Corpus) -> [(&'static str, &Path); 2] {
    [("file", &corpus.path), ("pbin file", &corpus.pbin)]
}

/// A temp path that no other call in this process gets, with `clean`'s
/// extension. The fixed-seed test and the proptest run concurrently and can
/// draw the same `(kind, seed)`.
fn unique_faulty_path(kind: FaultKind, seed: u64, clean: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let ext = clean.extension().expect("corpus files have an extension");
    std::env::temp_dir()
        .join(format!(
            "perfplay-lint-{}-{seed}-{}-{n}",
            kind.name(),
            std::process::id()
        ))
        .with_extension(ext)
}

fn stream_expectations(trace: &Trace) -> LintConfig {
    LintConfig {
        expected_events: Some(trace.num_events() as u64),
        expected_grants: Some(trace.lock_schedule.len() as u64),
        ..LintConfig::default()
    }
}

/// Asserts `report` honours `kind`'s contract for the given layer.
fn assert_contract(
    kind: FaultKind,
    seed: u64,
    layer: &str,
    must: &[DiagnosticCode],
    may_be_clean: bool,
    report: &LintReport,
) {
    let found: Vec<DiagnosticCode> = report.diagnostics.iter().map(|d| d.code).collect();
    for code in must {
        assert!(
            found.contains(code),
            "{kind:?} seed {seed} ({layer}): {code:?} missing; got {found:?}\n{}",
            report.render_human()
        );
    }
    if !may_be_clean {
        assert!(
            !report.is_clean(),
            "{kind:?} seed {seed} ({layer}): fault left the artifact lint-clean"
        );
    }
    // Every finding is located: either file coordinates or stream
    // coordinates (chunk / event index / thread), never fully anonymous —
    // except the end-of-stream reconciliation codes, which are whole-stream
    // findings.
    for d in &report.diagnostics {
        let whole_stream = matches!(
            d.code,
            DiagnosticCode::CountMismatch
                | DiagnosticCode::UnreleasedLock
                | DiagnosticCode::TraceLockOrderCycle
        );
        assert!(
            whole_stream
                || d.location.path.is_some()
                || d.location.chunk.is_some()
                || d.location.thread.is_some(),
            "{kind:?} seed {seed} ({layer}): unlocated diagnostic {d}"
        );
    }
}

fn check_fault(kind: FaultKind, seed: u64) {
    let corpus = corpus();
    let expectation = codes_for_fault(kind);
    for (layer, clean) in clean_files(corpus) {
        let faulty = unique_faulty_path(kind, seed, clean);
        corrupt_chunk_file(clean, &faulty, kind, seed).unwrap();
        let report = lint_chunk_file(&faulty, &LintConfig::default());
        assert_contract(
            kind,
            seed,
            layer,
            expectation.file_must,
            expectation.file_may_be_clean,
            &report,
        );
        let _ = std::fs::remove_file(&faulty);
    }

    if kind.stream_applicable() {
        let plan = FaultPlan::seeded(seed, kind, corpus.chunks);
        let reader = ChunkFileReader::open(&corpus.path).unwrap();
        let mut source = FaultInjector::new(reader, plan);
        let report = lint_source(&mut source, &stream_expectations(&corpus.trace));
        assert_contract(
            kind,
            seed,
            "stream",
            expectation.stream_must,
            expectation.stream_may_be_clean,
            &report,
        );
    }
}

#[test]
fn clean_chunk_file_lints_clean() {
    let corpus = corpus();
    for (layer, clean) in clean_files(corpus) {
        let report = lint_chunk_file(clean, &LintConfig::default());
        assert!(report.is_clean(), "{layer}: {}", report.render_human());
        assert_eq!(report.stats.chunks, corpus.chunks, "{layer}");
        assert_eq!(
            report.stats.events,
            corpus.trace.num_events() as u64,
            "{layer}"
        );
        assert!(report.stats.bytes > 0, "{layer}");
    }
}

/// Two lints of one file print the same JSON, for a clean file and for a
/// bit-flipped one, whose report carries diagnostics.
#[test]
fn file_lint_is_deterministic() {
    let corpus = corpus();
    for (layer, clean) in clean_files(corpus) {
        let faulty = unique_faulty_path(FaultKind::BitFlip, 42, clean);
        corrupt_chunk_file(clean, &faulty, FaultKind::BitFlip, 42).unwrap();
        for path in [clean, faulty.as_path()] {
            let first = lint_chunk_file(path, &LintConfig::default()).to_json();
            let second = lint_chunk_file(path, &LintConfig::default()).to_json();
            assert_eq!(first, second, "{layer}: two lints of one file disagree");
        }
        assert!(!lint_chunk_file(&faulty, &LintConfig::default()).is_clean());
        let _ = std::fs::remove_file(&faulty);
    }
}

#[test]
fn clean_stream_lints_clean_with_expected_totals() {
    let corpus = corpus();
    let mut reader = ChunkFileReader::open(&corpus.path).unwrap();
    let report = lint_source(&mut reader, &stream_expectations(&corpus.trace));
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn every_fault_kind_matches_its_contract_at_fixed_seeds() {
    for kind in FaultKind::ALL {
        for seed in [1u64, 7, 42] {
            check_fault(kind, seed);
        }
    }
}

#[test]
fn trailer_mismatch_is_located_at_the_trailer_line() {
    let corpus = corpus();
    let faulty = std::env::temp_dir().join(format!(
        "perfplay-lint-trailer-loc-{}.jsonl",
        std::process::id()
    ));
    corrupt_chunk_file(&corpus.path, &faulty, FaultKind::TrailerMismatch, 42).unwrap();
    let report = lint_chunk_file(&faulty, &LintConfig::default());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == DiagnosticCode::CountMismatch)
        .expect("L008 fires");
    assert_eq!(d.location.path.as_deref(), Some(faulty.to_str().unwrap()));
    assert_eq!(
        d.location.line,
        Some(corpus.lines),
        "trailer is the last line"
    );
    let _ = std::fs::remove_file(&faulty);
}

#[test]
fn truncated_record_is_located_with_line_and_offset() {
    let corpus = corpus();
    let faulty = std::env::temp_dir().join(format!(
        "perfplay-lint-truncmid-loc-{}.jsonl",
        std::process::id()
    ));
    corrupt_chunk_file(&corpus.path, &faulty, FaultKind::TruncateMidRecord, 7).unwrap();
    let report = lint_chunk_file(&faulty, &LintConfig::default());
    let parse = report
        .diagnostics
        .iter()
        .find(|d| d.code == DiagnosticCode::RecordParse)
        .expect("L007 fires");
    assert!(parse.location.path.is_some());
    let line = parse.location.line.expect("parse failure carries a line");
    assert!(line > 1, "header is never the truncation target");
    assert!(parse.location.offset.is_some());
    let _ = std::fs::remove_file(&faulty);
}

#[test]
fn clean_generated_traces_lint_clean_across_shapes() {
    let shapes = [
        GeneratorConfig {
            threads: 2,
            locks: 1,
            objects: 3,
            sections_per_thread: 5,
        },
        GeneratorConfig {
            threads: 6,
            locks: 4,
            objects: 8,
            sections_per_thread: 7,
        },
        GeneratorConfig {
            threads: 3,
            locks: 3,
            objects: 2,
            sections_per_thread: 12,
        },
    ];
    for (i, shape) in shapes.iter().enumerate() {
        let trace = record(50 + i as u64, shape);
        for chunk_events in [1usize, 16, 4096] {
            let report = lint_trace(&trace, chunk_events);
            let blocking: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(
                blocking.is_empty(),
                "shape {i} chunk_events {chunk_events}: {blocking:?}"
            );
        }
    }
}

#[test]
fn preflight_passes_clean_traces_and_rejects_poisoned_ones() {
    let trace = record(
        21,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 6,
        },
    );
    let config = PipelineConfig {
        preflight: true,
        ..PipelineConfig::default()
    };
    analyze_plan(&trace, &config).expect("clean trace passes preflight");
    // The facade runs the same pipeline and honours the same flag.
    let facade = PerfPlay::with_config(PerfPlayConfig {
        pipeline: config,
        ..PerfPlayConfig::default()
    });
    facade
        .analyze_trace(&trace)
        .expect("clean trace passes the facade's preflight");

    // Regress one timestamp far enough to break per-thread monotonicity:
    // a middle one, and the thread's last, which once held every window
    // of the preflight's stream at time 0.
    assert!(trace.threads[0].events.len() > 2);
    for poisoned_index in [2, trace.threads[0].events.len() - 1] {
        let mut poisoned = trace.clone();
        poisoned.threads[0].events[poisoned_index].at = perfplay_trace::Time::ZERO;
        match analyze_plan(&poisoned, &config) {
            Err(PipelineError::Preflight(diagnostics)) => {
                assert!(diagnostics
                    .iter()
                    .any(|d| d.code == DiagnosticCode::NonMonotonicTime));
            }
            other => {
                panic!("event {poisoned_index}: expected a preflight rejection, got {other:?}")
            }
        }
        match facade.analyze_trace(&poisoned) {
            Err(PerfPlayError::Pipeline(PipelineError::Preflight(diagnostics))) => {
                assert!(diagnostics
                    .iter()
                    .any(|d| d.code == DiagnosticCode::NonMonotonicTime));
            }
            other => panic!(
                "event {poisoned_index}: expected the facade's preflight rejection, got {other:?}"
            ),
        }
        // Without preflight the same input is taken at face value (the lint
        // is strictly opt-in).
        analyze_plan(&poisoned, &PipelineConfig::default()).expect("non-preflight path unchanged");
        PerfPlay::new()
            .analyze_trace(&poisoned)
            .expect("non-preflight facade unchanged");
    }
}

#[test]
fn chunk_file_preflight_quarantines_corrupt_files() {
    let corpus = corpus();
    let faulty = std::env::temp_dir().join(format!(
        "perfplay-lint-preflight-{}.jsonl",
        std::process::id()
    ));
    corrupt_chunk_file(&corpus.path, &faulty, FaultKind::TruncateMidRecord, 42).unwrap();
    let config = PipelineConfig {
        preflight: true,
        ..PipelineConfig::default()
    };
    let sweep = analyze_chunk_files(
        &[corpus.path.clone(), faulty.clone()],
        &config,
        RecoveryPolicy::Fail,
    );
    assert_eq!(sweep.per_stream.len(), 1, "clean file still analyzed");
    assert_eq!(sweep.failures.len(), 1);
    assert_eq!(sweep.failures[0].trace_index, 1);
    match &sweep.failures[0].error {
        PipelineError::Preflight(diagnostics) => {
            assert!(diagnostics
                .iter()
                .any(|d| d.code == DiagnosticCode::RecordParse));
        }
        other => panic!("expected a preflight failure, got {other:?}"),
    }
    let _ = std::fs::remove_file(&faulty);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (kind, seed): the lint report honours the documented contract.
    #[test]
    fn lint_honours_fault_contract(kind_index in 0usize..9, seed in 0u64..1_000_000) {
        check_fault(FaultKind::ALL[kind_index], seed);
    }

    /// Any freshly generated trace lints clean at any chunking.
    #[test]
    fn generated_traces_lint_clean(seed in 0u64..10_000, chunk_events in 1usize..64) {
        let trace = record(seed, &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 5,
        });
        let report = lint_trace(&trace, chunk_events);
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "{errors:?}");
    }
}
