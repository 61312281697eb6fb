//! Fault-tolerance suite: the chaos no-panic invariant, truncation at every
//! record boundary, and recovery soundness.
//!
//! The pinned invariant: **no corrupted, truncated or perturbed input makes
//! the ingestion pipeline panic** — every run ends in a report, a
//! gap-annotated report, or a structured [`StreamError`], and identical
//! inputs end identically (the fault layer is fully seeded).

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::{
    read_chunked_trace, ChunkFileReader, ChunkFileRecord, ChunkFormat, EventSource,
    RawChunkRecords, RecoveryPolicy, StreamError, Trace, TraceChunk,
};

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Fail,
    RecoveryPolicy::SkipChunk,
    RecoveryPolicy::SkipStream,
];

fn config() -> DetectorConfig {
    DetectorConfig {
        max_scan_per_thread: Some(3),
        ..DetectorConfig::default()
    }
}

fn record(seed: u64, gen: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, gen);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Streams `source` through the streaming detector at `workers` into a
/// collecting sink.
fn stream(
    workers: usize,
    source: &mut impl EventSource,
) -> Result<(UlcpAnalysis, StreamingStats), StreamError> {
    let (run, stats) = ParallelStreamingDetector::with_workers(config(), workers)
        .analyze_with(source, CollectPairs::default())?;
    Ok((run.into(), stats))
}

/// Spills the corpus trace in the format `ext` names under one fixed temp
/// path: through a file suffixed with this process's id, renamed into
/// place, so a rerun overwrites the corpus instead of adding one and a
/// concurrent test process never reads a half-written file.
fn spill_corpus(trace: &Trace, ext: &str) -> PathBuf {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("perfplay-chaos-clean.{ext}"));
    let partial = dir.join(format!("perfplay-chaos-clean-{}.{ext}", std::process::id()));
    spill_trace(trace, &partial, 24).unwrap();
    std::fs::rename(&partial, &path).unwrap();
    path
}

/// The shared clean corpus: one recorded trace spilled to a chunk file in
/// both formats, plus the same chunking in memory so tests know exactly what
/// each record holds.
struct Corpus {
    trace: Trace,
    path: PathBuf,
    pbin_path: PathBuf,
    lines: Vec<String>,
    chunks: Vec<TraceChunk>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let trace = record(
            9,
            &GeneratorConfig {
                threads: 4,
                locks: 2,
                objects: 5,
                sections_per_thread: 9,
            },
        );
        let path = spill_corpus(&trace, "jsonl");
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        // The writer windows by time completion, so learn the actual
        // chunking by reading the clean file back.
        let mut chunks = Vec::new();
        let mut source = ChunkFileReader::open(&path).unwrap();
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks.push(chunk);
        }
        assert_eq!(
            lines.len(),
            chunks.len() + 2,
            "file is header + chunks + trailer"
        );
        assert!(chunks.len() >= 4, "corpus needs several chunks");
        // The binary twin: the same trace, the same chunking, PBIN framing.
        let pbin_path = spill_corpus(&trace, "pbin");
        let mut source = ChunkFileReader::open(&pbin_path).unwrap();
        assert_eq!(source.format(), ChunkFormat::Pbin, "magic autodetection");
        let mut pbin_chunks = Vec::new();
        while let Some(chunk) = source.next_chunk().unwrap() {
            pbin_chunks.push(chunk);
        }
        assert_eq!(
            pbin_chunks, chunks,
            "both formats hold the identical chunk stream"
        );
        Corpus {
            trace,
            path,
            pbin_path,
            lines,
            chunks,
        }
    })
}

/// Ingests one chunk file under `catch_unwind` and reduces the ending to a
/// comparable string: `report …` / `gap-report …` / `error …` / `panic`.
/// Equal strings mean bit-identical analysis content. `workers` is the
/// streaming detector's worker count.
fn run_file(path: &Path, policy: RecoveryPolicy, workers: usize) -> String {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, StreamError> {
        let mut reader = ChunkFileReader::with_policy(path, policy)?;
        let (analysis, stats) = stream(workers, &mut reader)?;
        Ok(format!(
            "events={} gaps={} lost={} ulcps={} edges={} {:?}",
            stats.events,
            stats.gaps,
            stats.events_lost,
            analysis.ulcps.len(),
            analysis.edges.len(),
            analysis.breakdown,
        ))
    }));
    match outcome {
        Err(_) => "panic".to_string(),
        Ok(Ok(s)) if s.contains("gaps=0") => format!("report {s}"),
        Ok(Ok(s)) => format!("gap-report {s}"),
        Ok(Err(e)) => format!("error {e}"),
    }
}

/// The expected outcome of every chaos-matrix cell, keyed
/// `"<format> <fault> <seed> <policy>"`. The fixture was recorded from the
/// sequential streaming engine before it was retired, so it keeps the
/// matrix checkable cell for cell against an independent engine's outcomes.
fn chaos_golden() -> BTreeMap<String, String> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/chaos-matrix-outcomes.txt");
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (cell, outcome) = line.split_once('\t').expect("cell<TAB>outcome");
            (cell.to_string(), outcome.to_string())
        })
        .collect()
}

/// The full chaos matrix: every fault kind realized on disk **in both
/// formats**, ingested under every recovery policy at one and at two
/// workers. Nothing panics, reruns are identical, and every cell — report,
/// gap-report or structured error — ends exactly as the checked-in golden
/// file records it.
///
/// Outcomes are *not* asserted equal across formats: a bit flip lands on
/// different bytes in different encodings, so its detectability legitimately
/// differs. The invariants (no panic, determinism, golden parity) hold for
/// each format independently.
#[test]
fn chaos_matrix_never_panics_and_is_deterministic() {
    let corpus = corpus();
    let golden = chaos_golden();
    assert_eq!(golden.len(), 2 * FaultKind::ALL.len() * 3 * POLICIES.len());
    for (ext, clean) in [("jsonl", &corpus.path), ("pbin", &corpus.pbin_path)] {
        for kind in FaultKind::ALL {
            for seed in [1u64, 7, 42] {
                let dst = std::env::temp_dir().join(format!(
                    "perfplay-chaos-{}-{seed}-{}.{ext}",
                    kind.name(),
                    std::process::id()
                ));
                let fault = corrupt_chunk_file(clean, &dst, kind, seed).unwrap();
                // The fixture names the corrupted file `<path>`.
                let shown = dst.display().to_string();
                let run =
                    |policy, workers| run_file(&dst, policy, workers).replace(&shown, "<path>");
                for policy in POLICIES {
                    let cell = format!("{ext} {} {seed} {policy:?}", kind.name());
                    let expected = &golden[&cell];
                    let first = run(policy, 1);
                    assert!(first != "panic", "{cell} panicked ({fault})");
                    assert_eq!(
                        first,
                        run(policy, 1),
                        "{cell} is nondeterministic ({fault})"
                    );
                    assert_eq!(&first, expected, "{cell} at one worker ({fault})");
                    assert_eq!(&run(policy, 2), expected, "{cell} at two workers ({fault})");
                }
                std::fs::remove_file(&dst).ok();
            }
        }
    }
}

/// The same matrix applied in flight: a seeded [`FaultInjector`] between the
/// file reader and the detector. Nothing panics, reruns are identical.
#[test]
fn in_flight_faults_never_panic_and_are_deterministic() {
    let corpus = corpus();
    for kind in FaultKind::ALL.into_iter().filter(|k| k.stream_applicable()) {
        for seed in [1u64, 7, 42] {
            let plan = FaultPlan::seeded(seed, kind, corpus.chunks.len() as u64);
            let run = || {
                let outcome =
                    std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, StreamError> {
                        let reader = ChunkFileReader::open(&corpus.path)?;
                        let mut source = FaultInjector::new(reader, plan);
                        let (analysis, stats) = stream(1, &mut source)?;
                        Ok((analysis.breakdown, stats.events))
                    }));
                match outcome {
                    Err(_) => "panic".to_string(),
                    Ok(Ok(t)) => format!("ok {t:?}"),
                    Ok(Err(e)) => format!("error {e}"),
                }
            };
            let first = run();
            assert!(first != "panic", "in-flight {kind} seed {seed} panicked");
            assert_eq!(
                first,
                run(),
                "in-flight {kind} seed {seed} nondeterministic"
            );
        }
    }
}

/// The worker counts the recovery-soundness tests run the streaming
/// detector at.
const RECOVERY_WORKERS: [usize; 3] = [1, 2, 4];

/// Asserts that `SkipChunk` recovery from the corrupted file at `path`,
/// whose record of `corpus.chunks[victim]` cannot be read, is detection
/// over the corpus trace with that chunk's events spliced out: the
/// streaming detector's whole analysis at every worker count, and
/// `analyze_chunk_files`' whole `DetectionPlan` — sections with their event
/// indices, edges, benign pairs and aggregate rows — at one thread and at
/// one per core. The gap annotation counts one gap for the unreadable
/// record (size unknown at that point) plus the trailer reconciliation gap
/// carrying the residual: exactly the victim's events.
fn assert_recovery_is_detection_of_the_spliced_trace(path: &Path, victim: usize) {
    let corpus = corpus();
    let victim_chunk = &corpus.chunks[victim];
    let victim_events = victim_chunk.num_events();
    assert!(victim_events > 0, "victim chunk must lose something");

    // The executable spec: the same trace with the victim chunk's events
    // spliced out, analyzed by the in-memory batch engine.
    let mut expected = corpus.trace.clone();
    for span in &victim_chunk.spans {
        expected.threads[span.thread.index()]
            .events
            .drain(span.base_index..span.base_index + span.events.len());
    }
    let batch = Detector::new(config()).analyze(&expected);
    let batch_plan = Detector::new(config()).plan(&expected, BodyOverlapGain);
    let events = corpus.trace.num_events() - victim_events;

    for workers in RECOVERY_WORKERS {
        let mut reader = ChunkFileReader::with_policy(path, RecoveryPolicy::SkipChunk).unwrap();
        let (analysis, stats) = stream(workers, &mut reader).unwrap();
        assert_eq!(
            (stats.gaps, stats.events_lost, stats.events),
            (2, victim_events as u64, events),
            "workers={workers}"
        );
        assert_eq!(analysis, batch, "workers={workers}");
    }
    for parallel in [false, true] {
        let pipeline = PipelineConfig {
            detector: DetectorConfig {
                parallel,
                ..config()
            },
            ..PipelineConfig::default()
        };
        let sweep = analyze_chunk_files(&[path], &pipeline, RecoveryPolicy::SkipChunk);
        assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
        let [stream] = &sweep.per_stream[..] else {
            panic!("parallel {parallel}: {} streams", sweep.per_stream.len());
        };
        let stats = &stream.stats;
        assert_eq!(
            (stats.gaps, stats.events_lost, stats.events),
            (2, victim_events as u64, events),
            "parallel {parallel}"
        );
        // Not `assert_eq!`, which would print both plans whole; the
        // sections come first, so a difference there names its row.
        for (got, want) in stream.plan.sections.iter().zip(&batch_plan.sections) {
            assert_eq!(got, want, "parallel {parallel}");
        }
        assert!(
            stream.plan == batch_plan,
            "parallel {parallel}: the recovered plan differs from the spliced trace's"
        );
    }
}

/// Recovery soundness: `SkipChunk` detection over a stream with one
/// truncated (unparseable) chunk record is detection over the same trace
/// with that chunk's events removed.
#[test]
fn skip_chunk_recovery_matches_detection_with_the_chunk_removed() {
    let corpus = corpus();
    let victim = corpus.chunks.len() / 2;

    // Corrupt the victim's record line beyond parsing (line 0 is the header).
    let mut lines = corpus.lines.clone();
    let cut = lines[victim + 1].len() / 2;
    lines[victim + 1].truncate(cut);
    let path = std::env::temp_dir().join(format!(
        "perfplay-recovery-soundness-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
    assert_recovery_is_detection_of_the_spliced_trace(&path, victim);
    std::fs::remove_file(&path).ok();
}

/// The binary twin of the recovery-soundness test: a payload byte flipped
/// deep inside one chunk frame is rejected by the frame CRC, and `SkipChunk`
/// recovers exactly the trace without that chunk.
#[test]
fn pbin_skip_chunk_recovery_accounts_for_the_exact_loss() {
    let corpus = corpus();
    // Learn the byte extent of every record in the binary twin (extents tile
    // the file: record 1 absorbs the 8-byte prelude).
    let mut extents: Vec<(usize, usize)> = Vec::new();
    for raw in RawChunkRecords::open(&corpus.pbin_path).unwrap() {
        assert!(raw.record.is_ok(), "clean corpus record parses");
        extents.push((raw.offset as usize, raw.bytes as usize));
    }
    assert_eq!(extents.len(), corpus.chunks.len() + 2);

    let victim = corpus.chunks.len() / 2;
    let (start, len) = extents[victim + 1];
    let mut bytes = std::fs::read(&corpus.pbin_path).unwrap();
    bytes[start + len / 2] ^= 0x40;
    let path = std::env::temp_dir().join(format!(
        "perfplay-pbin-recovery-soundness-{}.pbin",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    assert_recovery_is_detection_of_the_spliced_trace(&path, victim);
    std::fs::remove_file(&path).ok();
}

/// Truncation sweep: the file cut at every record boundary and at several
/// byte offsets inside every record. `Fail` rejects every incomplete file
/// with a structured error; the recovery policies analyze exactly the clean
/// prefix and annotate the gap; nothing ever panics.
#[test]
fn truncation_at_every_boundary_is_contained() {
    let corpus = corpus();
    let n = corpus.lines.len();
    let dst = std::env::temp_dir().join(format!(
        "perfplay-truncate-sweep-{}.jsonl",
        std::process::id()
    ));
    for keep in 1..=n {
        let line = corpus.lines[keep - 1].as_bytes();
        // None: clean cut after `keep` whole lines. Some(b): `keep - 1`
        // whole lines plus `b` bytes of the next record, no trailing
        // newline — the shape a killed writer leaves.
        let mut cuts: Vec<Option<usize>> = vec![None];
        for b in [1, line.len() / 2, line.len().saturating_sub(1)] {
            if b > 0 && b < line.len() && cuts.iter().all(|c| *c != Some(b)) {
                cuts.push(Some(b));
            }
        }
        for cut in cuts {
            let mut content: Vec<u8> = Vec::new();
            for full in &corpus.lines[..keep - 1] {
                content.extend_from_slice(full.as_bytes());
                content.push(b'\n');
            }
            match cut {
                None => {
                    content.extend_from_slice(line);
                    content.push(b'\n');
                }
                Some(b) => content.extend_from_slice(&line[..b]),
            }
            std::fs::write(&dst, &content).unwrap();

            let complete = keep == n && cut.is_none();
            let whole_lines = if cut.is_none() { keep } else { keep - 1 };
            // Chunk records fully present: lines 1..=chunks.len().
            let kept_chunks = whole_lines.saturating_sub(1).min(corpus.chunks.len());
            let expected_events: usize = corpus.chunks[..kept_chunks]
                .iter()
                .map(TraceChunk::num_events)
                .sum();

            for policy in POLICIES {
                let out = run_file(&dst, policy, 1);
                assert!(
                    out != "panic",
                    "keep {keep} cut {cut:?} under {policy:?} panicked"
                );
                match policy {
                    RecoveryPolicy::Fail => {
                        if complete {
                            assert!(
                                out.starts_with("report"),
                                "complete file must analyze cleanly, got {out}"
                            );
                        } else {
                            assert!(
                                out.starts_with("error"),
                                "Fail must reject keep {keep} cut {cut:?}, got {out}"
                            );
                        }
                    }
                    _ => {
                        if complete {
                            assert!(out.starts_with("report"), "got {out}");
                        } else if keep == 1 && cut.is_some() {
                            // The header itself is unreadable: a structured
                            // error is the only honest outcome.
                            assert!(out.starts_with("error"), "got {out}");
                        } else {
                            assert!(
                                out.starts_with("gap-report"),
                                "recovery must keep the clean prefix of keep {keep} \
                                 cut {cut:?}, got {out}"
                            );
                            let events = format!("events={expected_events} ");
                            assert!(
                                out.contains(&events),
                                "prefix of keep {keep} cut {cut:?} holds \
                                 {expected_events} events, got {out}"
                            );
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_file(&dst).ok();
}

/// A compact binary corpus for the exhaustive byte-level sweeps below:
/// every single byte offset of this file gets truncated and bit-flipped, so
/// it is recorded deliberately small.
struct SweepCorpus {
    bytes: Vec<u8>,
    /// `(offset, bytes)` extent of each record; the extents tile the file
    /// (record 1 absorbs the 8-byte prelude).
    extents: Vec<(usize, usize)>,
    chunks: Vec<TraceChunk>,
}

fn sweep_corpus() -> &'static SweepCorpus {
    static SWEEP: OnceLock<SweepCorpus> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let trace = record(
            11,
            &GeneratorConfig {
                threads: 2,
                locks: 2,
                objects: 3,
                sections_per_thread: 3,
            },
        );
        let path =
            std::env::temp_dir().join(format!("perfplay-chaos-sweep-{}.pbin", std::process::id()));
        spill_trace(&trace, &path, 16).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut extents = Vec::new();
        let mut chunks = Vec::new();
        for raw in RawChunkRecords::open(&path).unwrap() {
            extents.push((raw.offset as usize, raw.bytes as usize));
            if let Ok(ChunkFileRecord::Chunk(chunk)) = raw.record {
                chunks.push(chunk);
            }
        }
        std::fs::remove_file(&path).ok();
        assert!(chunks.len() >= 3, "sweep corpus needs several chunks");
        let tiled: usize = extents.iter().map(|(_, b)| b).sum();
        assert_eq!(tiled, bytes.len(), "record extents tile the file");
        SweepCorpus {
            bytes,
            extents,
            chunks,
        }
    })
}

/// PBIN truncation sweep at **every byte offset** of the file. `Fail`
/// rejects every incomplete file; the recovery policies analyze exactly the
/// whole records before the cut and annotate the rest as gaps; cuts inside
/// the prelude or header frame fail the open with a structured error;
/// nothing ever panics.
#[test]
fn pbin_truncation_at_every_byte_offset_is_contained() {
    let sweep = sweep_corpus();
    let dst = std::env::temp_dir().join(format!(
        "perfplay-pbin-trunc-sweep-{}.pbin",
        std::process::id()
    ));
    for cut in 0..=sweep.bytes.len() {
        std::fs::write(&dst, &sweep.bytes[..cut]).unwrap();
        let complete = cut == sweep.bytes.len();
        let whole = sweep.extents.iter().filter(|(o, b)| o + b <= cut).count();
        let kept_chunks = whole.saturating_sub(1).min(sweep.chunks.len());
        let expected_events: usize = sweep.chunks[..kept_chunks]
            .iter()
            .map(TraceChunk::num_events)
            .sum();
        for policy in POLICIES {
            let out = run_file(&dst, policy, 1);
            assert!(out != "panic", "cut {cut} under {policy:?} panicked");
            if complete {
                assert!(
                    out.starts_with("report"),
                    "complete file analyzes cleanly under {policy:?}, got {out}"
                );
            } else if matches!(policy, RecoveryPolicy::Fail) {
                assert!(
                    out.starts_with("error"),
                    "Fail must reject cut {cut}, got {out}"
                );
            } else if whole == 0 {
                // The header frame itself is incomplete: no stream exists.
                assert!(
                    out.starts_with("error"),
                    "headerless cut {cut} must error under {policy:?}, got {out}"
                );
            } else {
                assert!(
                    out.starts_with("gap-report"),
                    "recovery must keep the clean prefix at cut {cut} \
                     under {policy:?}, got {out}"
                );
                let events = format!("events={expected_events} ");
                assert!(
                    out.contains(&events),
                    "cut {cut} keeps {expected_events} events, got {out}"
                );
            }
        }
    }
    std::fs::remove_file(&dst).ok();
}

/// PBIN bit-flip sweep: one bit flipped at **every byte offset** of the
/// file. Nothing panics, every outcome is deterministic, and any flip past
/// the header record is *detected* — the frame CRC (or framing resync)
/// turns it into a located error under `Fail` and a gap under `SkipChunk`,
/// never silent corruption and never a stream-ending error mid-recovery.
#[test]
fn pbin_single_bit_flips_are_contained_at_every_byte_offset() {
    let sweep = sweep_corpus();
    let (header_start, header_len) = sweep.extents[0];
    let header_end = header_start + header_len;
    let dst = std::env::temp_dir().join(format!(
        "perfplay-pbin-flip-sweep-{}.pbin",
        std::process::id()
    ));
    for pos in 0..sweep.bytes.len() {
        let mut bytes = sweep.bytes.clone();
        bytes[pos] ^= 1 << (pos % 8);
        std::fs::write(&dst, &bytes).unwrap();
        let skip = run_file(&dst, RecoveryPolicy::SkipChunk, 1);
        assert!(skip != "panic", "flip at {pos} panicked under SkipChunk");
        assert_eq!(
            skip,
            run_file(&dst, RecoveryPolicy::SkipChunk, 1),
            "flip at {pos} is nondeterministic"
        );
        let fail = run_file(&dst, RecoveryPolicy::Fail, 1);
        assert!(fail != "panic", "flip at {pos} panicked under Fail");
        if pos >= header_end {
            assert!(
                skip.starts_with("gap-report"),
                "flip at {pos} must become a gap under SkipChunk, got {skip}"
            );
            assert!(
                fail.starts_with("error"),
                "flip at {pos} must be rejected under Fail, got {fail}"
            );
        }
    }
    std::fs::remove_file(&dst).ok();
}

/// A corrupted member of a multi-file batch is isolated as a structured
/// per-item failure while the clean members analyze and fuse.
#[test]
fn chunk_file_batch_isolates_a_corrupted_member() {
    let corpus = corpus();
    let bad = std::env::temp_dir().join(format!(
        "perfplay-chaos-batch-bad-{}.jsonl",
        std::process::id()
    ));
    corrupt_chunk_file(&corpus.path, &bad, FaultKind::TruncateMidRecord, 7).unwrap();

    let paths = [&corpus.path, &bad];
    let batch = analyze_chunk_files(&paths, &PipelineConfig::default(), RecoveryPolicy::Fail);
    assert_eq!(batch.per_stream.len(), 1, "the clean file analyzes");
    assert_eq!(batch.failures.len(), 1, "the corrupted file fails alone");
    assert_eq!(batch.failures[0].trace_index, 1);
    assert!(!batch.recommendations.is_empty());

    // Under recovery the same corrupted file degrades to a gapped stream
    // instead of failing, and the fused result annotates the loss.
    let recovered = analyze_chunk_files(
        &paths,
        &PipelineConfig::default(),
        RecoveryPolicy::SkipChunk,
    );
    assert!(recovered.failures.is_empty());
    assert_eq!(recovered.per_stream.len(), 2);
    assert!(recovered.total_gaps() > 0);
    std::fs::remove_file(&bad).ok();
}

/// A chunk file with one record that breaks the chunk contract, made from
/// `tests/fixtures/golden-chunks.jsonl` by text edits.
struct ContractProbe {
    path: PathBuf,
    /// 1-based line of the record that breaks the contract.
    line: usize,
    /// Events that record carries.
    events: u64,
}

impl ContractProbe {
    /// Writes the golden file with `edit` applied to its lines; `edit`
    /// returns the 1-based line of the defective record.
    fn new(tag: &str, edit: impl FnOnce(&mut Vec<String>) -> usize) -> Self {
        let golden =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-chunks.jsonl");
        let mut lines: Vec<String> = std::fs::read_to_string(golden)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let line = edit(&mut lines);
        let path = std::env::temp_dir().join(format!(
            "perfplay-contract-{tag}-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let events = RawChunkRecords::open(&path)
            .unwrap()
            .find(|raw| raw.line == line)
            .and_then(|raw| match raw.record {
                Ok(ChunkFileRecord::Chunk(chunk)) => Some(chunk.num_events() as u64),
                _ => None,
            })
            .expect("the defective record is a chunk");
        assert!(events > 0, "the defective chunk carries events");
        ContractProbe { path, line, events }
    }

    fn is_located(&self, error: &StreamError) -> bool {
        matches!(error, StreamError::At { line, .. } if *line == self.line)
    }
}

/// Replaces the one occurrence of `from` in `line`.
fn edit_once(line: &mut String, from: &str, to: &str) {
    assert_eq!(line.matches(from).count(), 1, "{from} occurs once");
    *line = line.replacen(from, to, 1);
}

fn drain(source: &mut impl EventSource) -> Result<Vec<StreamItem>, StreamError> {
    let mut items = Vec::new();
    while let Some(item) = source.next_item()? {
        items.push(item);
    }
    Ok(items)
}

/// Every consumer acts on the probe's record alone: the readers refuse it
/// at its line (`Fail`) or turn it into one gap that loses exactly its
/// events (`SkipChunk`), the detector keeps the file under `SkipChunk` at
/// every worker count, the linter flags L001 on that line, and reading the
/// file back into memory gives a located error instead of a panic.
fn assert_refused_at_its_record(probe: &ContractProbe) {
    for policy in [RecoveryPolicy::Fail, RecoveryPolicy::SkipChunk] {
        let inline = drain(&mut ChunkFileReader::with_policy(&probe.path, policy).unwrap());
        for workers in [1, 2] {
            let mut reader =
                PipelinedChunkReader::with_options(&probe.path, policy, None, workers).unwrap();
            assert_eq!(
                drain(&mut reader),
                inline,
                "{policy:?}, {workers} decode workers"
            );
        }
        match (policy, &inline) {
            (RecoveryPolicy::Fail, Err(error)) => {
                assert!(probe.is_located(error), "{error}");
            }
            (RecoveryPolicy::SkipChunk, Ok(items)) => {
                let gaps: Vec<&StreamGap> = items
                    .iter()
                    .filter_map(|item| match item {
                        StreamItem::Gap(gap) => Some(gap),
                        StreamItem::Chunk(_) => None,
                    })
                    .collect();
                assert_eq!(gaps.len(), 1, "{gaps:?}");
                assert_eq!(
                    (gaps[0].line, gaps[0].events_lost),
                    (probe.line, probe.events)
                );
            }
            (_, other) => panic!(
                "{policy:?} did not act on the record: {:?}",
                other.as_ref().map(Vec::len)
            ),
        }
    }

    for workers in [1, 2] {
        let mut reader =
            PipelinedChunkReader::with_policy(&probe.path, RecoveryPolicy::SkipChunk).unwrap();
        let (_, stats) = stream(workers, &mut reader).unwrap();
        assert_eq!(
            (stats.gaps, stats.events_lost),
            (1, probe.events),
            "{workers} workers"
        );
    }
    for parallel in [false, true] {
        let config = PipelineConfig {
            detector: DetectorConfig {
                parallel,
                ..DetectorConfig::default()
            },
            ..PipelineConfig::default()
        };
        let paths = [&probe.path];
        let kept = analyze_chunk_files(&paths, &config, RecoveryPolicy::SkipChunk);
        assert!(
            kept.failures.is_empty(),
            "parallel {parallel}: {:?}",
            kept.failures
        );
        assert_eq!(
            (kept.total_gaps(), kept.total_events_lost()),
            (1, probe.events),
            "parallel {parallel}"
        );
        let failed = analyze_chunk_files(&paths, &config, RecoveryPolicy::Fail);
        match &failed.failures[..] {
            [BatchItemError {
                error: PipelineError::Stream(error),
                ..
            }] => assert!(probe.is_located(error), "{error}"),
            other => panic!("parallel {parallel}: expected one stream error, got {other:?}"),
        }
    }

    let report = lint_chunk_file(&probe.path, &LintConfig::default());
    assert!(
        report.diagnostics.iter().any(|d| {
            d.code == DiagnosticCode::NonMonotonicTime && d.location.line == Some(probe.line)
        }),
        "{}",
        report.render_human()
    );

    match std::panic::catch_unwind(AssertUnwindSafe(|| read_chunked_trace(&probe.path))) {
        Ok(Err(error)) => assert!(probe.is_located(&error), "{error}"),
        Ok(Ok(_)) => panic!("read a trace whose chunk breaks the contract"),
        Err(_) => panic!("read_chunked_trace panicked"),
    }
    std::fs::remove_file(&probe.path).ok();
}

/// Chunk 1's first event of T0 moved to exactly chunk 0's window end: the
/// window's lower bound is strict, so the event belongs to no chunk.
#[test]
fn an_event_on_the_previous_window_end_is_refused_at_its_record() {
    let probe = ContractProbe::new("boundary", |lines| {
        edit_once(&mut lines[2], r#"{"at":550,"#, r#"{"at":549,"#);
        3
    });
    assert_refused_at_its_record(&probe);
}

/// An empty chunk that ends its window early, then T0 going back in time
/// behind chunk 0's window: the empty chunk cannot lower the bound, so the
/// regression is caught where it happens.
#[test]
fn a_regression_behind_a_lowered_window_is_refused_at_its_record() {
    let probe = ContractProbe::new("lowered-window", |lines| {
        lines.insert(
            2,
            r#"{"Chunk":{"seq":1,"window_end":10,"spans":[],"grants":[]}}"#.to_string(),
        );
        edit_once(&mut lines[3], r#"{"at":550,"#, r#"{"at":530,"#);
        let trailer = lines.len() - 1;
        edit_once(&mut lines[trailer], r#""chunks":4"#, r#""chunks":5"#);
        4
    });
    assert_refused_at_its_record(&probe);
}

/// The corpus file in `ext`'s format with its first chunk record appended
/// after the trailer; returns the path, the appended record's 1-based
/// ordinal and the events it carries.
fn with_a_chunk_after_the_trailer(ext: &str, clean: &Path) -> (PathBuf, usize, u64) {
    let records: Vec<_> = RawChunkRecords::open(clean).unwrap().collect();
    // Record 2 is the first chunk; in PBIN, record 1 absorbs the prelude, so
    // record 2's extent is one whole frame.
    let first_chunk = &records[1];
    let Ok(ChunkFileRecord::Chunk(chunk)) = &first_chunk.record else {
        panic!("record 2 is a chunk");
    };
    let mut bytes = std::fs::read(clean).unwrap();
    let start = first_chunk.offset as usize;
    let copy = bytes[start..start + first_chunk.bytes as usize].to_vec();
    bytes.extend_from_slice(&copy);
    let path = std::env::temp_dir().join(format!(
        "perfplay-after-trailer-{}.{ext}",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    (path, records.len() + 1, chunk.num_events() as u64)
}

/// A chunk record after the trailer is refused like any other bad record,
/// in both formats and through both readers: `Fail` returns an error
/// located at it, and `SkipChunk`/`SkipStream` deliver every chunk before
/// the trailer, then one gap that loses the record's events. Detection
/// keeps the clean file's analysis and accounts for the gap.
#[test]
fn a_record_after_the_trailer_is_refused() {
    let corpus = corpus();
    let clean = Detector::new(config()).analyze(&corpus.trace);
    for (ext, clean_path) in [("jsonl", &corpus.path), ("pbin", &corpus.pbin_path)] {
        let (path, line, events) = with_a_chunk_after_the_trailer(ext, clean_path);
        for policy in POLICIES {
            let inline = drain(&mut ChunkFileReader::with_policy(&path, policy).unwrap());
            for workers in [1, 2] {
                let mut reader =
                    PipelinedChunkReader::with_options(&path, policy, None, workers).unwrap();
                assert_eq!(drain(&mut reader), inline, "{ext} {policy:?} {workers}");
            }
            match (policy, inline) {
                (RecoveryPolicy::Fail, Err(error)) => assert!(
                    matches!(error, StreamError::At { line: at, .. } if at == line),
                    "{ext}: {error}"
                ),
                (RecoveryPolicy::SkipChunk | RecoveryPolicy::SkipStream, Ok(mut items)) => {
                    let Some(StreamItem::Gap(gap)) = items.pop() else {
                        panic!("{ext} {policy:?}: the stream does not end in a gap");
                    };
                    assert_eq!((gap.line, gap.events_lost), (line, events), "{ext}");
                    let chunks: Vec<TraceChunk> = items
                        .into_iter()
                        .map(|item| match item {
                            StreamItem::Chunk(chunk) => chunk,
                            StreamItem::Gap(gap) => panic!("{ext}: a second gap {gap}"),
                        })
                        .collect();
                    assert_eq!(chunks, corpus.chunks, "{ext} {policy:?}");
                }
                (_, other) => panic!(
                    "{ext} {policy:?} let the record through: {:?} items",
                    other.as_ref().map(Vec::len)
                ),
            }
        }
        for workers in [1, 2] {
            let mut reader =
                ChunkFileReader::with_policy(&path, RecoveryPolicy::SkipChunk).unwrap();
            let (analysis, stats) = stream(workers, &mut reader).unwrap();
            assert_eq!(
                (stats.gaps, stats.events_lost),
                (1, events),
                "{ext}, {workers} workers"
            );
            assert_eq!(analysis.ulcps, clean.ulcps, "{ext}");
            assert_eq!(analysis.breakdown, clean.breakdown, "{ext}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Losses add up past `u64::MAX` when a trailer claims that many events
/// (the count is file input) and records follow it: the golden file with
/// its trailer claiming `u64::MAX` events, then its four chunks and its
/// first chunk again, loses `u64::MAX - 42` events at the trailer and 56
/// after it. Both readers, the streaming detector at every worker count and
/// the chunk-file sweep report `u64::MAX` events lost, and no failure.
#[test]
fn an_event_loss_past_u64_max_saturates() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-chunks.jsonl");
    let mut lines: Vec<String> = std::fs::read_to_string(&golden)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 6, "a header, four chunks and a trailer");
    edit_once(
        &mut lines[5],
        "\"events\":42",
        &format!("\"events\":{}", u64::MAX),
    );
    let after_trailer: Vec<String> = lines[1..5].iter().chain(&lines[1..2]).cloned().collect();
    lines.extend(after_trailer);
    let path = std::env::temp_dir().join(format!(
        "perfplay-loss-overflow-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    let policy = RecoveryPolicy::SkipChunk;
    let mut inline = ChunkFileReader::with_policy(&path, policy).unwrap();
    let items = drain(&mut inline).unwrap();
    assert_eq!(inline.events_lost(), u64::MAX);
    let (clean, _) = stream(1, &mut ChunkFileReader::open(&golden).unwrap()).unwrap();
    for workers in [1, 2] {
        let mut reader = PipelinedChunkReader::with_options(&path, policy, None, workers).unwrap();
        assert_eq!(
            drain(&mut reader).unwrap(),
            items,
            "{workers} decode workers"
        );
        assert_eq!(reader.events_lost(), u64::MAX, "{workers} decode workers");

        let (analysis, stats) = stream(
            workers,
            &mut ChunkFileReader::with_policy(&path, policy).unwrap(),
        )
        .unwrap();
        assert_eq!(
            (stats.gaps, stats.events_lost),
            (6, u64::MAX),
            "{workers} workers"
        );
        assert_eq!(analysis.ulcps, clean.ulcps);
        assert_eq!(analysis.breakdown, clean.breakdown);
    }
    let sweep = analyze_chunk_files(&[&path], &PipelineConfig::default(), policy);
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    assert_eq!(sweep.per_stream[0].stats.events_lost, u64::MAX);
    assert_eq!(sweep.total_events_lost(), u64::MAX);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded random corner of the chaos space beyond the fixed matrix:
    /// arbitrary `(seed, fault, policy, format)` cells still never panic.
    #[test]
    fn random_faults_never_panic(
        seed in 0u64..10_000,
        kind_index in 0usize..FaultKind::ALL.len(),
        policy_index in 0usize..3,
        workers in prop_oneof![Just(1usize), Just(2)],
        use_pbin in prop_oneof![Just(false), Just(true)],
    ) {
        let corpus = corpus();
        let kind = FaultKind::ALL[kind_index];
        let (ext, clean) = if use_pbin {
            ("pbin", &corpus.pbin_path)
        } else {
            ("jsonl", &corpus.path)
        };
        let dst = std::env::temp_dir().join(format!(
            "perfplay-chaos-prop-{seed}-{kind_index}-{}.{ext}",
            std::process::id()
        ));
        corrupt_chunk_file(clean, &dst, kind, seed).unwrap();
        let out = run_file(&dst, POLICIES[policy_index], workers);
        std::fs::remove_file(&dst).ok();
        prop_assert!(
            out != "panic",
            "{} {} seed {} under {:?} ({} workers) panicked",
            ext, kind, seed, POLICIES[policy_index], workers
        );
    }
}
