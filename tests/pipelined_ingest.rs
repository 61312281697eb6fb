//! Pipelined-ingestion equivalence suite: the pipelined chunk reader must be
//! observationally identical to the sequential file path — and both must
//! reproduce in-memory analysis — on clean files, on every cell of the
//! fault-injection chaos matrix, and at every possible truncation point.
//!
//! The pinned invariant: **worker counts and pipelining are performance
//! knobs, never semantic ones.** Every assertion here compares full analysis
//! content (not just counts), the recorded gap list, and the lost-event
//! accounting between `ChunkFileReader` and `PipelinedChunkReader`.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::{
    ChunkFileReader, EventSource, PipelinedChunkReader, RawChunkRecords, RecoveryPolicy,
    StreamError, Trace,
};

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Fail,
    RecoveryPolicy::SkipChunk,
    RecoveryPolicy::SkipStream,
];

/// Decode-pool sizes exercised against the sequential path.
const DECODE_WORKERS: [usize; 3] = [1, 2, 4];

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

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "perfplay-pingest-{tag}-{}.{ext}",
        std::process::id()
    ))
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

/// The shared clean corpus: one recorded trace spilled in both formats.
struct Corpus {
    trace: Trace,
    jsonl: PathBuf,
    pbin: PathBuf,
}

impl Corpus {
    fn files(&self) -> [(&'static str, &Path); 2] {
        [("jsonl", &self.jsonl), ("pbin", &self.pbin)]
    }
}

const CORPUS_CHUNK: usize = 16;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let trace = record(
            23,
            &GeneratorConfig {
                threads: 4,
                locks: 2,
                objects: 5,
                sections_per_thread: 8,
            },
        );
        let jsonl = spill_corpus(&trace, "jsonl");
        let pbin = spill_corpus(&trace, "pbin");
        Corpus { trace, jsonl, pbin }
    })
}

/// Spills the corpus trace in the format `ext` names under one fixed temp
/// path: through a file suffixed with this process's id, renamed into
/// place, so a rerun overwrites the corpus instead of adding one and a
/// concurrent test process never reads a half-written file.
fn spill_corpus(trace: &Trace, ext: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("perfplay-pingest-corpus.{ext}"));
    let partial = temp_path("corpus", ext);
    spill_trace(trace, &partial, CORPUS_CHUNK).unwrap();
    std::fs::rename(&partial, &path).unwrap();
    path
}

/// Full-content description of one finished streaming run: stats, the exact
/// gap list, lost-event total and the complete analysis. Equal strings mean
/// the two runs are observationally identical.
fn describe(
    (analysis, stats): &(UlcpAnalysis, StreamingStats),
    gaps: &[perfplay_trace::StreamGap],
    lost: u64,
) -> String {
    format!(
        "events={} gaps={gaps:?} lost={lost} analysis={analysis:?}",
        stats.events
    )
}

/// Drives the **sequential** file path under `catch_unwind` and reduces the
/// ending to a comparable string.
fn run_sequential(path: &Path, policy: RecoveryPolicy) -> String {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, StreamError> {
        let mut reader = ChunkFileReader::with_policy(path, policy)?;
        let streamed = stream(1, &mut reader)?;
        Ok(describe(&streamed, reader.gaps(), reader.events_lost()))
    }));
    match outcome {
        Err(_) => "panic".to_string(),
        Ok(Ok(s)) => format!("ok {s}"),
        Ok(Err(e)) => format!("error {e}"),
    }
}

/// Drives the **pipelined** file path: `decode_workers` sizes the decode
/// pool and `detect_workers` the streaming detector (`1` matches the
/// sequential path's detector, isolating the reader comparison).
fn run_pipelined(
    path: &Path,
    policy: RecoveryPolicy,
    decode_workers: usize,
    detect_workers: usize,
) -> String {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, StreamError> {
        let mut reader = PipelinedChunkReader::with_options(path, policy, None, decode_workers)?;
        let streamed = stream(detect_workers, &mut reader)?;
        Ok(describe(&streamed, reader.gaps(), reader.events_lost()))
    }));
    match outcome {
        Err(_) => "panic".to_string(),
        Ok(Ok(s)) => format!("ok {s}"),
        Ok(Err(e)) => format!("error {e}"),
    }
}

/// Clean corpus, both formats: the pipelined reader (every decode-pool
/// size, at one and two detection workers) ends exactly like the sequential
/// path, and
/// both reproduce the in-memory parallel analysis.
#[test]
fn pipelined_equals_sequential_equals_in_memory_on_clean_corpus() {
    let corpus = corpus();
    let (in_memory, _) = stream(2, &mut TraceChunks::new(&corpus.trace, CORPUS_CHUNK)).unwrap();
    let in_memory_analysis = format!("{in_memory:?}");
    for (ext, path) in corpus.files() {
        let sequential = run_sequential(path, RecoveryPolicy::Fail);
        assert!(
            sequential.starts_with("ok "),
            "{ext}: clean corpus must analyze ({sequential})"
        );
        assert!(
            sequential.ends_with(&format!("analysis={in_memory_analysis}")),
            "{ext}: sequential file analysis diverged from in-memory"
        );
        for workers in DECODE_WORKERS {
            assert_eq!(
                sequential,
                run_pipelined(path, RecoveryPolicy::Fail, workers, 1),
                "{ext}: pipelined reader ({workers} decode workers) diverged"
            );
            assert_eq!(
                sequential,
                run_pipelined(path, RecoveryPolicy::Fail, workers, 2),
                "{ext}: pipelined reader + parallel detector ({workers} decode workers) diverged"
            );
        }
    }
}

/// The chaos matrix, pipelined: every fault kind realized on disk in both
/// formats, under every recovery policy, must end the pipelined runs —
/// report, gap-report or structured error, gap lists included — exactly
/// like the sequential run. Nothing may panic.
#[test]
fn chaos_matrix_pipelined_matches_sequential_cell_for_cell() {
    let corpus = corpus();
    for (ext, clean) in corpus.files() {
        for kind in FaultKind::ALL {
            for seed in [3u64, 11] {
                let dst = temp_path(&format!("chaos-{}-{seed}", kind.name()), ext);
                let fault = corrupt_chunk_file(clean, &dst, kind, seed).unwrap();
                for policy in POLICIES {
                    let sequential = run_sequential(&dst, policy);
                    assert!(
                        sequential != "panic",
                        "{ext} {kind} seed {seed} under {policy:?} panicked ({fault})"
                    );
                    assert_eq!(
                        sequential,
                        run_pipelined(&dst, policy, 2, 1),
                        "{ext} {kind} seed {seed} under {policy:?}: pipelined reader \
                         diverged from sequential ({fault})"
                    );
                    assert_eq!(
                        sequential,
                        run_pipelined(&dst, policy, 3, 2),
                        "{ext} {kind} seed {seed} under {policy:?}: pipelined reader + \
                         parallel detector diverged from sequential ({fault})"
                    );
                }
                std::fs::remove_file(&dst).ok();
            }
        }
    }
}

/// Single-byte corruption at several interior offsets: under `SkipChunk`
/// both readers recover and record **exactly equal** gap lists and
/// lost-event totals (or both see nothing, if the flip was harmless).
#[test]
fn gap_accounting_is_identical_between_readers() {
    let corpus = corpus();
    for (ext, clean) in corpus.files() {
        let bytes = std::fs::read(clean).unwrap();
        for frac in [3usize, 2] {
            let at = bytes.len() / frac;
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            let dst = temp_path(&format!("gaps-{frac}"), ext);
            std::fs::write(&dst, &bad).unwrap();

            let mut seq = ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk).unwrap();
            let seq_run = stream(1, &mut seq);
            let mut pip =
                PipelinedChunkReader::with_options(&dst, RecoveryPolicy::SkipChunk, None, 2)
                    .unwrap();
            let pip_run = stream(1, &mut pip);

            assert_eq!(
                seq_run.is_ok(),
                pip_run.is_ok(),
                "{ext} flip at {at}: outcomes diverged"
            );
            assert_eq!(
                seq.gaps(),
                pip.gaps(),
                "{ext} flip at {at}: gap lists diverged"
            );
            assert_eq!(
                seq.events_lost(),
                pip.events_lost(),
                "{ext} flip at {at}: lost-event totals diverged"
            );
            if let (Ok((s, _)), Ok((p, _))) = (&seq_run, &pip_run) {
                assert_eq!(
                    format!("{s:?}"),
                    format!("{p:?}"),
                    "{ext} flip at {at}: analyses diverged"
                );
            }
            std::fs::remove_file(&dst).ok();
        }
    }
}

/// Truncation at **every byte** of a small file, both formats: the raw
/// record stream produced by the pipelined framing stage is identical to
/// the sequential scanner's — same ordinals, offsets, extents, payloads and
/// errors at every prefix length.
#[test]
fn truncation_at_every_byte_matches_sequential_framing() {
    let trace = record(
        5,
        &GeneratorConfig {
            threads: 2,
            locks: 1,
            objects: 3,
            sections_per_thread: 3,
        },
    );
    for ext in ["jsonl", "pbin"] {
        let clean = temp_path("trunc-clean", ext);
        spill_trace(&trace, &clean, 8).unwrap();
        let bytes = std::fs::read(&clean).unwrap();
        std::fs::remove_file(&clean).ok();
        let dst = temp_path("trunc", ext);
        for len in 0..=bytes.len() {
            std::fs::write(&dst, &bytes[..len]).unwrap();
            let drain = |records: RawChunkRecords| -> Vec<_> {
                records
                    .map(|r| (r.line, r.offset, r.bytes, r.record))
                    .collect()
            };
            let sequential = drain(RawChunkRecords::open(&dst).unwrap());
            let pipelined = drain(RawChunkRecords::open_pipelined(&dst, None, 2).unwrap());
            assert_eq!(
                sequential, pipelined,
                "{ext}: raw record streams diverged at truncation length {len}"
            );
        }
        std::fs::remove_file(&dst).ok();
    }
}

/// `analyze_chunk_files` with `detector.parallel` set (pipelined reader, one
/// detection worker per core) fuses exactly like the one-worker sweep
/// (`parallel: false`), and quarantines a corrupt file with the identical
/// per-file error.
#[test]
fn chunk_file_batch_is_identical_with_pipelined_streams() {
    let dir = std::env::temp_dir().join(format!("perfplay-pingest-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gen = GeneratorConfig {
        threads: 3,
        locks: 2,
        objects: 4,
        sections_per_thread: 5,
    };
    let mut paths = Vec::new();
    for (i, seed) in [71u64, 72].iter().enumerate() {
        let path = dir.join(format!("batch-{i}.pbin"));
        spill_trace(&record(*seed, &gen), &path, 12).unwrap();
        paths.push(path);
    }
    let pipelined_config = PipelineConfig {
        detector: DetectorConfig {
            parallel: true,
            ..DetectorConfig::default()
        },
        ..PipelineConfig::default()
    };
    let sequential_config = PipelineConfig {
        detector: DetectorConfig {
            parallel: false,
            ..DetectorConfig::default()
        },
        ..PipelineConfig::default()
    };
    let sequential = analyze_chunk_files(&paths, &sequential_config, RecoveryPolicy::Fail);
    let pipelined = analyze_chunk_files(&paths, &pipelined_config, RecoveryPolicy::Fail);
    assert!(sequential.failures.is_empty() && pipelined.failures.is_empty());
    assert_eq!(sequential.fused_aggregates, pipelined.fused_aggregates);
    assert_eq!(sequential.fused_breakdown, pipelined.fused_breakdown);
    assert_eq!(sequential.recommendations, pipelined.recommendations);
    for (s, p) in sequential.per_stream.iter().zip(&pipelined.per_stream) {
        assert_eq!(s.plan, p.plan);
        assert_eq!(s.stats.events, p.stats.events);
    }

    // Quarantine parity: wreck the second file beyond recovery.
    std::fs::write(&paths[1], b"PBIN\x01garbage that is not a frame").unwrap();
    let sequential = analyze_chunk_files(&paths, &sequential_config, RecoveryPolicy::Fail);
    let pipelined = analyze_chunk_files(&paths, &pipelined_config, RecoveryPolicy::Fail);
    assert_eq!(sequential.failures.len(), 1);
    assert_eq!(pipelined.failures.len(), 1);
    assert_eq!(
        sequential.failures[0].trace_index,
        pipelined.failures[0].trace_index
    );
    assert_eq!(
        sequential.failures[0].to_string(),
        pipelined.failures[0].to_string(),
        "quarantine diagnostics must not depend on the read path"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized equivalence: any recorded workload, spilled at any chunk
    /// granularity and re-ingested with any decode-pool size, produces the
    /// same analysis through the pipelined file path, the sequential file
    /// path, and in-memory parallel detection — in both formats.
    #[test]
    fn pipelined_file_equals_sequential_file_equals_in_memory(
        seed in 0u64..500,
        chunk_events in 1usize..40,
        decode_workers in 1usize..5,
        pbin in prop_oneof![Just(false), Just(true)],
    ) {
        let gen = GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 4,
        };
        let trace = record(seed, &gen);
        let ext = if pbin { "pbin" } else { "jsonl" };
        let path = temp_path(&format!("prop-{seed}-{chunk_events}-{decode_workers}"), ext);
        spill_trace(&trace, &path, chunk_events).unwrap();

        let (in_memory, _) = stream(2, &mut TraceChunks::new(&trace, chunk_events)).unwrap();
        let sequential = run_sequential(&path, RecoveryPolicy::Fail);
        let pipelined = run_pipelined(&path, RecoveryPolicy::Fail, decode_workers, 2);
        std::fs::remove_file(&path).ok();

        prop_assert!(sequential.starts_with("ok "), "sequential failed: {sequential}");
        prop_assert_eq!(&sequential, &pipelined);
        let in_memory_analysis = format!("analysis={in_memory:?}");
        prop_assert!(
            sequential.ends_with(&in_memory_analysis),
            "file analysis diverged from in-memory (seed {}, chunk {})",
            seed,
            chunk_events
        );
    }
}
