//! Property tests: the streaming detector — at one worker and sharded across
//! several — is bit-identical to both in-memory engines on arbitrary
//! generated workloads, across arbitrary chunk sizes and worker counts, and
//! through the chunked-file spill/re-ingest roundtrip, gaps included.

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_detect::reference_analyze;
use perfplay_trace::{
    read_chunked_trace, ChunkFileReader, ChunkFileRecord, EventSource, RawChunkRecords,
    RecoveryPolicy, StreamError, Trace, TraceChunk, TraceChunks,
};

fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..5, 1usize..4, 2usize..6, 4u32..14).prop_map(
        |(threads, locks, objects, sections_per_thread)| GeneratorConfig {
            threads,
            locks,
            objects,
            sections_per_thread,
        },
    )
}

fn detector_configs() -> impl Strategy<Value = DetectorConfig> {
    (0u32..2, 0usize..4).prop_map(|(ablate, cap)| DetectorConfig {
        use_reversed_replay: ablate == 0,
        max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
        parallel: false,
    })
}

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// The chunk records of a spilled file, read without the contract check.
fn spilled_chunks(path: &std::path::Path) -> Vec<TraceChunk> {
    RawChunkRecords::open(path)
        .unwrap()
        .filter_map(|raw| match raw.record.unwrap() {
            ChunkFileRecord::Chunk(chunk) => Some(chunk),
            _ => None,
        })
        .collect()
}

/// The report the single-pass pipeline assembles from a plan: transform,
/// both replays, and the plan's rows ranked.
fn plan_report(trace: &Trace, plan: &DetectionPlan) -> PerfReport {
    let transformed = Transformer::default().transform_from_plan(trace, plan);
    let original = Replayer::default()
        .replay(trace, ReplaySchedule::elsc())
        .unwrap();
    let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
    PerfReport::from_plan(trace, plan, &transformed, &original, &free)
}

fn assert_analyses_equal(
    label: &str,
    a: &UlcpAnalysis,
    b: &UlcpAnalysis,
) -> Result<(), TestCaseError> {
    prop_assert!(a.sections == b.sections, "{label}: sections differ");
    prop_assert!(a.ulcps == b.ulcps, "{label}: ulcps differ");
    prop_assert!(a.edges == b.edges, "{label}: edges differ");
    prop_assert!(a.breakdown == b.breakdown, "{label}: breakdown differs");
    Ok(())
}

/// The report layer accepts the streaming detection output unchanged: the
/// whole downstream pipeline (transform, both replays, fusion, ranking)
/// produces the identical report from a plan either detector built.
#[test]
fn report_pipeline_accepts_streaming_output_unchanged() {
    let trace = record(
        11,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 10,
        },
    );
    let batch = Detector::default().plan(&trace, BodyOverlapGain);
    let streamed = |workers| {
        let run = ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
            .analyze_trace_with(&trace, 64, PlanAggregator::new(BodyOverlapGain))
            .unwrap();
        DetectionPlan::from_streaming(run).0
    };

    let from_batch = plan_report(&trace, &batch);
    let from_stream = plan_report(&trace, &streamed(1));
    assert_eq!(from_batch.breakdown, from_stream.breakdown);
    assert_eq!(from_batch.recommendations, from_stream.recommendations);
    assert_eq!(from_batch.impact, from_stream.impact);
    assert_eq!(from_batch.render(&trace), from_stream.render(&trace));
    // PerfReport parity extends through the sharded fan-out: same pairs in,
    // same report out.
    let from_parallel = plan_report(&trace, &streamed(3));
    assert_eq!(from_batch, from_parallel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The streaming detector — at one worker and sharded across several —
    /// reproduces the in-memory engine and the naive snapshot-cloning
    /// reference bit-for-bit regardless of chunking.
    #[test]
    fn streaming_is_bit_identical_to_both_engines(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..400,
        workers in prop_oneof![Just(2usize), Just(3), Just(4)],
    ) {
        let trace = record(seed, &gen);
        let batch = Detector::new(config).analyze(&trace);
        let naive = reference_analyze(&trace, config);
        assert_analyses_equal("naive vs batch", &naive, &batch)?;

        let streamed = ParallelStreamingDetector::with_workers(config, 1)
            .analyze_trace(&trace, chunk_events)
            .unwrap();
        assert_analyses_equal("one worker vs batch", &streamed.analysis, &batch)?;

        // The resident-state accounting covers the whole stream.
        prop_assert_eq!(streamed.stats.events, trace.num_events());
        prop_assert_eq!(streamed.stats.sections, batch.sections.len());
        prop_assert!(streamed.stats.peak_chunk_events <= trace.num_events());

        // The sharded fan-out agrees with everything above, at a shard count
        // below, at and beyond #locks.
        let parallel = ParallelStreamingDetector::with_workers(config, workers)
            .analyze_trace(&trace, chunk_events)
            .unwrap();
        assert_analyses_equal("parallel vs batch", &parallel.analysis, &batch)?;
        prop_assert_eq!(parallel.stats.chunks, streamed.stats.chunks);
        prop_assert_eq!(parallel.stats.events, streamed.stats.events);
        prop_assert_eq!(parallel.stats.sections, streamed.stats.sections);
        prop_assert_eq!(
            parallel.stats.peak_chunk_events,
            streamed.stats.peak_chunk_events
        );
    }

    /// Spilling to a chunked trace file and re-ingesting it — either
    /// streamed directly into the detector or reassembled into a trace —
    /// loses nothing.
    #[test]
    fn chunked_file_roundtrip_is_lossless(
        seed in 0u64..5_000,
        gen in generator_config(),
        chunk_events in 1usize..200,
    ) {
        let trace = record(seed, &gen);
        let path = std::env::temp_dir().join(format!(
            "perfplay-eqv-{}-{}.jsonl",
            std::process::id(),
            seed,
        ));
        let summary = spill_trace(&trace, &path, chunk_events).unwrap();
        prop_assert_eq!(summary.events as usize, trace.num_events());

        // Reassembled trace is exactly the original.
        let back = read_chunked_trace(&path).unwrap();
        prop_assert_eq!(&back, &trace);

        // Streaming the detector straight off the file matches the batch
        // engine on the original trace.
        let config = DetectorConfig {
            max_scan_per_thread: Some(3),
            ..DetectorConfig::default()
        };
        let batch = Detector::new(config).analyze(&trace);
        let mut reader = ChunkFileReader::open(&path).unwrap();
        let streamed = ParallelStreamingDetector::with_workers(config, 1)
            .analyze(&mut reader)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_analyses_equal("file stream vs batch", &streamed.analysis, &batch)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The binary spill roundtrip: `Trace -> spill_trace_with_format(pbin) ->
    /// ChunkFileReader -> ParallelStreamingDetector` is bit-identical to the
    /// in-memory batch engine, the reassembled trace is exactly the
    /// original, the JSON spill of the same trace streams to the identical
    /// analysis, and the full report pipeline (transform, both replays,
    /// fusion, ranking) produces the identical [`PerfReport`] from either
    /// side's plan. Both spills carry exactly the chunks of the in-memory
    /// stream at the same chunk size.
    #[test]
    fn pbin_file_roundtrip_is_lossless_and_report_identical(
        seed in 0u64..5_000,
        gen in generator_config(),
        chunk_events in 1usize..200,
    ) {
        let trace = record(seed, &gen);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let pbin = dir.join(format!("perfplay-eqv-{pid}-{seed}.pbin"));
        let json = dir.join(format!("perfplay-eqv-{pid}-{seed}-twin.jsonl"));
        let summary =
            spill_trace_with_format(&trace, &pbin, chunk_events, ChunkFormat::Pbin).unwrap();
        prop_assert_eq!(summary.events as usize, trace.num_events());
        spill_trace(&trace, &json, chunk_events).unwrap();

        // Both files carry exactly the in-memory stream's chunks.
        let mut source = TraceChunks::new(&trace, chunk_events);
        let stream: Vec<TraceChunk> =
            std::iter::from_fn(|| source.next_chunk().unwrap()).collect();
        prop_assert_eq!(&spilled_chunks(&pbin), &stream);
        prop_assert_eq!(&spilled_chunks(&json), &stream);

        // Reassembly is exact.
        let back = read_chunked_trace(&pbin).unwrap();
        prop_assert_eq!(&back, &trace);

        let config = DetectorConfig {
            max_scan_per_thread: Some(3),
            ..DetectorConfig::default()
        };
        let batch = Detector::new(config).analyze(&trace);
        let mut reader = ChunkFileReader::open(&pbin).unwrap();
        prop_assert_eq!(reader.format(), ChunkFormat::Pbin);
        let detector = ParallelStreamingDetector::with_workers(config, 1);
        let streamed = detector.analyze(&mut reader).unwrap();
        assert_analyses_equal("pbin stream vs batch", &streamed.analysis, &batch)?;

        // The JSON twin of the same trace streams to the identical analysis.
        let mut reader = ChunkFileReader::open(&json).unwrap();
        let json_streamed = detector.analyze(&mut reader).unwrap();
        // And the PBIN file streams into the batch engine's plan.
        let mut reader = ChunkFileReader::open(&pbin).unwrap();
        let (stream_plan, _) = DetectionPlan::from_streaming(
            detector
                .analyze_with(&mut reader, PlanAggregator::new(BodyOverlapGain))
                .unwrap(),
        );
        std::fs::remove_file(&pbin).ok();
        std::fs::remove_file(&json).ok();
        assert_analyses_equal(
            "pbin vs json stream",
            &streamed.analysis,
            &json_streamed.analysis,
        )?;

        // Report parity end-to-end.
        let batch_plan = Detector::new(config).plan(&trace, BodyOverlapGain);
        prop_assert_eq!(&stream_plan, &batch_plan);
        prop_assert_eq!(plan_report(&trace, &stream_plan), plan_report(&trace, &batch_plan));
    }
}

/// Gap equivalence: over the *same* corrupted chunk file recovered under
/// `SkipChunk`, the sharded fan-out reproduces the sequential (one-worker)
/// run bit-for-bit — analysis content, gap count and loss accounting all
/// agree, per fault kind and worker count.
#[test]
fn parallel_streaming_matches_sequential_over_gapped_streams() {
    let trace = record(
        23,
        &GeneratorConfig {
            threads: 4,
            locks: 3,
            objects: 5,
            sections_per_thread: 9,
        },
    );
    let clean = std::env::temp_dir().join(format!(
        "perfplay-parallel-gaps-clean-{}.jsonl",
        std::process::id()
    ));
    spill_trace(&trace, &clean, 24).unwrap();

    let config = DetectorConfig {
        max_scan_per_thread: Some(3),
        ..DetectorConfig::default()
    };
    for kind in [FaultKind::DropChunk, FaultKind::TruncateAtBoundary] {
        for seed in [1u64, 7, 42] {
            let dst = std::env::temp_dir().join(format!(
                "perfplay-parallel-gaps-{}-{seed}-{}.jsonl",
                kind.name(),
                std::process::id()
            ));
            corrupt_chunk_file(&clean, &dst, kind, seed).unwrap();

            let mut reader = ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk).unwrap();
            let sequential = ParallelStreamingDetector::with_workers(config, 1)
                .analyze(&mut reader)
                .unwrap();
            assert!(
                sequential.stats.is_gapped(),
                "{kind} seed {seed} must actually lose events"
            );

            for workers in [2usize, 3, 4] {
                let mut reader =
                    ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk).unwrap();
                let parallel = ParallelStreamingDetector::with_workers(config, workers)
                    .analyze(&mut reader)
                    .unwrap();
                assert_eq!(
                    parallel.analysis, sequential.analysis,
                    "{kind} seed {seed} workers {workers}: analysis diverged"
                );
                assert_eq!(parallel.stats.gaps, sequential.stats.gaps);
                assert_eq!(parallel.stats.events_lost, sequential.stats.events_lost);
                assert_eq!(parallel.stats.events, sequential.stats.events);
            }
            std::fs::remove_file(&dst).ok();
        }
    }
    std::fs::remove_file(&clean).ok();
}

/// Spills a small trace to a chunk file and returns its path and lines.
fn spilled_lines(tag: &str) -> (std::path::PathBuf, Vec<String>) {
    let trace = record(
        77,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 6,
        },
    );
    let path = std::env::temp_dir().join(format!(
        "perfplay-truncated-{tag}-{}.jsonl",
        std::process::id()
    ));
    spill_trace(&trace, &path, 16).unwrap();
    let lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert!(lines.len() >= 3, "need header + chunk(s) + trailer");
    (path, lines)
}

/// Drains a reader until end-of-stream or the first error.
fn drain(reader: &mut ChunkFileReader) -> Result<(), StreamError> {
    while reader.next_chunk()?.is_some() {}
    Ok(())
}

/// Regression: a chunk file cut off after a complete chunk record — e.g. a
/// crashed recorder that never wrote its trailer — must surface as a
/// structured `StreamError::Format`, not a panic or a silent short read that
/// would analyze a partial trace as if it were complete.
#[test]
fn truncated_file_without_trailer_is_a_structured_error() {
    let (path, lines) = spilled_lines("no-trailer");
    // Drop the trailer line.
    std::fs::write(&path, format!("{}\n", lines[..lines.len() - 1].join("\n"))).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("missing trailer must be an error");
    assert!(
        matches!(err.root_cause(), StreamError::Format(msg) if msg.contains("trailer")),
        "expected a format error naming the missing trailer, got {err:?}"
    );
    // The error is located: path and line of the failure travel with it.
    assert!(
        matches!(&err, StreamError::At { path: p, .. } if path.to_str().unwrap() == p),
        "expected a located error carrying the file path, got {err:?}"
    );
    assert!(reader.trailer().is_none());

    // The whole-trace reassembly path reports the same structured error.
    let err = read_chunked_trace(&path).expect_err("reassembly must fail too");
    assert!(matches!(err.root_cause(), StreamError::Format(_)));
    std::fs::remove_file(&path).ok();
}

/// Regression: a file cut off *mid-chunk* (a partial final line, the shape a
/// killed process leaves behind) must surface as `StreamError::Parse` with
/// the failing line number — never a panic.
#[test]
fn truncated_file_mid_chunk_is_a_parse_error() {
    let (path, lines) = spilled_lines("mid-chunk");
    // Keep the header intact and cut the second record in half.
    let half = &lines[1][..lines[1].len() / 2];
    std::fs::write(&path, format!("{}\n{half}\n", lines[0])).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("mid-chunk EOF must be an error");
    match &err {
        StreamError::At {
            path: p,
            line,
            offset,
            ..
        } => {
            assert_eq!(p, path.to_str().unwrap());
            assert_eq!(*line, 2, "the cut line is line 2");
            // Line 2 starts right after the header line and its newline.
            assert_eq!(*offset, lines[0].len() as u64 + 1);
        }
        other => panic!("expected a located error, got {other:?}"),
    }
    match err.root_cause() {
        StreamError::Parse { line, .. } => assert_eq!(*line, 2),
        other => panic!("expected a parse error underneath, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Regression: a trailer whose chunk/event counts disagree with what was
/// actually read (a file with a chunk record excised but the trailer intact)
/// is rejected instead of silently under-reporting.
#[test]
fn trailer_count_mismatch_is_a_structured_error() {
    let (path, lines) = spilled_lines("count-mismatch");
    // Drop the *last* chunk record, keeping header + trailer: with no later
    // chunk left to trip the contiguity check, the trailer reconciliation is
    // what must catch the loss.
    let mut kept: Vec<&str> = lines.iter().map(String::as_str).collect();
    kept.remove(kept.len() - 2);
    std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("count mismatch must be an error");
    assert!(
        matches!(err.root_cause(), StreamError::Format(msg) if msg.contains("trailer claims")),
        "expected the trailer-mismatch format error, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// Regression: a chunk record excised from the *middle* of the file is caught
/// before the trailer, by the per-thread span-contiguity check, as a located
/// structured error — never a silent splice.
#[test]
fn missing_middle_chunk_is_a_contiguity_error() {
    let (path, lines) = spilled_lines("missing-middle");
    let mut kept: Vec<&str> = lines.iter().map(String::as_str).collect();
    kept.remove(1);
    std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("missing chunk must be an error");
    assert!(
        matches!(&err, StreamError::At { path: p, .. } if p == path.to_str().unwrap()),
        "expected a located error carrying the file path, got {err:?}"
    );
    assert!(
        matches!(err.root_cause(), StreamError::Format(msg) if msg.contains("non-contiguous")),
        "expected the span-contiguity format error, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}
