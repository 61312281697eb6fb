//! Golden-fixture conversion test: a checked-in JSON-lines chunk file is
//! converted to the binary format and back, and every hop must carry the
//! identical record stream. The binary twin must also take at most a third
//! of the bytes.
//!
//! The fixture (`tests/fixtures/golden-chunks.jsonl`) is spilled from a
//! seeded recording, so it also pins the recorder and the JSON encoding:
//! if either drifts, the fixture comparison fails before any conversion
//! runs.
//!
//! A second fixture (`tests/fixtures/spill-digests.txt`) pins where spills
//! cut their windows: one line per input, format and chunk size, holding the
//! FNV-1a digest of the spilled file's bytes. The inputs are the Table 1
//! application models at 4 threads, a few generated workloads and hand-built
//! traces with idle threads, grants after the last event and equal
//! timestamps across threads. Every digested spill must also carry the
//! in-memory stream's chunks, and they must honour the chunk contract.
//!
//! Regenerate both deliberately with
//! `PERFPLAY_REGEN_GOLDEN=1 cargo test --test convert_golden`.

use std::path::PathBuf;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, App, GeneratorConfig, InputSize, WorkloadConfig};
use perfplay_trace::{
    ChunkContract, ChunkFileReader, ChunkFileRecord, ChunkFormat, CodeSite, Event, EventSource,
    LockGrant, LockId, RawChunkRecords, ThreadId, Time, Trace, TraceChunk, TraceChunks, TraceMeta,
};

const GOLDEN_SEED: u64 = 23;
const GOLDEN_CHUNK_EVENTS: usize = 16;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-chunks.jsonl")
}

fn golden_trace() -> Trace {
    let gen = GeneratorConfig {
        threads: 2,
        locks: 2,
        objects: 3,
        sections_per_thread: 4,
    };
    let program = random_workload(GOLDEN_SEED, &gen);
    Recorder::new(SimConfig::default())
        .record(&program)
        .expect("seeded recording succeeds")
        .trace
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfplay-golden-{name}-{}", std::process::id()))
}

fn records_of(path: &std::path::Path) -> Vec<ChunkFileRecord> {
    RawChunkRecords::open(path)
        .expect("chunk file opens")
        .map(|raw| raw.record.expect("every record parses"))
        .collect()
}

#[test]
fn converted_golden_fixture_is_event_identical() {
    let golden = golden_path();
    if std::env::var_os("PERFPLAY_REGEN_GOLDEN").is_some() {
        let summary =
            spill_trace(&golden_trace(), &golden, GOLDEN_CHUNK_EVENTS).expect("regen spill");
        eprintln!(
            "regenerated {}: {} chunks, {} events",
            golden.display(),
            summary.chunks,
            summary.events
        );
    }
    assert!(
        golden.is_file(),
        "missing fixture {} — regenerate with PERFPLAY_REGEN_GOLDEN=1",
        golden.display()
    );

    // The fixture pins the recorder: a fresh spill of the seeded trace must
    // decode to exactly the checked-in record stream.
    let fresh = temp_path("fresh").with_extension("jsonl");
    spill_trace(&golden_trace(), &fresh, GOLDEN_CHUNK_EVENTS).expect("spill fresh twin");
    let golden_records = records_of(&golden);
    assert!(
        golden_records.len() >= 5,
        "fixture should hold several chunks, got {} records",
        golden_records.len()
    );
    assert_eq!(
        golden_records,
        records_of(&fresh),
        "seeded recording drifted from the checked-in fixture"
    );
    std::fs::remove_file(&fresh).ok();

    // jsonl -> pbin: same records, same events, much denser.
    let pbin = temp_path("converted").with_extension("pbin");
    let summary =
        convert_chunk_file(&golden, &pbin, Some(ChunkFormat::Pbin)).expect("convert to pbin");
    assert_eq!(summary.from, ChunkFormat::Json);
    assert_eq!(summary.to, ChunkFormat::Pbin);
    assert_eq!(summary.records as usize, golden_records.len());
    assert_eq!(ChunkFormat::detect(&pbin), Ok(ChunkFormat::Pbin));
    assert_eq!(
        golden_records,
        records_of(&pbin),
        "binary conversion altered the record stream"
    );
    // The density target: PBIN bytes per event at most a third of
    // JSON-lines'. Both files carry the same events, so it is the ratio of
    // the file sizes.
    let density_ratio = summary.bytes_out as f64 / summary.bytes_in as f64;
    assert!(
        density_ratio <= 1.0 / 3.0,
        "pbin density ratio {density_ratio:.3} ({} / {} bytes) exceeds 1/3",
        summary.bytes_out,
        summary.bytes_in
    );

    // pbin -> jsonl round trip: byte-identical to the fixture (the JSON
    // encoding is canonical, so record identity implies byte identity).
    let back = temp_path("back").with_extension("jsonl");
    let summary = convert_chunk_file(&pbin, &back, None).expect("convert back to jsonl");
    assert_eq!(summary.from, ChunkFormat::Pbin);
    assert_eq!(summary.to, ChunkFormat::Json);
    let golden_bytes = std::fs::read(&golden).expect("read fixture");
    let back_bytes = std::fs::read(&back).expect("read reconverted file");
    assert_eq!(
        golden_bytes, back_bytes,
        "pbin -> jsonl reconversion is not byte-identical to the fixture"
    );

    // Detection parity: streaming either artifact yields the same analysis.
    let analyze = |path: &std::path::Path| {
        let mut reader = ChunkFileReader::open(path).expect("open for analysis");
        ParallelStreamingDetector::with_workers(DetectorConfig::default(), 1)
            .analyze(&mut reader)
            .expect("clean artifact streams")
    };
    let from_golden = analyze(&golden);
    let from_pbin = analyze(&pbin);
    assert_eq!(from_golden.stats.events, from_pbin.stats.events);
    assert_eq!(
        from_golden.analysis.breakdown, from_pbin.analysis.breakdown,
        "detection diverged between formats"
    );
    std::fs::remove_file(&pbin).ok();
    std::fs::remove_file(&back).ok();
}

/// Every chunk of the in-memory stream over `trace`.
fn stream_chunks(trace: &Trace, chunk_events: usize) -> Vec<TraceChunk> {
    let mut source = TraceChunks::new(trace, chunk_events);
    std::iter::from_fn(|| source.next_chunk().expect("an ordered trace streams")).collect()
}

/// Events per chunk of every digested spill.
const SPILL_CHUNK_SIZES: [usize; 4] = [1, 7, 64, 4_096];

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A hand-built trace. Thread `i` completes one event at each time of
/// `times[i]`, alternately acquiring and releasing lock `i % 2`. Every
/// acquisition is granted at its own time, in time order; `late_grants`
/// appends one more grant per time, each naming thread 0's first event.
fn hand_built(name: &str, times: &[&[u64]], late_grants: &[u64]) -> Trace {
    let meta = TraceMeta {
        program: name.to_string(),
        num_threads: times.len(),
        num_locks: 2,
        ..TraceMeta::default()
    };
    let mut trace = Trace::new(meta, times.len());
    let site = trace.sites.intern(CodeSite::new("hand.c", "section", 1));
    let mut grants = Vec::new();
    for (i, thread_times) in times.iter().enumerate() {
        let lock = LockId::new((i % 2) as u32);
        for (k, &at) in thread_times.iter().enumerate() {
            let at = Time::from_nanos(at);
            if k % 2 == 0 {
                trace.threads[i].push(at, Event::LockAcquire { lock, site });
                grants.push((at, ThreadId::new(i as u32), k, lock));
            } else {
                trace.threads[i].push(at, Event::LockRelease { lock });
            }
        }
    }
    grants.sort_by_key(|&(at, thread, _, _)| (at, thread));
    let late = late_grants
        .iter()
        .map(|&at| (Time::from_nanos(at), ThreadId::new(0), 0, LockId::new(0)));
    trace.lock_schedule = grants
        .into_iter()
        .chain(late)
        .enumerate()
        .map(|(seq, (at, thread, event_index, lock))| LockGrant {
            seq: seq as u64,
            lock,
            thread,
            event_index,
            at,
        })
        .collect();
    trace.total_time = trace
        .threads
        .iter()
        .map(|t| t.finish_time)
        .max()
        .unwrap_or(Time::ZERO);
    trace
}

/// Every digested input, named: `App::ALL` at 4 threads, generated
/// workloads of several shapes, then the hand-built edge cases.
fn spill_inputs() -> Vec<(String, Trace)> {
    let record = |program: &Program| {
        Recorder::new(SimConfig::default())
            .record(program)
            .expect("seeded recording succeeds")
            .trace
    };
    let config = WorkloadConfig::new(4, InputSize::SimSmall);
    let mut inputs: Vec<(String, Trace)> = App::ALL
        .iter()
        .map(|app| (app.name().to_string(), record(&app.build(&config))))
        .collect();
    let shapes = [
        (5, GeneratorConfig::default()),
        (
            11,
            GeneratorConfig {
                threads: 8,
                locks: 1,
                objects: 2,
                sections_per_thread: 12,
            },
        ),
        (
            29,
            GeneratorConfig {
                threads: 2,
                locks: 4,
                objects: 6,
                sections_per_thread: 20,
            },
        ),
    ];
    for (seed, gen) in shapes {
        let name = format!("random-{seed}-t{}-l{}", gen.threads, gen.locks);
        inputs.push((name, record(&random_workload(seed, &gen))));
    }
    let hand = [
        hand_built(
            "idle-threads",
            &[
                &[5, 15, 25, 35, 45, 55, 65, 75],
                &[],
                &[10, 20, 30, 40, 50, 60],
                &[],
            ],
            &[],
        ),
        hand_built(
            "late-grants",
            &[&[1, 2, 3, 4, 5, 6], &[2, 4, 6, 8]],
            &[20, 30, 40],
        ),
        hand_built(
            "equal-times",
            &[
                &[0, 0, 10, 20, 20, 30],
                &[0, 10, 10, 20, 30, 30],
                &[0, 0, 0, 20, 40, 40],
            ],
            &[],
        ),
        hand_built("grants-only", &[&[], &[]], &[7, 9]),
        hand_built("empty", &[&[], &[]], &[]),
    ];
    inputs.extend(hand.into_iter().map(|t| (t.meta.program.clone(), t)));
    inputs
}

/// One `<input>\t<format>\t<chunk events>\t<digest>` line per spill. Each
/// spill must also carry exactly the chunks of the in-memory stream at the
/// same chunk size, and they must honour the chunk contract.
fn spill_digest_lines() -> Vec<String> {
    let path = temp_path("digest");
    let mut lines = Vec::new();
    for (name, trace) in spill_inputs() {
        for format in [ChunkFormat::Json, ChunkFormat::Pbin] {
            for chunk_events in SPILL_CHUNK_SIZES {
                let label = format!("{name} {format} {chunk_events}");
                spill_trace_with_format(&trace, &path, chunk_events, format)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let spilled: Vec<TraceChunk> = records_of(&path)
                    .into_iter()
                    .filter_map(|record| match record {
                        ChunkFileRecord::Chunk(chunk) => Some(chunk),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    spilled,
                    stream_chunks(&trace, chunk_events),
                    "{label}: the spill's chunks differ from the in-memory stream's"
                );
                let mut contract = ChunkContract::new(Some(trace.num_threads()));
                for chunk in &spilled {
                    if let Err(violation) = contract.check(chunk) {
                        panic!("{label}: the spill breaks the chunk contract: {violation}");
                    }
                    contract.admit(chunk);
                }
                let bytes = std::fs::read(&path).expect("read spilled file");
                lines.push(format!(
                    "{name}\t{format}\t{chunk_events}\t{:016x}",
                    fnv1a(&bytes)
                ));
            }
        }
    }
    std::fs::remove_file(&path).ok();
    lines
}

#[test]
fn spills_reproduce_the_recorded_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/spill-digests.txt");
    let actual = spill_digest_lines();
    if std::env::var_os("PERFPLAY_REGEN_GOLDEN").is_some() {
        let header =
            "# Spilled chunk files: input, format, events per chunk, FNV-1a of the bytes.\n";
        std::fs::write(&path, header.to_string() + &actual.join("\n") + "\n")
            .expect("regen spill digests");
        eprintln!("regenerated {}: {} spills", path.display(), actual.len());
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(
        golden.len(),
        (App::ALL.len() + 8) * 2 * SPILL_CHUNK_SIZES.len()
    );
    assert_eq!(actual.len(), golden.len());
    for (line, expected) in actual.iter().zip(&golden) {
        assert_eq!(line, expected);
    }
}
