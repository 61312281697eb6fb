//! Golden-fixture conversion test: a checked-in JSON-lines chunk file is
//! converted to the binary format and back, and every hop must carry the
//! identical record stream.
//!
//! The fixture (`tests/fixtures/golden-chunks.jsonl`) is spilled from a
//! seeded recording, so it also pins the recorder and the JSON encoding:
//! if either drifts, the fixture comparison fails before any conversion
//! runs. Regenerate deliberately with
//! `PERFPLAY_REGEN_GOLDEN=1 cargo test --test convert_golden`.

use std::path::PathBuf;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::{ChunkFileReader, ChunkFileRecord, ChunkFormat, RawChunkRecords, Trace};

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
