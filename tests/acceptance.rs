//! The 12M-event acceptance contract, in one runnable place. Ignored by
//! default: in release it took 17 to 35 s on a 2-vCPU VM. Each step prints
//! its time and, where `/proc/self/status` exists, the process's peak
//! resident set (`VmHWM`) so far. Run it with
//!
//! ```sh
//! cargo test --release --test acceptance -- --ignored --nocapture
//! ```
//!
//! It records the seeded 16-thread, 16-lock, 2048-object random workload
//! shaped for 12M events, then runs the single-pass pipeline (`analyze_plan`,
//! scan cap 4) on it, whose ranked report's FNV-1a digest is pinned below.
//! It then spills the same trace to a PBIN chunk file (262,144 events per
//! chunk), checks that `load_trace` over the pipelined reader returns the
//! recorded trace, and checks that the detection plan `analyze_chunk_files`
//! makes of the file equals the pipeline's. The report is a function of the
//! trace and the plan, so equal plans give the pinned report.

use std::time::Instant;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::load_trace;

/// The ranked report digest of the 12M-event workload.
const REPORT_DIGEST: u64 = 0x3240_fbc8_e319_e90a;

/// FNV-1a, one 64-bit word per step.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digest of a ranked recommendation list: every group's code regions
/// (second-region sites tagged with bit 32), fused pair count, accumulated
/// gain and opportunity bits. Equal digests mean identical ranked groups.
fn report_digest(recommendations: &[Recommendation]) -> u64 {
    let mut hash = Fnv::new();
    for rec in recommendations {
        for site in rec.group.region_first.iter() {
            hash.mix(u64::from(site.raw()));
        }
        for site in rec.group.region_second.iter() {
            hash.mix(u64::from(site.raw()) | (1 << 32));
        }
        hash.mix(rec.group.dynamic_pairs as u64);
        hash.mix(rec.group.gain_ns);
        hash.mix(rec.opportunity.to_bits());
    }
    hash.0
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Prints the process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`), where that file exists.
fn print_peak_rss(stage: &str) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    if let Some(peak) = status.lines().find_map(|line| line.strip_prefix("VmHWM:")) {
        println!("{stage}: VmHWM {}", peak.trim());
    }
}

#[test]
#[ignore = "12M events: 17 to 35 s in release"]
fn twelve_million_events_keep_the_pinned_report_digest() {
    let config = GeneratorConfig::for_event_target(16, 16, 2048, 12_000_000);
    let (trace, record_s) = timed(|| {
        Recorder::new(SimConfig::default())
            .record(&random_workload(42, &config))
            .expect("the seeded workload records")
            .trace
    });
    let events = trace.num_events();
    println!("record: {events} events in {record_s:.1} s");
    print_peak_rss("record");
    assert!(events >= 10_000_000, "only {events} events recorded");

    let pipeline = PipelineConfig {
        detector: DetectorConfig {
            max_scan_per_thread: Some(4),
            ..DetectorConfig::default()
        },
        ..PipelineConfig::default()
    };
    // Only the plan outlives the batch run.
    let batch_plan = {
        let (run, seconds) = timed(|| analyze_plan(&trace, &pipeline).expect("analysis succeeds"));
        let digest = report_digest(&run.report.recommendations);
        println!(
            "batch: {seconds:.1} s, digest {digest:016x}, {} sections, {} ULCPs, {} TLCP edges, \
             {} aggregate rows",
            run.plan.sections.len(),
            run.plan.breakdown.total_ulcps(),
            run.plan.breakdown.tlcp_edges,
            run.plan.aggregates.len()
        );
        print_peak_rss("batch");
        assert_eq!(
            digest, REPORT_DIGEST,
            "report digest {digest:016x}, pinned {REPORT_DIGEST:016x}"
        );
        run.plan
    };

    let dir = std::env::temp_dir().join(format!("perfplay-acceptance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    let path = dir.join("twelve-million.pbin");
    let (spilled, seconds) = timed(|| {
        spill_trace_with_format(&trace, &path, 262_144, ChunkFormat::Pbin)
            .expect("the trace spills")
    });
    println!(
        "spill: {seconds:.1} s, {} chunks, {} bytes",
        spilled.chunks, spilled.bytes
    );
    print_peak_rss("spill");

    let (loaded, seconds) = timed(|| {
        let mut reader = PipelinedChunkReader::open(&path).expect("the spill opens");
        let loaded = load_trace(&mut reader).expect("the spill loads");
        Trace {
            sites: reader.sites().clone(),
            ..loaded.trace
        }
    });
    println!("load: {seconds:.1} s, {} events", loaded.num_events());
    print_peak_rss("load");
    // Not `assert_eq!`, which would print both traces' 12M events.
    assert!(
        loaded == trace,
        "the loaded trace differs from the recorded one"
    );
    drop(loaded);

    let workers = pipeline.stream_workers().unwrap_or(1);
    let (sweep, seconds) =
        timed(|| analyze_chunk_files(&[&path], &pipeline, RecoveryPolicy::default()));
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    let stream = &sweep.per_stream[0];
    println!(
        "file: {seconds:.1} s on {workers} thread(s), {} sections, peak_history_entries {}",
        stream.stats.sections, stream.stats.peak_history_entries
    );
    print_peak_rss("file");
    // Not `assert_eq!`, which would print both plans' 2.55M sections.
    assert!(
        stream.plan == batch_plan,
        "the chunk file's detection plan differs from the batch plan"
    );
    std::fs::remove_dir_all(&dir).ok();
}
