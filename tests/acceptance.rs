//! The 12M-event acceptance contract, in one runnable place. Ignored by
//! default: in release it took 17 to 35 s on a 2-vCPU VM. Each run prints
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
//! It then streams the same trace through the streaming engine
//! (`ParallelStreamingDetector`, 262,144 events per chunk, one worker per
//! core) and checks that the streamed detection plan equals the pipeline's.
//! The report is a function of the trace and the plan, so equal plans give
//! the pinned report.

use std::time::Instant;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};

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

    let workers = pipeline.stream_workers().unwrap_or(1);
    let (streamed, seconds) = timed(|| {
        ParallelStreamingDetector::with_workers(pipeline.detector, workers)
            .analyze_with(
                &mut TraceChunks::new(&trace, 262_144),
                PlanAggregator::new(BodyOverlapGain),
            )
            .expect("streamed detection succeeds")
    });
    let (streamed_plan, stats) = DetectionPlan::from_streaming(streamed);
    println!(
        "streamed: {seconds:.1} s on {workers} worker(s), peak_live_sections {} ({:.1}% of \
         sections), peak_history_entries {}",
        stats.peak_live_sections,
        100.0 * stats.peak_live_sections as f64 / stats.sections as f64,
        stats.peak_history_entries
    );
    print_peak_rss("streamed");
    // Not `assert_eq!`, which would print both plans' 2.55M sections.
    assert!(
        streamed_plan == batch_plan,
        "the streamed detection plan differs from the batch plan"
    );
}
