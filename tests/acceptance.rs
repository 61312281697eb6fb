//! The 12M-event acceptance contract, in one runnable place. Ignored by
//! default: in release it took 20 to 35 s on a 2-vCPU VM and peaks near
//! 3 GB. Run it with
//!
//! ```sh
//! cargo test --release --test acceptance -- --ignored --nocapture
//! ```
//!
//! It records the seeded 16-thread, 16-lock, 2048-object random workload
//! shaped for 12M events, then runs the single-pass pipeline (`analyze_plan`,
//! scan cap 4) on it twice: with batch detection, and streamed at 262,144
//! events per chunk through one detection worker per core. Both runs must
//! rank the same report, whose FNV-1a digest is pinned below, from the same
//! breakdown.

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

#[test]
#[ignore = "12M events: 20 to 35 s in release, about 3 GB"]
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
    assert!(events >= 10_000_000, "only {events} events recorded");

    let batch_config = PipelineConfig {
        detector: DetectorConfig {
            max_scan_per_thread: Some(4),
            ..DetectorConfig::default()
        },
        ..PipelineConfig::default()
    };
    let streamed_config = PipelineConfig {
        detector: DetectorConfig {
            parallel: true,
            ..batch_config.detector
        },
        chunk_events: Some(262_144),
        ..batch_config
    };

    let mut breakdowns = Vec::new();
    for (name, config) in [("batch", &batch_config), ("streamed", &streamed_config)] {
        let (run, seconds) = timed(|| analyze_plan(&trace, config).expect("analysis succeeds"));
        let digest = report_digest(&run.report.recommendations);
        println!(
            "{name}: {seconds:.1} s, digest {digest:016x}, {} sections, {} ULCPs, {} TLCP edges, \
             {} aggregate rows",
            run.plan.sections.len(),
            run.plan.breakdown.total_ulcps(),
            run.plan.breakdown.tlcp_edges,
            run.plan.aggregates.len()
        );
        if let Some(stats) = &run.streaming {
            println!(
                "{name}: peak_live_sections {} ({:.1}% of sections), peak_history_entries {}",
                stats.peak_live_sections,
                100.0 * stats.peak_live_sections as f64 / stats.sections as f64,
                stats.peak_history_entries
            );
        }
        assert_eq!(
            digest, REPORT_DIGEST,
            "{name}: report digest {digest:016x}, pinned {REPORT_DIGEST:016x}"
        );
        breakdowns.push(run.plan.breakdown);
    }
    assert_eq!(
        breakdowns[0], breakdowns[1],
        "batch and streamed breakdowns differ"
    );
}
