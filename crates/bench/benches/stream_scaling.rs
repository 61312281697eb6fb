//! Criterion bench: streaming ingestion cost vs the in-memory detector, the
//! sensitivity of the streaming engine to chunk size, and the cost of the
//! aggregating sink relative to pair materialization.
//!
//! The streaming engine trades a constant per-event overhead (windowing, id
//! assignment at chunk boundaries, pruned-history maintenance) for a
//! resident-state bound that does not grow with the trace; this bench tracks
//! that the overhead stays a small constant factor. The `aggregate` rows run
//! the same stream into a `SiteAggregator` sink — per-pair work becomes a
//! table fold instead of a `Vec` push, with O(code sites) output memory.
//!
//! Set `PERFPLAY_BENCH_FAST=1` for a CI-sized smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfplay::prelude::{BodyOverlapGain, Detector, ParallelStreamingDetector, SiteAggregator};
use perfplay_bench::{detect_bench_config, stream_trace, StreamWorkload};

fn bench_stream_scaling(c: &mut Criterion) {
    let fast = std::env::var_os("PERFPLAY_BENCH_FAST").is_some_and(|v| v != "0");
    let shapes: &[StreamWorkload] = if fast {
        &[StreamWorkload {
            threads: 8,
            locks: 8,
            objects: 64,
            target_events: 20_000,
        }]
    } else {
        &[
            StreamWorkload {
                threads: 8,
                locks: 8,
                objects: 128,
                target_events: 100_000,
            },
            StreamWorkload {
                threads: 16,
                locks: 16,
                objects: 256,
                target_events: 400_000,
            },
            StreamWorkload {
                threads: 32,
                locks: 32,
                objects: 512,
                target_events: 1_600_000,
            },
        ]
    };

    let config = detect_bench_config();
    let mut group = c.benchmark_group("stream_scaling");
    group.sample_size(10);
    for shape in shapes {
        let trace = stream_trace(*shape);
        let label = format!("{}ev", trace.num_events());
        group.bench_with_input(BenchmarkId::new("batch", &label), &trace, |b, t| {
            b.iter(|| Detector::new(config).analyze(t).breakdown)
        });
        for chunk_events in [16_384usize, 262_144] {
            group.bench_with_input(
                BenchmarkId::new(format!("stream_{}k", chunk_events / 1024), &label),
                &trace,
                |b, t| {
                    b.iter(|| {
                        ParallelStreamingDetector::with_workers(config, 1)
                            .analyze_trace(t, chunk_events)
                            .expect("in-memory chunk stream never fails")
                            .analysis
                            .breakdown
                    })
                },
            );
        }
        // A fixed small worker count: tracks the sharded fan-out's overhead
        // against one worker (`stream_256k`) on the same chunk size.
        group.bench_with_input(
            BenchmarkId::new("parallel_256k_w2", &label),
            &trace,
            |b, t| {
                b.iter(|| {
                    ParallelStreamingDetector::with_workers(config, 2)
                        .analyze_trace(t, 262_144)
                        .expect("in-memory chunk stream never fails")
                        .analysis
                        .breakdown
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("aggregate_256k", &label),
            &trace,
            |b, t| {
                b.iter(|| {
                    ParallelStreamingDetector::with_workers(config, 1)
                        .analyze_trace_with(t, 262_144, SiteAggregator::new(BodyOverlapGain))
                        .expect("in-memory chunk stream never fails")
                        .sink
                        .finish()
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stream_scaling);
criterion_main!(benches);
