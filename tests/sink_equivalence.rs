//! Property tests: all detection engines agree through both sinks when the
//! `max_scan_per_thread` cap truncates sequential searches — including
//! truncations landing exactly on a chunk boundary of the streaming engine —
//! and that the aggregating sink's table equals an independent ordered-map
//! fold of the materialized pairs.

use std::collections::BTreeMap;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_detect::{reference_analyze, EdgeAggregate, SiteAggregate};
use perfplay_trace::{CodeSiteId, SectionId, Trace};

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Runs every engine with a `CollectPairs` and a `SiteAggregator` sink and
/// asserts full agreement: identical pair lists across the batch
/// (sequential and parallel), reference and streaming engines, and one
/// identical aggregate table from all of them.
fn assert_all_engines_agree(
    trace: &Trace,
    config: DetectorConfig,
    chunk_events: usize,
) -> Result<(), TestCaseError> {
    let sequential = Detector::new(config).analyze(trace);
    let parallel = Detector::new(DetectorConfig {
        parallel: true,
        ..config
    })
    .analyze(trace);
    let reference = reference_analyze(trace, config);
    let streamed = StreamingDetector::new(config)
        .analyze_trace(trace, chunk_events)
        .unwrap();

    for other in [&parallel, &reference, &streamed.analysis] {
        prop_assert_eq!(&sequential.ulcps, &other.ulcps);
        prop_assert_eq!(&sequential.edges, &other.edges);
        prop_assert_eq!(&sequential.breakdown, &other.breakdown);
        prop_assert_eq!(&sequential.sections, &other.sections);
    }

    let gain = BodyOverlapGain;
    let batch_agg = Detector::new(config)
        .analyze_with(trace, SiteAggregator::new(gain))
        .sink
        .finish();
    let parallel_agg = Detector::new(DetectorConfig {
        parallel: true,
        ..config
    })
    .analyze_with(trace, SiteAggregator::new(gain))
    .sink
    .finish();
    let streamed_agg = StreamingDetector::new(config)
        .analyze_trace_with(trace, chunk_events, SiteAggregator::new(gain))
        .unwrap()
        .sink
        .finish();
    prop_assert_eq!(&batch_agg, &parallel_agg);
    prop_assert_eq!(&batch_agg, &streamed_agg);
    prop_assert_eq!(batch_agg.total_pairs() as usize, sequential.ulcps.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Single-lock, high-contention workloads with tiny chunks and small
    /// caps: most searches are cut off by the cap, and with chunk sizes this
    /// small many of those cut-offs land exactly on a chunk boundary.
    #[test]
    fn capped_searches_agree_across_engines_and_sinks(
        seed in 0u64..5_000,
        threads in 2usize..5,
        sections_per_thread in 4u32..14,
        cap in 1usize..5,
        chunk_events in 1usize..12,
        ablate in 0u32..2,
    ) {
        let trace = record(seed, &GeneratorConfig {
            threads,
            locks: 1,
            objects: 3,
            sections_per_thread,
        });
        let config = DetectorConfig {
            use_reversed_replay: ablate == 0,
            max_scan_per_thread: Some(cap),
            parallel: false,
        };
        assert_all_engines_agree(&trace, config, chunk_events)?;
    }

    /// Multi-lock workloads under a cap, with chunk sizes around the
    /// section density, so cap exhaustion and lock interleaving both cross
    /// chunk boundaries.
    #[test]
    fn capped_multi_lock_workloads_agree(
        seed in 0u64..5_000,
        cap in 1usize..4,
        chunk_events in 1usize..40,
    ) {
        let trace = record(seed, &GeneratorConfig {
            threads: 3,
            locks: 3,
            objects: 4,
            sections_per_thread: 8,
        });
        let config = DetectorConfig {
            max_scan_per_thread: Some(cap),
            ..DetectorConfig::default()
        };
        assert_all_engines_agree(&trace, config, chunk_events)?;
    }
}

/// Deterministic cap-at-the-boundary regression: a trace whose cap-ending
/// classification is swept across *every* possible chunk boundary placement.
/// The search from thread 0's section classifies exactly `cap` candidates
/// (the second being a TLCP at the cap), so for some chunk size the search's
/// last classification is the final event of a chunk — the historical
/// off-by-one risk the streaming cursor must not trip over.
#[test]
fn scan_cap_truncation_is_exact_at_every_chunk_boundary() {
    let mut b = ProgramBuilder::new("cap-boundary");
    let lock = b.lock("m");
    let x = b.shared("x", 0);
    let site = b.site("capedge.c", "f", 1);
    b.thread("t0", |t| {
        t.locked(lock, site, |cs| {
            cs.read(x);
        });
        t.compute_us(100);
    });
    b.thread("t1", |t| {
        t.compute_us(10);
        t.locked(lock, site, |cs| {
            cs.read(x);
        });
        t.locked(lock, site, |cs| {
            cs.write_add(x, 1);
            cs.read(x);
        });
        t.locked(lock, site, |cs| {
            cs.read(x);
        });
    });
    let trace = Recorder::new(SimConfig::default())
        .record(&b.build())
        .unwrap()
        .trace;
    for cap in 1..=4usize {
        let config = DetectorConfig {
            max_scan_per_thread: Some(cap),
            ..DetectorConfig::default()
        };
        let batch = Detector::new(config).analyze(&trace);
        for chunk_events in 1..=trace.num_events() {
            let streamed = StreamingDetector::new(config)
                .analyze_trace(&trace, chunk_events)
                .unwrap();
            assert_eq!(
                batch.ulcps, streamed.analysis.ulcps,
                "cap {cap}, chunk {chunk_events}"
            );
            assert_eq!(
                batch.edges, streamed.analysis.edges,
                "cap {cap}, chunk {chunk_events}"
            );
            let agg = StreamingDetector::new(config)
                .analyze_trace_with(&trace, chunk_events, SiteAggregator::new(NoGain))
                .unwrap()
                .sink
                .finish();
            assert_eq!(
                agg.total_pairs() as usize,
                batch.ulcps.len(),
                "cap {cap}, chunk {chunk_events}"
            );
        }
    }
}

/// The aggregate table `SiteAggregator<BodyOverlapGain>` must produce for a
/// materialized analysis, computed the obvious way: one ordered-map entry
/// per `(site, site, kind)` and per `(site, site)`, bumped once per pair and
/// edge. Kept here, independent of the sink's own table, as the oracle.
fn oracle_aggregates(analysis: &UlcpAnalysis) -> SiteAggregates {
    let sections = &analysis.sections;
    let site_pair = |a: SectionId, b: SectionId| {
        let (x, y) = (sections[a.index()].site, sections[b.index()].site);
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    };
    let mut pairs: BTreeMap<(CodeSiteId, CodeSiteId, UlcpKind), (u64, u64)> = BTreeMap::new();
    for u in &analysis.ulcps {
        let ctx = SectionCtx {
            first: &sections[u.first.index()],
            second: &sections[u.second.index()],
        };
        let gain = BodyOverlapGain.pair_gain_ns(u, &ctx).max(0) as u64;
        let (a, b) = site_pair(u.first, u.second);
        let cell = pairs.entry((a, b, u.kind)).or_default();
        cell.0 = cell.0.saturating_add(1);
        cell.1 = cell.1.saturating_add(gain);
    }
    let mut edges: BTreeMap<(CodeSiteId, CodeSiteId), u64> = BTreeMap::new();
    for e in &analysis.edges {
        let count = edges.entry(site_pair(e.from, e.to)).or_default();
        *count = count.saturating_add(1);
    }
    SiteAggregates {
        ulcps: pairs
            .into_iter()
            .map(
                |((site_first, site_second, kind), (dynamic_pairs, gain_ns))| SiteAggregate {
                    site_first,
                    site_second,
                    kind,
                    dynamic_pairs,
                    gain_ns,
                },
            )
            .collect(),
        edges: edges
            .into_iter()
            .map(|((site_first, site_second), edges)| EdgeAggregate {
                site_first,
                site_second,
                edges,
            })
            .collect(),
    }
}

/// Runs every engine into a `SiteAggregator` and checks each finished table
/// against the oracle folded from the materialized pair list.
fn assert_aggregator_matches_oracle(
    trace: &Trace,
    config: DetectorConfig,
    chunk_events: usize,
) -> Result<(), TestCaseError> {
    let expected = oracle_aggregates(&Detector::new(config).analyze(trace));
    let sink = || SiteAggregator::new(BodyOverlapGain);
    let parallel = DetectorConfig {
        parallel: true,
        ..config
    };
    let pstream = |workers| {
        ParallelStreamingDetector::with_workers(config, workers)
            .analyze_trace_with(trace, chunk_events, sink())
            .unwrap()
            .sink
    };
    let runs = [
        (
            "sequential",
            Detector::new(config).analyze_with(trace, sink()).sink,
        ),
        (
            "parallel",
            Detector::new(parallel).analyze_with(trace, sink()).sink,
        ),
        (
            "streaming",
            StreamingDetector::new(config)
                .analyze_trace_with(trace, chunk_events, sink())
                .unwrap()
                .sink,
        ),
        ("pstream w=1", pstream(1)),
        ("pstream w=2", pstream(2)),
    ];
    for (engine, aggregator) in runs {
        let actual = aggregator.finish();
        prop_assert!(
            actual == expected,
            "engine {engine}: {actual:?} != {expected:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The hash-table aggregator equals the ordered-map oracle for every
    /// engine, across random shapes, chunk sizes and scan caps.
    #[test]
    fn site_aggregator_matches_btreemap_oracle(
        seed in 0u64..5_000,
        threads in 2usize..5,
        locks in 1usize..4,
        objects in 1usize..6,
        sections_per_thread in 2u32..14,
        cap in 0usize..5,
        chunk_events in 1usize..48,
    ) {
        let trace = record(seed, &GeneratorConfig {
            threads,
            locks,
            objects,
            sections_per_thread,
        });
        let config = DetectorConfig {
            max_scan_per_thread: (cap > 0).then_some(cap),
            ..DetectorConfig::default()
        };
        assert_aggregator_matches_oracle(&trace, config, chunk_events)?;
    }
}

/// `StreamingStats::peak_live_pairs` of a plan run counts aggregate cells,
/// edge rows and the retained edge and benign pairs at every per-chunk (and
/// per-worker-lane) sample; a bare aggregator run counts cells and edge rows
/// only. The values are pinned from the ordered-map implementation of the
/// aggregator, so a resident count that drifts from "one per non-empty
/// `(site, site, kind)` cell plus one per edge row" fails here.
#[test]
fn plan_peak_live_pairs_is_pinned() {
    let trace = record(
        11,
        &GeneratorConfig {
            threads: 6,
            locks: 3,
            objects: 12,
            sections_per_thread: 40,
        },
    );
    let config = DetectorConfig {
        max_scan_per_thread: Some(6),
        ..DetectorConfig::default()
    };
    let sink = || PlanAggregator::new(BodyOverlapGain);
    let streaming = StreamingDetector::new(config)
        .analyze_trace_with(&trace, 64, sink())
        .unwrap()
        .stats
        .peak_live_pairs;
    let pstream = |workers| {
        ParallelStreamingDetector::with_workers(config, workers)
            .analyze_trace_with(&trace, 64, sink())
            .unwrap()
            .stats
            .peak_live_pairs
    };
    let aggregator_only = StreamingDetector::new(config)
        .analyze_trace_with(&trace, 64, SiteAggregator::new(NoGain))
        .unwrap()
        .stats
        .peak_live_pairs;
    assert_eq!(
        (streaming, pstream(1), pstream(2), aggregator_only),
        (449, 738, 738, 203)
    );
}
