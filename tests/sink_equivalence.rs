//! Property tests: every engine emits in the canonical order, all detection
//! engines agree through both sinks when the `max_scan_per_thread` cap
//! truncates sequential searches — including truncations landing exactly on
//! a chunk boundary of the streaming engine at one worker and at two — the
//! aggregating sink's table equals an independent ordered-map fold of the
//! materialized pairs under every gain source, and the `PerfPlay` facade's
//! exact report equals the report of that pair-list oracle.
//!
//! `oracle_aggregates` is the repository's one materializing report path: it
//! lives here, in test code, and no library stage reads a pair list.

use std::collections::BTreeMap;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay::{PerfPlay, PerfPlayConfig};
use perfplay_detect::{reference_analyze, CausalEdge, EdgeAggregate, SiteAggregate};
use perfplay_trace::{CodeSiteId, CriticalSection, LockId, SectionId, ThreadId, Trace};

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Streams `trace` in chunks of `chunk_events` through the streaming
/// detector at `workers` into a collecting sink.
fn stream(
    trace: &Trace,
    config: DetectorConfig,
    chunk_events: usize,
    workers: usize,
) -> UlcpAnalysis {
    ParallelStreamingDetector::with_workers(config, workers)
        .analyze_with(
            &mut TraceChunks::new(trace, chunk_events),
            CollectPairs::default(),
        )
        .unwrap()
        .0
        .into()
}

/// Streams `trace` in chunks of `chunk_events` through the streaming
/// detector at `workers` into a plan sink folding `gain`.
fn stream_plan<G: GainSource + Clone + Send + Sync>(
    trace: &Trace,
    config: DetectorConfig,
    chunk_events: usize,
    workers: usize,
    gain: G,
) -> DetectionPlan {
    let run = ParallelStreamingDetector::with_workers(config, workers)
        .analyze_with(
            &mut TraceChunks::new(trace, chunk_events),
            PlanAggregator::new(gain),
        )
        .unwrap();
    DetectionPlan::from_streaming(run).0
}

/// Runs every engine with a `CollectPairs` and a `PlanAggregator` sink and
/// asserts full agreement: identical pair lists across the batch
/// (sequential and parallel), reference and streaming (one and two workers)
/// engines, and one identical plan from all of them.
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
    let (one, two) = (
        stream(trace, config, chunk_events, 1),
        stream(trace, config, chunk_events, 2),
    );

    for other in [&parallel, &reference, &one, &two] {
        prop_assert_eq!(&sequential.ulcps, &other.ulcps);
        prop_assert_eq!(&sequential.edges, &other.edges);
        prop_assert_eq!(&sequential.breakdown, &other.breakdown);
        prop_assert_eq!(&sequential.sections, &other.sections);
    }

    let gain = BodyOverlapGain;
    let batch_plan = Detector::new(config).plan(trace, gain);
    let parallel_plan = Detector::new(DetectorConfig {
        parallel: true,
        ..config
    })
    .plan(trace, gain);
    prop_assert_eq!(&batch_plan, &parallel_plan);
    for workers in [1, 2] {
        let streamed_plan = stream_plan(trace, config, chunk_events, workers, gain);
        prop_assert_eq!(&batch_plan, &streamed_plan);
    }
    prop_assert_eq!(
        batch_plan.aggregates.total_pairs() as usize,
        sequential.ulcps.len()
    );
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
            parallel: false,
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
            for workers in [1, 2] {
                let label = format!("cap {cap}, chunk {chunk_events}, workers {workers}");
                let streamed = stream(&trace, config, chunk_events, workers);
                assert_eq!(batch.ulcps, streamed.ulcps, "{label}");
                assert_eq!(batch.edges, streamed.edges, "{label}");
                let plan = stream_plan(&trace, config, chunk_events, workers, NoGain);
                let pairs = plan.aggregates.total_pairs() as usize;
                assert_eq!(pairs, batch.ulcps.len(), "{label}");
            }
        }
    }
}

/// The aggregate table `PlanAggregator<G>` must produce for a materialized
/// analysis, computed the obvious way: one ordered-map entry per
/// `(site, site, kind)` and per `(site, site)`, bumped once per pair and
/// edge, with each pair's gain clamped at zero. Kept here, independent of the
/// sink's own table, as the oracle.
fn oracle_aggregates<G: GainSource>(analysis: &UlcpAnalysis, gain: &G) -> SiteAggregates {
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
        let gain = gain.pair_gain_ns(u, &ctx).max(0) as u64;
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

/// Runs every engine into a `PlanAggregator` and checks each plan's table
/// against the oracle folded from the materialized pair list.
fn assert_aggregator_matches_oracle<G: GainSource + Clone + Send + Sync>(
    trace: &Trace,
    config: DetectorConfig,
    chunk_events: usize,
    gain: G,
) -> Result<(), TestCaseError> {
    let analysis = Detector::new(config).analyze(trace);
    let expected = oracle_aggregates(&analysis, &gain);
    // The per-kind row totals are exactly the breakdown counts.
    for kind in UlcpKind::ALL {
        let total: u64 = expected
            .ulcps
            .iter()
            .filter(|row| row.kind == kind)
            .map(|row| row.dynamic_pairs)
            .sum();
        prop_assert_eq!(total as usize, analysis.breakdown.count(kind));
    }
    let edge_total: u64 = expected.edges.iter().map(|row| row.edges).sum();
    prop_assert_eq!(edge_total as usize, analysis.breakdown.tlcp_edges);
    let parallel = DetectorConfig {
        parallel: true,
        ..config
    };
    let pstream = |workers| stream_plan(trace, config, chunk_events, workers, gain.clone());
    let plans = [
        (
            "sequential",
            Detector::new(config).plan(trace, gain.clone()),
        ),
        (
            "parallel",
            Detector::new(parallel).plan(trace, gain.clone()),
        ),
        ("pstream w=1", pstream(1)),
        ("pstream w=2", pstream(2)),
    ];
    for (engine, plan) in plans {
        let actual = plan.aggregates;
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
            parallel: false,
            ..DetectorConfig::default()
        };
        assert_aggregator_matches_oracle(&trace, config, chunk_events, BodyOverlapGain)?;
    }

    /// `PlanAggregator` output equals the oracle's ordered-map fold of the
    /// collected pair list — rows, counts, kinds and saturated gains, and
    /// so every fused group — for every engine, workload, detector config
    /// and gain source.
    #[test]
    fn site_aggregator_matches_per_pair_fusion(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        gain_mode in 0u32..4,
    ) {
        let trace = record(seed, &gen);
        match gain_mode {
            0 => assert_aggregator_matches_oracle(&trace, config, 7, NoGain)?,
            1 => assert_aggregator_matches_oracle(&trace, config, 7, BodyOverlapGain)?,
            2 => assert_aggregator_matches_oracle(&trace, config, 7, HugeGain)?,
            _ => assert_aggregator_matches_oracle(&trace, config, 7, PairHashGain)?,
        }
    }
}

/// The canonical emission order of a pair or edge on `lock` from `first` to
/// `second`: the lock, the first section, the second section's thread, the
/// second section.
fn canonical_key(
    sections: &[CriticalSection],
    lock: LockId,
    first: SectionId,
    second: SectionId,
) -> (LockId, SectionId, ThreadId, SectionId) {
    (lock, first, sections[second.index()].thread, second)
}

/// Asserts that `pairs` and `edges` each strictly increase in the canonical
/// order.
fn assert_canonical(
    label: &str,
    sections: &[CriticalSection],
    pairs: &[Ulcp],
    edges: &[CausalEdge],
) -> Result<(), TestCaseError> {
    let pair_keys = pairs
        .iter()
        .map(|u| canonical_key(sections, u.lock, u.first, u.second));
    let edge_keys = edges
        .iter()
        .map(|e| canonical_key(sections, e.lock, e.from, e.to));
    for (list, keys) in [
        ("pairs", pair_keys.collect::<Vec<_>>()),
        ("edges", edge_keys.collect()),
    ] {
        if let Some(w) = keys.windows(2).find(|w| w[0] >= w[1]) {
            prop_assert!(
                false,
                "{label} {list}: {:?} does not precede {:?}",
                w[0],
                w[1]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engines emit in the canonical `(lock, first, second-thread,
    /// second)` order themselves, and no sink re-sorts: the reference's
    /// pairs and edges, `Detector::analyze`'s pairs and edges and
    /// `Detector::plan`'s benign pairs and edges each strictly increase in
    /// it, capped and uncapped, on one worker and fanned out.
    #[test]
    fn engines_emit_in_canonical_order(
        seed in 0u64..5_000,
        gen in generator_config(),
        cap in 0usize..4,
        workers in 2usize..5,
    ) {
        let trace = record(seed, &gen);
        let config = DetectorConfig {
            max_scan_per_thread: (cap > 0).then_some(cap),
            ..DetectorConfig::default()
        };
        let reference = reference_analyze(&trace, config);
        assert_canonical("reference", &reference.sections, &reference.ulcps, &reference.edges)?;
        for workers in [1, workers] {
            let detector = Detector::with_workers(config, workers);
            let analysis = detector.analyze(&trace);
            let label = format!("analyze, {workers} worker(s)");
            assert_canonical(&label, &analysis.sections, &analysis.ulcps, &analysis.edges)?;
            let plan = detector.plan(&trace, NoGain);
            let label = format!("plan, {workers} worker(s)");
            assert_canonical(&label, &plan.sections, &plan.benign, &plan.edges)?;
        }
    }
}

/// A gain source large enough that a handful of pairs saturates the u64
/// accumulators — exercising the saturating-sum equivalence.
#[derive(Clone, Copy)]
struct HugeGain;

impl GainSource for HugeGain {
    fn pair_gain_ns(&self, _: &Ulcp, _: &SectionCtx<'_>) -> i64 {
        i64::MAX
    }
}

/// A gain source that varies per pair (and goes negative, exercising the
/// clamp), so row sums genuinely depend on which pairs fold where.
#[derive(Clone, Copy)]
struct PairHashGain;

impl GainSource for PairHashGain {
    fn pair_gain_ns(&self, ulcp: &Ulcp, _: &SectionCtx<'_>) -> i64 {
        let mix = (ulcp.first.index() as i64 * 31 + ulcp.second.index() as i64 * 7)
            .wrapping_mul(2654435761);
        mix % 10_007 - 1_000
    }
}

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
    (0u32..2, 0usize..4, 0u32..2).prop_map(|(ablate, cap, parallel)| DetectorConfig {
        use_reversed_replay: ablate == 0,
        max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
        parallel: parallel == 1,
    })
}

/// The pair-list report: materialize every pair, transform from the
/// materialized edges and benign pairs, replay both traces, evaluate
/// Equation 1 per pair into the oracle's ordered-map fold, then fuse and
/// rank. Asserts that the facade's replays, breakdown, transformation,
/// recommendations and impact split equal it.
fn assert_facade_matches_oracle(
    trace: &Trace,
    config: PerfPlayConfig,
) -> Result<(), TestCaseError> {
    let facade = PerfPlay::with_config(config).analyze_trace(trace).unwrap();

    let config = config.pipeline;
    let pairs = Detector::new(config.detector).analyze(trace);
    let materialized = DetectionPlan {
        sections: pairs.sections.clone(),
        breakdown: pairs.breakdown,
        edges: pairs.edges.clone(),
        benign: pairs
            .ulcps
            .iter()
            .copied()
            .filter(|u| u.kind == UlcpKind::Benign)
            .collect(),
        aggregates: SiteAggregates::default(),
    };
    let transformed = Transformer::new(config.transform).transform_from_plan(trace, &materialized);
    let original = Replayer::new(config.replay)
        .replay(trace, ReplaySchedule::for_kind(config.original_schedule))
        .unwrap();
    let free = UlcpFreeReplayer::new(config.replay)
        .with_dls(config.use_dls)
        .replay(&transformed)
        .unwrap();
    let table = oracle_aggregates(&pairs, &ReplayGains::new(trace, &original, &free));

    prop_assert_eq!(&facade.original_replay, &original);
    prop_assert_eq!(&facade.ulcp_free_replay, &free);
    prop_assert_eq!(facade.report.breakdown, pairs.breakdown);
    prop_assert_eq!(facade.report.transform_stats, transformed.stats());
    prop_assert_eq!(facade.report.race_warnings, transformed.race_warnings.len());
    prop_assert_eq!(
        &facade.report.recommendations,
        &rank_groups(fuse_aggregates(&table))
    );
    prop_assert_eq!(
        facade.report.impact,
        ImpactSplit::with_total_gain(&original, &free, table.total_gain_ns())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The facade ranks by exact Equation 1 gains without reading a pair
    /// list; its recommendations and impact equal the pair-list oracle's
    /// across random workloads, scan caps, reversed replay, the dynamic
    /// locking strategy and the parallel detector.
    #[test]
    fn facade_report_matches_pair_list_oracle(
        seed in 0u64..5_000,
        gen in generator_config(),
        cap in 0usize..4,
        reversed in 0u32..2,
        dls in 0u32..2,
        parallel in 0u32..2,
    ) {
        let trace = record(seed, &gen);
        let config = PerfPlayConfig {
            pipeline: PipelineConfig {
                detector: DetectorConfig {
                    use_reversed_replay: reversed == 1,
                    max_scan_per_thread: (cap > 0).then_some(cap),
                    parallel: parallel == 1,
                },
                use_dls: dls == 1,
                ..PipelineConfig::default()
            },
            ..PerfPlayConfig::default()
        };
        assert_facade_matches_oracle(&trace, config)?;
    }
}
