//! Property tests: the scan-time `SiteAggregator` reproduces the report
//! layer's per-pair fusion exactly — group for group, count for count,
//! saturated gain for saturated gain — across random workloads, detector
//! configurations and gain sources, and the aggregate-seeded `PerfReport`
//! path is identical to the materializing one.

use proptest::prelude::*;

use perfplay_detect::{
    BodyOverlapGain, Detector, DetectorConfig, GainSource, NoGain, ParallelStreamingDetector,
    SectionCtx, SiteAggregates, SiteAggregator, Ulcp, UlcpAnalysis, UlcpKind,
};
use perfplay_record::Recorder;
use perfplay_replay::{ReplaySchedule, Replayer, UlcpFreeReplayer};
use perfplay_report::{
    fuse_aggregates, fuse_ulcp_gains, rank_groups, PerfReport, ReplayGains, UlcpGain,
};
use perfplay_sim::SimConfig;
use perfplay_trace::Trace;
use perfplay_transform::Transformer;
use perfplay_workloads::{random_workload, GeneratorConfig};

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
/// clamp), so group sums genuinely depend on which pairs fold where.
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

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Per-pair gains computed by the same source the aggregator uses, streamed
/// into the pair-path fusion.
fn pair_path_groups<G: GainSource>(
    analysis: &UlcpAnalysis,
    gain: &G,
) -> Vec<perfplay_report::GroupedUlcp> {
    fuse_ulcp_gains(
        analysis,
        analysis.ulcps.iter().map(|u| UlcpGain {
            ulcp: *u,
            gain_ns: gain.pair_gain_ns(
                u,
                &SectionCtx {
                    first: analysis.section(u.first),
                    second: analysis.section(u.second),
                },
            ),
        }),
    )
}

fn assert_aggregates_match<G: GainSource + Clone + Send + Sync>(
    trace: &Trace,
    config: DetectorConfig,
    gain: G,
) -> Result<(), TestCaseError> {
    let analysis = Detector::new(config).analyze(trace);
    let from_pairs = pair_path_groups(&analysis, &gain);

    let batch = Detector::new(config).analyze_with(trace, SiteAggregator::new(gain.clone()));
    prop_assert_eq!(batch.breakdown, analysis.breakdown);
    let aggregates = batch.sink.finish();
    let from_aggregates = fuse_aggregates(&aggregates);
    prop_assert_eq!(&from_aggregates, &from_pairs);

    // The per-kind aggregate totals are exactly the breakdown counts.
    for kind in UlcpKind::ALL {
        let total: u64 = aggregates
            .ulcps
            .iter()
            .filter(|row| row.kind == kind)
            .map(|row| row.dynamic_pairs)
            .sum();
        prop_assert_eq!(total as usize, analysis.breakdown.count(kind));
    }
    let edge_total: u64 = aggregates.edges.iter().map(|row| row.edges).sum();
    prop_assert_eq!(edge_total as usize, analysis.breakdown.tlcp_edges);

    // The streaming engine folds into the identical table at every worker
    // count, regardless of chunking (its emission order differs; saturating
    // folds commute). It ignores `parallel`.
    for workers in [1, 3] {
        let streamed = ParallelStreamingDetector::with_workers(config, workers)
            .analyze_trace_with(trace, 7, SiteAggregator::new(gain.clone()))
            .unwrap();
        prop_assert_eq!(streamed.breakdown, analysis.breakdown);
        let streamed_table = streamed.sink.finish();
        prop_assert_eq!(&streamed_table, &aggregates);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SiteAggregator` output equals `fuse_ulcps` over the collected pair
    /// list — groups, counts, kinds and saturated gains — for every engine,
    /// workload, detector config and gain source.
    #[test]
    fn site_aggregator_matches_per_pair_fusion(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        gain_mode in 0u32..4,
    ) {
        let trace = record(seed, &gen);
        match gain_mode {
            0 => assert_aggregates_match(&trace, config, NoGain)?,
            1 => assert_aggregates_match(&trace, config, BodyOverlapGain)?,
            2 => assert_aggregates_match(&trace, config, HugeGain)?,
            _ => assert_aggregates_match(&trace, config, PairHashGain)?,
        }
    }
}

/// The aggregate-seeded report path (`PerfReport::from_aggregates`, fed by a
/// `SiteAggregator<ReplayGains>` second pass) produces the identical report
/// the materializing path (`PerfReport::build`) does: same recommendations,
/// same impact split, same rendering.
#[test]
fn report_from_aggregates_matches_build() {
    let trace = record(
        23,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 10,
        },
    );
    let config = DetectorConfig::default();
    let analysis = Detector::new(config).analyze(&trace);
    let transformed = Transformer::default().transform(&trace, &analysis);
    let original = Replayer::default()
        .replay(&trace, ReplaySchedule::elsc())
        .unwrap();
    let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
    let built = PerfReport::build(&trace, &analysis, &transformed, &original, &free);

    // Second detection pass with the aggregating sink: Equation 1 gains are
    // folded per site pair at emission time; no pair list exists.
    let gains = ReplayGains::new(&trace, &original, &free);
    let aggregated = Detector::new(config).analyze_with(&trace, SiteAggregator::new(gains));
    assert_eq!(aggregated.breakdown, analysis.breakdown);
    let aggregates: SiteAggregates = aggregated.sink.finish();
    let from_aggregates = PerfReport::from_aggregates(
        &trace,
        aggregated.breakdown,
        &aggregates,
        &transformed,
        &original,
        &free,
    );

    assert_eq!(from_aggregates.recommendations, built.recommendations);
    assert_eq!(from_aggregates.impact, built.impact);
    assert_eq!(from_aggregates.breakdown, built.breakdown);
    assert_eq!(from_aggregates.render(&trace), built.render(&trace));
    assert_eq!(from_aggregates, built);

    // And the ranking path from aggregates is the ranking path from pairs.
    let ranked_pairs = rank_groups(pair_path_groups(&analysis, &gains));
    let ranked_aggregates = rank_groups(fuse_aggregates(&aggregates));
    assert_eq!(ranked_pairs, ranked_aggregates);
}
