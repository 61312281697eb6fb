//! Property tests: a `DetectionPlan` retains exactly the pairs the
//! transformation reads — the section table, every causal edge and every
//! benign pair of the materialized `Detector::analyze` list, in its order —
//! for every engine feeding the plan sink (batch sequential,
//! `DetectorConfig::parallel`, streaming at arbitrary chunk sizes), so
//! `Transformer::transform_from_plan` produces one transformation whichever
//! engine detected; and the single-pass report equals the two-pass aggregate
//! report.

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::Trace;

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..5, 1usize..4, 2usize..6, 4u32..12).prop_map(
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

/// Field-wise bit-identity of two transformed traces (`TransformedTrace`
/// deliberately has no `PartialEq`: the embedded original trace makes
/// whole-value comparison a footgun in production code).
fn assert_transforms_identical(
    a: &TransformedTrace,
    b: &TransformedTrace,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.original, &b.original);
    prop_assert_eq!(&a.sections, &b.sections);
    prop_assert_eq!(&a.plan, &b.plan);
    prop_assert_eq!(&a.order_constraints, &b.order_constraints);
    prop_assert_eq!(&a.race_warnings, &b.race_warnings);
    prop_assert_eq!(a.num_aux_locks, b.num_aux_locks);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch plan holds the materialized analysis' sections, edges and
    /// benign pairs, every engine's `DetectionPlan` equals it, and
    /// `transform_from_plan` over each is the same transformation.
    #[test]
    fn transform_from_plan_matches_transform(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..48,
        strip in 0u32..2,
    ) {
        let trace = record(seed, &gen);
        let transformer = Transformer::new(TransformConfig {
            strip_unneeded_locks: strip == 1,
        });

        // Batch sequential engine, against the materialized pair list.
        let plan = Detector::new(config).plan(&trace, BodyOverlapGain);
        let analysis = Detector::new(config).analyze(&trace);
        let benign: Vec<Ulcp> = analysis
            .ulcps
            .iter()
            .copied()
            .filter(|u| u.kind == UlcpKind::Benign)
            .collect();
        prop_assert_eq!(&plan.sections, &analysis.sections);
        prop_assert_eq!(&plan.edges, &analysis.edges);
        prop_assert_eq!(&plan.benign, &benign);
        prop_assert_eq!(plan.breakdown, analysis.breakdown);
        let expected = transformer.transform_from_plan(&trace, &plan);
        prop_assert_eq!(expected.race_warnings.len(), benign.len());

        // Parallel fan-out produces the identical plan.
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..config
        })
        .plan(&trace, BodyOverlapGain);
        prop_assert_eq!(&parallel, &plan);

        // Streaming engine at an arbitrary chunk size, at one worker and
        // at two, produces the identical plan.
        for workers in [1, 2] {
            let streamed = ParallelStreamingDetector::with_workers(config, workers)
                .analyze_trace_with(&trace, chunk_events, PlanAggregator::new(BodyOverlapGain))
                .unwrap();
            let (stream_plan, _) = DetectionPlan::from_streaming(streamed);
            prop_assert_eq!(&stream_plan, &plan);
            assert_transforms_identical(
                &transformer.transform_from_plan(&trace, &stream_plan),
                &expected,
            )?;
        }
    }

    /// The single-pass pipeline report equals the two-pass flow (a gain-free
    /// plan for transform + replays, a second aggregate detection pass for
    /// the ranking) when both accumulate the same detection-time gain
    /// source.
    #[test]
    fn single_pass_report_matches_two_pass_flow(
        seed in 0u64..5_000,
        gen in generator_config(),
        cap in 0usize..4,
    ) {
        let config = DetectorConfig {
            max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
            ..DetectorConfig::default()
        };
        let trace = record(seed, &gen);
        let pipeline = PipelineConfig {
            detector: config,
            ..PipelineConfig::default()
        };
        let single = analyze_plan(&trace, &pipeline).unwrap();

        // Two-pass flow.
        let plan = Detector::new(config).plan(&trace, NoGain);
        let transformed = Transformer::default().transform_from_plan(&trace, &plan);
        let original = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
        let aggregated = Detector::new(config)
            .analyze_with(&trace, SiteAggregator::new(BodyOverlapGain));
        let two_pass = PerfReport::from_plan(&trace, &plan, &transformed, &original, &free)
            .with_gains(&aggregated.sink.finish(), &original, &free);
        prop_assert_eq!(&single.report, &two_pass);
        prop_assert_eq!(&single.original_replay, &original);
        prop_assert_eq!(&single.ulcp_free_replay, &free);
    }
}
