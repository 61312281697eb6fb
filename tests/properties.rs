//! Property-based tests over randomly generated lock programs, exercising
//! the invariants the PerfPlay pipeline promises on inputs nobody
//! hand-crafted.

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay::PerfPlay;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recorded traces of arbitrary generated programs are well-formed.
    #[test]
    fn recorded_traces_are_well_formed(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let recording = Recorder::new(SimConfig::default()).record(&program).unwrap();
        prop_assert!(recording.trace.validate().is_ok());
        prop_assert_eq!(recording.trace.num_threads(), config.threads);
        // Balanced locking means acquisitions equal extracted sections.
        let sections = perfplay_trace::extract_critical_sections(&recording.trace);
        prop_assert_eq!(sections.len(), recording.trace.num_acquisitions());
        prop_assert_eq!(recording.trace.lock_schedule.len(), sections.len());
        // TraceStats counts sections without extracting them.
        prop_assert_eq!(TraceStats::of(&recording.trace).critical_sections, sections.len());
    }

    /// ULCP classification is consistent: a pair is never both a ULCP and a
    /// causal edge, and every reported pair is cross-thread, same-lock, and
    /// ordered by timing index.
    #[test]
    fn detection_invariants(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let analysis = Detector::default().analyze(&trace);

        let ulcp_pairs: std::collections::BTreeSet<_> =
            analysis.ulcps.iter().map(|u| (u.first, u.second)).collect();
        for edge in &analysis.edges {
            prop_assert!(!ulcp_pairs.contains(&(edge.from, edge.to)));
            prop_assert!(edge.from < edge.to);
        }
        for u in &analysis.ulcps {
            prop_assert!(u.first < u.second);
            let a = analysis.section(u.first);
            let b = analysis.section(u.second);
            prop_assert_eq!(a.lock, b.lock);
            prop_assert_ne!(a.thread, b.thread);
        }
        prop_assert_eq!(analysis.breakdown.total_ulcps(), analysis.ulcps.len());
        prop_assert_eq!(analysis.breakdown.tlcp_edges, analysis.edges.len());
    }

    /// The transformation plan respects RULE 3 structurally, and the ELSC
    /// replay of the original trace is deterministic and faithful.
    #[test]
    fn transform_and_replay_invariants(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let plan = Detector::default().plan(&trace, NoGain);
        let transformed = Transformer::default().transform_from_plan(&trace, &plan);

        for node in &transformed.plan {
            // A node's own auxiliary lock is always in its lockset.
            if let Some(own) = node.aux_lock {
                prop_assert!(node.lockset.contains(&own));
            }
            // Stripped nodes carry no source constraints that matter.
            if !node.sources.is_empty() {
                prop_assert!(!node.strip_lock);
            }
        }

        let r1 = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        let r2 = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        prop_assert_eq!(&r1, &r2);
        let recorded = trace.total_time.as_nanos() as f64;
        let replayed = r1.total_time.as_nanos() as f64;
        prop_assert!((replayed - recorded).abs() / recorded.max(1.0) < 0.10);
    }

    /// The optimized snapshot-free detector — sequential and parallel — is
    /// bit-identical to the retained naive snapshot-cloning reference, for
    /// the default configuration, the reversed-replay ablation, and a capped
    /// sequential search.
    #[test]
    fn optimized_detector_matches_naive_reference(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let sequential_config = DetectorConfig { parallel: false, ..DetectorConfig::default() };
        for det_config in [
            sequential_config,
            DetectorConfig { use_reversed_replay: false, ..sequential_config },
            DetectorConfig { max_scan_per_thread: Some(3), ..sequential_config },
        ] {
            let reference = perfplay_detect::reference_analyze(&trace, det_config);
            let sequential = Detector::new(det_config).analyze(&trace);
            let parallel = Detector::new(DetectorConfig { parallel: true, ..det_config })
                .analyze(&trace);
            prop_assert_eq!(&reference.breakdown, &sequential.breakdown);
            prop_assert_eq!(&reference.ulcps, &sequential.ulcps);
            prop_assert_eq!(&reference.edges, &sequential.edges);
            prop_assert_eq!(&sequential.breakdown, &parallel.breakdown);
            prop_assert_eq!(&sequential.ulcps, &parallel.ulcps);
            prop_assert_eq!(&sequential.edges, &parallel.edges);
            prop_assert_eq!(&sequential.sections, &parallel.sections);
        }
    }

    /// The end-to-end pipeline never reports an ULCP-free execution that is
    /// meaningfully slower than the original, and its opportunity ranking is
    /// a valid distribution.
    #[test]
    fn pipeline_invariants(seed in 0u64..2_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let analysis = PerfPlay::new().analyze_program(&program).unwrap();
        let original = analysis.report.impact.original_time.as_nanos() as f64;
        let free = analysis.report.impact.ulcp_free_time.as_nanos() as f64;
        prop_assert!(free <= original * 1.15 + 1_000.0);
        let total: f64 = analysis.report.recommendations.iter().map(|r| r.opportunity).sum();
        prop_assert!(total <= 1.0 + 1e-9);
        for rec in &analysis.report.recommendations {
            prop_assert!(rec.opportunity >= 0.0);
            prop_assert!(rec.group.dynamic_pairs >= 1);
        }
    }
}
