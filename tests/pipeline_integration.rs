//! Integration tests spanning the whole crate stack: workloads → recorder →
//! detector → transformer → replayers → report.

use perfplay::prelude::*;
use perfplay::workloads::cases;
use perfplay::workloads::{App, InputSize, WorkloadConfig};
use perfplay::{PerfPlay, PerfPlayConfig};

/// `TraceStats` counts sections with an open-lock stack instead of
/// extracting them; the count must equal the extraction's on every model.
#[test]
fn trace_stats_count_sections_like_extraction_on_app_models() {
    for app in App::ALL {
        let program = app.build(&WorkloadConfig::new(4, InputSize::Custom(0.25)));
        let trace = Recorder::new(SimConfig::default())
            .record(&program)
            .unwrap()
            .trace;
        assert_eq!(
            TraceStats::of(&trace).critical_sections,
            perfplay_trace::extract_critical_sections(&trace).len(),
            "{app}"
        );
    }
}

#[test]
fn every_application_model_survives_the_full_pipeline() {
    let perfplay = PerfPlay::new();
    for app in App::ALL {
        let program = app.build(&WorkloadConfig::new(2, InputSize::SimSmall));
        let analysis = perfplay
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{app} failed: {e}"));
        assert!(analysis.trace.validate().is_ok(), "{app} trace invalid");
        // The ULCP-free replay can never be slower than the original by more
        // than the lockset overhead it introduces.
        let original = analysis.report.impact.original_time.as_nanos() as f64;
        let free = analysis.report.impact.ulcp_free_time.as_nanos() as f64;
        assert!(
            free <= original * 1.10,
            "{app}: ULCP-free replay {free}ns much slower than original {original}ns"
        );
        // Opportunities are a probability distribution (or empty).
        let total: f64 = analysis
            .report
            .recommendations
            .iter()
            .map(|r| r.opportunity)
            .sum();
        assert!(total <= 1.0 + 1e-9, "{app}: opportunities sum to {total}");
    }
}

#[test]
fn lock_free_applications_report_no_opportunity() {
    let perfplay = PerfPlay::new();
    for app in [
        App::Blackscholes,
        App::Swaptions,
        App::Canneal,
        App::Streamcluster,
    ] {
        let program = app.build(&WorkloadConfig::new(2, InputSize::SimMedium));
        let analysis = perfplay.analyze_program(&program).unwrap();
        assert_eq!(analysis.report.breakdown.total_ulcps(), 0, "{app}");
        assert_eq!(analysis.report.grouped_ulcps(), 0, "{app}");
        assert!(analysis.report.normalized_degradation() < 0.02, "{app}");
    }
}

#[test]
fn elsc_replay_reproduces_recorded_time_for_workload_models() {
    let perfplay = PerfPlay::new();
    for app in [App::OpenLdap, App::Pbzip2, App::Fluidanimate] {
        let program = app.build(&WorkloadConfig::new(2, InputSize::SimSmall));
        let analysis = perfplay.analyze_program(&program).unwrap();
        let recorded = analysis.trace.total_time.as_nanos() as f64;
        let replayed = analysis.report.impact.original_time.as_nanos() as f64;
        assert!(
            (replayed - recorded).abs() / recorded < 0.05,
            "{app}: ELSC replay {replayed} vs recorded {recorded}"
        );
    }
}

#[test]
fn fidelity_shapes_match_figure_13() {
    let perfplay = PerfPlay::new();
    let program = App::Dedup.build(&WorkloadConfig::new(2, InputSize::SimMedium));
    let analysis = perfplay.analyze_program(&program).unwrap();
    let trace = &analysis.trace;

    let orig = perfplay.fidelity(trace, ScheduleKind::OrigS, 8).unwrap();
    let elsc = perfplay.fidelity(trace, ScheduleKind::ElscS, 8).unwrap();
    let sync = perfplay.fidelity(trace, ScheduleKind::SyncS, 8).unwrap();
    let mem = perfplay.fidelity(trace, ScheduleKind::MemS, 8).unwrap();

    // Stability: the three enforcement schemes are deterministic, the free
    // run is not.
    assert_eq!(elsc.spread(), 0.0);
    assert_eq!(sync.spread(), 0.0);
    assert_eq!(mem.spread(), 0.0);
    assert!(orig.spread() > 0.0);

    // Precision: ELSC tracks the recording; SYNC-S and MEM-S add overhead.
    assert!(elsc.precision_error() < 0.03);
    assert!(sync.mean() >= elsc.mean());
    assert!(mem.mean() >= elsc.mean());
}

#[test]
fn dls_ablation_never_increases_lockset_work() {
    let perfplay_with = PerfPlay::new();
    let perfplay_without = PerfPlay::with_config(PerfPlayConfig {
        use_dls: false,
        ..PerfPlayConfig::default()
    });
    for app in [App::Facesim, App::X264] {
        let program = app.build(&WorkloadConfig::new(2, InputSize::SimSmall));
        let with = perfplay_with.analyze_program(&program).unwrap();
        let without = perfplay_without.analyze_program(&program).unwrap();
        assert!(
            with.ulcp_free_replay.lockset_ops <= without.ulcp_free_replay.lockset_ops,
            "{app}"
        );
        assert!(
            with.ulcp_free_replay.lockset_overhead <= without.ulcp_free_replay.lockset_overhead,
            "{app}"
        );
    }
}

#[test]
fn case_study_fixes_behave_like_the_paper_reports() {
    let perfplay = PerfPlay::new();
    let config = WorkloadConfig::new(4, InputSize::SimMedium);

    // BUG 1: the fix eliminates the spin-wait ULCPs and the recommendation in
    // the buggy version points at the spin-wait code region.
    let bug1 = perfplay
        .analyze_program(&cases::bug1_openldap_spinwait(&config))
        .unwrap();
    let bug1_fixed = perfplay
        .analyze_program(&cases::bug1_fixed_barrier(&config))
        .unwrap();
    assert!(bug1.report.breakdown.read_read > 0);
    assert_eq!(bug1_fixed.report.breakdown.total_ulcps(), 0);
    let top = bug1.report.top_recommendation().unwrap();
    let region_names: Vec<String> = top
        .group
        .region_first
        .iter()
        .chain(top.group.region_second.iter())
        .filter_map(|s| bug1.trace.sites.get(s))
        .map(|s| s.function.clone())
        .collect();
    assert!(
        region_names.iter().any(|f| f.contains("wait_for_ref")),
        "top recommendation should point at the spin-wait, got {region_names:?}"
    );

    // BUG 2: the fix reduces both lock traffic and ULCPs.
    let bug2 = perfplay
        .analyze_program(&cases::bug2_pbzip2_join(&config))
        .unwrap();
    let bug2_fixed = perfplay
        .analyze_program(&cases::bug2_fixed_signal(&config))
        .unwrap();
    assert!(bug2.report.breakdown.read_read > bug2_fixed.report.breakdown.read_read);
    assert!(bug2.trace.num_acquisitions() > bug2_fixed.trace.num_acquisitions());
}

#[test]
fn ulcp_counts_grow_with_thread_count_like_figure_2() {
    let counts: Vec<usize> = [2usize, 4, 8]
        .iter()
        .map(|&threads| {
            let program = App::OpenLdap.build(&WorkloadConfig::new(threads, InputSize::SimSmall));
            let trace = Recorder::new(SimConfig::default())
                .record(&program)
                .unwrap()
                .trace;
            Detector::default().analyze(&trace).breakdown.total_ulcps()
        })
        .collect();
    assert!(counts[1] > counts[0]);
    assert!(counts[2] > counts[1]);
}

#[test]
fn selective_recording_does_not_change_the_analysis_outcome() {
    let program = App::TransmissionBt.build(&WorkloadConfig::new(2, InputSize::SimMedium));
    let complete = Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace;
    let selective = Recorder::new(SimConfig::default())
        .mode(RecordingMode::Selective)
        .record(&program)
        .unwrap()
        .trace;
    let b1 = Detector::default().analyze(&complete).breakdown;
    let b2 = Detector::default().analyze(&selective).breakdown;
    assert_eq!(b1, b2);
    assert!(selective.num_events() <= complete.num_events());
}
