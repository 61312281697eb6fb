//! # perfplay
//!
//! PerfPlay: a replay-based performance debugging framework for unnecessary
//! lock contentions (ULCPs), reproducing *"On Performance Debugging of
//! Unnecessary Lock Contentions on Multicore Processors: A Replay-based
//! Approach"* (CGO 2015).
//!
//! The crate wires the five stages of the paper's pipeline (Figure 5)
//! together behind one entry point, [`PerfPlay`]:
//!
//! 1. **record** — execute a lock program on the deterministic simulator and
//!    record its trace (`perfplay-record`);
//! 2. **identify** — find every ULCP and true contention pair
//!    (`perfplay-detect`, Algorithm 1 + reversed replay);
//! 3. **transform** — build the ULCP-free trace (`perfplay-transform`,
//!    RULES 1–4 + dynamic locking strategy);
//! 4. **replay** — replay the original trace under ELSC and the ULCP-free
//!    trace under the lockset semantics (`perfplay-replay`);
//! 5. **debug** — evaluate Equation 1 per pair, fuse per code region, rank by
//!    Equation 2, and report (`perfplay-report`).
//!
//! [`PerfPlay::analyze_trace`] runs stages 2–5 as
//! [`perfplay_report::analyze_plan`], the single-pass pipeline whose
//! detection output is a compact per-site plan, then re-ranks that report by
//! exact Equation 1 gains: one more detection pass folds each pair's
//! replay-derived gain into per-site rows ([`ReplayGains`]). No stage reads
//! a pair list.
//!
//! The facade adds no analysis settings of its own: [`PerfPlayConfig`] is
//! how to record plus the [`PipelineConfig`] that `analyze_plan` runs
//! under, and [`PerfPlayError`] is a recording failure or `analyze_plan`'s
//! [`PipelineError`].
//!
//! ```
//! use perfplay::PerfPlay;
//! use perfplay::workloads::{App, InputSize, WorkloadConfig};
//!
//! let program = App::Pbzip2.build(&WorkloadConfig::new(2, InputSize::SimSmall));
//! let analysis = PerfPlay::new().analyze_program(&program)?;
//! assert!(analysis.report.breakdown.total_ulcps() > 0);
//! println!("{}", analysis.report.render(&analysis.trace));
//! # Ok::<(), perfplay::PerfPlayError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use perfplay_detect::{DetectionPlan, Detector, SiteAggregator};
use perfplay_program::Program;
use perfplay_record::{RecordedExecution, Recorder, RecordingMode};
use perfplay_replay::{
    measure_fidelity, FidelityReport, ReplayError, ReplayResult, Replayer, ScheduleKind,
};
use perfplay_report::{
    analyze_plan, PerfReport, PipelineConfig, PipelineError, PlanAnalysis, ReplayGains,
};
use perfplay_sim::{ExecutionTiming, SimConfig, SimError};
use perfplay_trace::Trace;

/// Convenience re-exports of the building-block crates.
pub mod prelude {
    pub use perfplay_detect::{
        corrupt_chunk_file, BodyOverlapGain, CollectPairs, DetectionPlan, Detector, DetectorConfig,
        FaultInjector, FaultKind, FaultPlan, GainSource, NoGain, ParallelStreamingDetector,
        PlanAggregator, PlanError, SectionCtx, SinkAnalysis, SiteAggregates, SiteAggregator,
        StreamingAnalysis, StreamingSinkAnalysis, StreamingStats, Ulcp, UlcpAnalysis,
        UlcpBreakdown, UlcpKind, UlcpSink,
    };
    pub use perfplay_lint::{
        analyze_schedule, codes_for_fault, lint_chunk_file, lint_source, lint_trace, Diagnostic,
        DiagnosticCode, FaultExpectation, LintConfig, LintReport, LintStats, Location, Severity,
        StreamLinter,
    };
    pub use perfplay_program::{Program, ProgramBuilder};
    pub use perfplay_record::{
        convert_chunk_file, spill_trace, spill_trace_with_format, ConvertSummary, Recorder,
        RecordingMode, WallClockRecorder,
    };
    pub use perfplay_replay::{
        measure_fidelity, FidelityReport, ReplayConfig, ReplayResult, ReplaySchedule, Replayer,
        ScheduleKind, UlcpFreeReplayer,
    };
    pub use perfplay_report::{
        analyze_batch, analyze_batch_sequential, analyze_chunk_files, analyze_plan,
        fuse_aggregates, rank_groups, BatchAnalysis, BatchItemError, ChunkBatchAnalysis,
        ChunkStreamAnalysis, GroupedUlcp, ImpactSplit, PerfReport, PipelineConfig, PipelineError,
        PlanAnalysis, Recommendation, ReplayGains,
    };
    pub use perfplay_sim::{ExecutionResult, Executor, SimConfig};
    pub use perfplay_trace::{
        default_decode_workers, ChunkFileReader, ChunkFormat, EventSource, PipelinedChunkReader,
        RecoveryPolicy, StreamError, StreamGap, StreamItem, TraceChunk, TraceChunks,
    };
    pub use perfplay_trace::{Time, Trace, TraceStats};
    pub use perfplay_transform::{TransformConfig, TransformedTrace, Transformer};
}

/// Re-export of the workload models used throughout the evaluation.
pub mod workloads {
    pub use perfplay_workloads::*;
}

/// Errors produced by the end-to-end pipeline: where a run failed.
///
/// * [`Record`](Self::Record) — the deterministic simulator could not execute
///   the program ([`SimError`]);
/// * [`Pipeline`](Self::Pipeline) — the analysis ([`analyze_plan`]) failed
///   ([`PipelineError`]): its opt-in preflight refused the trace or the
///   transformed schedule, a replay got stuck or ran away, or streamed
///   detection met a malformed chunk stream.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfPlayError {
    /// Recording (simulation) failed.
    Record(SimError),
    /// The analysis pipeline failed.
    Pipeline(PipelineError),
}

impl std::fmt::Display for PerfPlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfPlayError::Record(e) => write!(f, "recording failed: {e}"),
            PerfPlayError::Pipeline(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for PerfPlayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PerfPlayError::Record(e) => Some(e),
            PerfPlayError::Pipeline(e) => Some(e),
        }
    }
}

impl From<SimError> for PerfPlayError {
    fn from(e: SimError) -> Self {
        PerfPlayError::Record(e)
    }
}

impl From<PipelineError> for PerfPlayError {
    fn from(e: PipelineError) -> Self {
        PerfPlayError::Pipeline(e)
    }
}

/// Configuration of the end-to-end pipeline: how to record, and the
/// configuration the analysis runs under.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfPlayConfig {
    /// Machine model used while recording.
    pub sim: SimConfig,
    /// Complete or selective recording.
    pub recording_mode: RecordingMode,
    /// The analysis stages' configuration, handed to [`analyze_plan`] as it
    /// is. Its detector configuration also drives the exact-gain pass.
    pub pipeline: PipelineConfig,
}

/// Everything PerfPlay learned about one execution.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The recorded trace.
    pub trace: Trace,
    /// Timing of the recording run (absent when analysing a pre-existing
    /// trace).
    pub recording_timing: Option<ExecutionTiming>,
    /// The compact detection output (sections, breakdown, causal edges,
    /// benign pairs and per-site rows) that drove the transformation and
    /// both replays.
    pub plan: DetectionPlan,
    /// Replay of the original trace (ELSC by default).
    pub original_replay: ReplayResult,
    /// Replay of the ULCP-free trace.
    pub ulcp_free_replay: ReplayResult,
    /// The programmer-facing report, ranked by exact Equation 1 gains.
    pub report: PerfReport,
}

/// The PerfPlay framework.
#[derive(Debug, Clone, Default)]
pub struct PerfPlay {
    config: PerfPlayConfig,
}

impl PerfPlay {
    /// Creates a framework instance with the default configuration.
    pub fn new() -> Self {
        PerfPlay::default()
    }

    /// Creates a framework instance with an explicit configuration.
    pub fn with_config(config: PerfPlayConfig) -> Self {
        PerfPlay { config }
    }

    /// Returns the active configuration.
    pub fn config(&self) -> &PerfPlayConfig {
        &self.config
    }

    /// Records a program and runs the full analysis pipeline on the
    /// resulting trace.
    ///
    /// # Errors
    ///
    /// Returns [`PerfPlayError::Record`] if the program cannot be executed,
    /// and otherwise the errors of [`analyze_trace`](Self::analyze_trace).
    pub fn analyze_program(&self, program: &Program) -> Result<Analysis, PerfPlayError> {
        let RecordedExecution { trace, timing, .. } = Recorder::new(self.config.sim)
            .mode(self.config.recording_mode)
            .record(program)?;
        let mut analysis = self.analyze_owned(trace)?;
        analysis.recording_timing = Some(timing);
        Ok(analysis)
    }

    /// Runs the analysis pipeline (identify → transform → replay → debug) on
    /// an already-recorded trace: [`analyze_plan`] under
    /// [`PerfPlayConfig::pipeline`], with its report re-ranked by exact
    /// Equation 1 gains.
    ///
    /// # Errors
    ///
    /// Returns [`PerfPlayError::Pipeline`] with [`analyze_plan`]'s error:
    /// [`PipelineError::Preflight`] when
    /// [`preflight`](PipelineConfig::preflight) is set and the trace or the
    /// transformed schedule has error-severity lint findings,
    /// [`PipelineError::Replay`] if either replay fails, and
    /// [`PipelineError::Stream`] when
    /// [`chunk_events`](PipelineConfig::chunk_events) is set and streamed
    /// detection refuses the trace (one whose time runs backwards, say).
    pub fn analyze_trace(&self, trace: &Trace) -> Result<Analysis, PerfPlayError> {
        self.analyze_owned(trace.clone())
    }

    /// [`analyze_trace`](Self::analyze_trace) on a trace the analysis keeps.
    ///
    /// The plan's rows rank by a detection-time proxy, because Equation 1
    /// needs both replays. One more detection pass with the same detector
    /// configuration therefore folds each pair's exact gain into per-site
    /// rows, and the report is re-ranked by them.
    fn analyze_owned(&self, trace: Trace) -> Result<Analysis, PerfPlayError> {
        let PlanAnalysis {
            plan,
            original_replay,
            ulcp_free_replay,
            report,
            ..
        } = analyze_plan(&trace, &self.config.pipeline)?;
        let gains = ReplayGains::new(&trace, &original_replay, &ulcp_free_replay);
        let exact = Detector::new(self.config.pipeline.detector)
            .analyze_with(&trace, SiteAggregator::new(gains))
            .sink
            .finish();
        let report = report.with_gains(&exact, &original_replay, &ulcp_free_replay);
        Ok(Analysis {
            trace,
            recording_timing: None,
            plan,
            original_replay,
            ulcp_free_replay,
            report,
        })
    }

    /// Measures replay fidelity (stability and precision) of a trace under a
    /// given schedule, replaying it `replays` times (Figure 13).
    ///
    /// # Errors
    ///
    /// Returns the [`ReplayError`] of the first replay that fails.
    pub fn fidelity(
        &self,
        trace: &Trace,
        kind: ScheduleKind,
        replays: usize,
    ) -> Result<FidelityReport, ReplayError> {
        measure_fidelity(
            &Replayer::new(self.config.pipeline.replay),
            trace,
            kind,
            replays,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_program::ProgramBuilder;
    use perfplay_workloads::{App, InputSize, WorkloadConfig};

    fn small_program() -> Program {
        let mut b = ProgramBuilder::new("core-test");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("core.c", "reader", 1);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(6, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                        cs.compute_ns(400);
                    });
                    l.compute_ns(200);
                });
            });
        }
        b.build()
    }

    #[test]
    fn end_to_end_pipeline_produces_a_report() {
        let analysis = PerfPlay::new().analyze_program(&small_program()).unwrap();
        assert!(analysis.recording_timing.is_some());
        assert!(analysis.report.breakdown.read_read > 0);
        assert!(analysis.report.impact.original_time > analysis.report.impact.ulcp_free_time);
        assert_eq!(analysis.trace.num_threads(), 2);
        assert!(analysis.report.grouped_ulcps() >= 1);
    }

    #[test]
    fn analyze_trace_matches_analyze_program() {
        let program = small_program();
        let perfplay = PerfPlay::new();
        let via_program = perfplay.analyze_program(&program).unwrap();
        let via_trace = perfplay.analyze_trace(&via_program.trace).unwrap();
        assert_eq!(via_program.report, via_trace.report);
        assert!(via_trace.recording_timing.is_none());
    }

    #[test]
    fn single_pass_pipeline_matches_the_materializing_breakdown() {
        let perfplay = PerfPlay::new();
        let full = perfplay.analyze_program(&small_program()).unwrap();
        // The facade's detection, transformation and replays are
        // `analyze_plan`'s; only the ranking differs (exact Equation 1
        // gains instead of the detection-time proxy).
        let single = analyze_plan(&full.trace, &perfplay.config().pipeline).unwrap();
        assert_eq!(single.plan, full.plan);
        assert_eq!(single.original_replay, full.original_replay);
        assert_eq!(single.ulcp_free_replay, full.ulcp_free_replay);
        assert_eq!(single.report.breakdown, full.report.breakdown);
        assert_eq!(
            single.report.impact.original_time,
            full.report.impact.original_time
        );
        assert_eq!(
            single.report.impact.ulcp_free_time,
            full.report.impact.ulcp_free_time
        );
        assert_eq!(single.report.transform_stats, full.report.transform_stats);
        // Same breakdown as materializing every pair, which the plan never
        // holds: it keeps aggregate rows, edges and benign pairs only.
        let pairs = Detector::default().analyze(&full.trace);
        assert_eq!(full.report.breakdown, pairs.breakdown);
        assert!(full.plan.resident_entries() < pairs.ulcps.len());
    }

    #[test]
    fn configuration_is_respected() {
        let config = PerfPlayConfig {
            pipeline: PipelineConfig {
                use_dls: false,
                ..PipelineConfig::default()
            },
            ..PerfPlayConfig::default()
        };
        let perfplay = PerfPlay::with_config(config);
        assert!(!perfplay.config().pipeline.use_dls);
        let analysis = perfplay.analyze_program(&small_program()).unwrap();
        assert!(analysis.report.impact.original_time > perfplay_trace::Time::ZERO);
    }

    #[test]
    fn fidelity_helper_reports_per_schedule() {
        let perfplay = PerfPlay::new();
        let analysis = perfplay.analyze_program(&small_program()).unwrap();
        let elsc = perfplay
            .fidelity(&analysis.trace, ScheduleKind::ElscS, 3)
            .unwrap();
        assert_eq!(elsc.spread(), 0.0);
        let orig = perfplay
            .fidelity(&analysis.trace, ScheduleKind::OrigS, 3)
            .unwrap();
        assert_eq!(orig.times.len(), 3);
    }

    #[test]
    fn workload_models_run_through_the_pipeline() {
        let program = App::TransmissionBt.build(&WorkloadConfig::new(2, InputSize::SimSmall));
        let analysis = PerfPlay::new().analyze_program(&program).unwrap();
        assert!(analysis.report.breakdown.total_ulcps() > 0);
    }

    #[test]
    fn error_display() {
        use std::error::Error;
        let e: PerfPlayError = PipelineError::from(ReplayError::StepLimitExceeded {
            limit: 1,
            cursors: Vec::new(),
        })
        .into();
        assert!(e.to_string().contains("replay failed"));
        assert!(e.source().is_some());
    }
}
