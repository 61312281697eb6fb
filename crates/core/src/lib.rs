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

use perfplay_detect::{DetectionPlan, Detector, DetectorConfig, SiteAggregator};
use perfplay_program::Program;
use perfplay_record::{RecordedExecution, Recorder, RecordingMode};
use perfplay_replay::{
    measure_fidelity, FidelityReport, ReplayConfig, ReplayError, ReplayResult, Replayer,
    ScheduleKind,
};
use perfplay_report::{analyze_plan, PerfReport, PlanAnalysis, ReplayGains};
use perfplay_sim::{ExecutionTiming, SimConfig, SimError};
use perfplay_trace::Trace;
use perfplay_transform::TransformConfig;

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
        convert_chunk_file, spill_trace, spill_trace_with_format, ChunkedWriter, ConvertSummary,
        Recorder, RecordingMode, WallClockRecorder,
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

/// Errors produced by the end-to-end pipeline — the root of the framework's
/// error taxonomy. Every stage's typed error converts into exactly one
/// variant, so callers can match on *where* a run failed without knowing the
/// per-crate error types:
///
/// * [`Record`](Self::Record) — the deterministic simulator could not execute
///   the program ([`SimError`]);
/// * [`Replay`](Self::Replay) — one of the two replays got stuck or ran away
///   ([`ReplayError`]);
/// * [`Stream`](Self::Stream) — chunked ingestion hit malformed input
///   ([`perfplay_trace::StreamError`], possibly wrapped in a located
///   `StreamError::At` with file, line and byte offset);
/// * [`Trace`](Self::Trace) — a materialized trace failed structural
///   validation ([`perfplay_trace::TraceError`]);
/// * [`Plan`](Self::Plan) — a deserialized detection plan was internally
///   inconsistent ([`perfplay_detect::PlanError`]);
/// * [`Panic`](Self::Panic) — a pipeline stage panicked inside one of the
///   batch drivers' `catch_unwind` isolation boundaries;
/// * [`Preflight`](Self::Preflight) — the opt-in static lint
///   ([`PerfPlayConfig::preflight`]) found error-severity problems before
///   the pipeline ran ([`perfplay_lint::Diagnostic`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PerfPlayError {
    /// Recording (simulation) failed.
    Record(SimError),
    /// One of the replays failed.
    Replay(ReplayError),
    /// Chunked (streaming) trace ingestion failed.
    Stream(perfplay_trace::StreamError),
    /// A materialized trace failed structural validation.
    Trace(perfplay_trace::TraceError),
    /// A detection plan failed consistency validation.
    Plan(perfplay_detect::PlanError),
    /// A pipeline stage panicked; the batch drivers isolate per-trace panics
    /// and surface them as this variant.
    Panic(String),
    /// The static preflight lint refused the input or the transformed
    /// schedule before any expensive stage ran.
    Preflight(Vec<perfplay_lint::Diagnostic>),
}

impl std::fmt::Display for PerfPlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfPlayError::Record(e) => write!(f, "recording failed: {e}"),
            PerfPlayError::Replay(e) => write!(f, "replay failed: {e}"),
            PerfPlayError::Stream(e) => write!(f, "stream ingestion failed: {e}"),
            PerfPlayError::Trace(e) => write!(f, "trace validation failed: {e}"),
            PerfPlayError::Plan(e) => write!(f, "plan validation failed: {e}"),
            PerfPlayError::Panic(msg) => write!(f, "pipeline stage panicked: {msg}"),
            PerfPlayError::Preflight(diagnostics) => {
                write!(f, "preflight lint found {} error(s)", diagnostics.len())?;
                if let Some(first) = diagnostics.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PerfPlayError {}

impl From<SimError> for PerfPlayError {
    fn from(e: SimError) -> Self {
        PerfPlayError::Record(e)
    }
}

impl From<ReplayError> for PerfPlayError {
    fn from(e: ReplayError) -> Self {
        PerfPlayError::Replay(e)
    }
}

impl From<perfplay_trace::StreamError> for PerfPlayError {
    fn from(e: perfplay_trace::StreamError) -> Self {
        PerfPlayError::Stream(e)
    }
}

impl From<perfplay_trace::TraceError> for PerfPlayError {
    fn from(e: perfplay_trace::TraceError) -> Self {
        PerfPlayError::Trace(e)
    }
}

impl From<perfplay_detect::PlanError> for PerfPlayError {
    fn from(e: perfplay_detect::PlanError) -> Self {
        PerfPlayError::Plan(e)
    }
}

impl From<perfplay_report::PipelineError> for PerfPlayError {
    fn from(e: perfplay_report::PipelineError) -> Self {
        match e {
            perfplay_report::PipelineError::Replay(e) => PerfPlayError::Replay(e),
            perfplay_report::PipelineError::Stream(e) => PerfPlayError::Stream(e),
            perfplay_report::PipelineError::Panic(msg) => PerfPlayError::Panic(msg),
            perfplay_report::PipelineError::Preflight(diagnostics) => {
                PerfPlayError::Preflight(diagnostics)
            }
        }
    }
}

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PerfPlayConfig {
    /// Machine model used while recording.
    pub sim: SimConfig,
    /// Cost model used while replaying.
    pub replay: ReplayConfig,
    /// Complete or selective recording.
    pub recording_mode: RecordingMode,
    /// ULCP detector options (reversed-replay refinement, scan caps).
    pub detector: DetectorConfig,
    /// Trace transformation options.
    pub transform: TransformConfig,
    /// Whether the ULCP-free replay uses the dynamic locking strategy.
    pub use_dls: bool,
    /// Schedule used for the original-trace replay (the paper uses ELSC).
    pub original_schedule: ScheduleKind,
    /// Opt-in static preflight: lint the input trace before detection and
    /// the transformed schedule before the ULCP-free replay; error-severity
    /// findings abort with [`PerfPlayError::Preflight`]. Honoured by
    /// [`PerfPlay::analyze_trace`] and [`PerfPlay::analyze_program`], and by
    /// every pipeline entry point given [`PerfPlayConfig::pipeline`].
    pub preflight: bool,
}

impl Default for PerfPlayConfig {
    fn default() -> Self {
        PerfPlayConfig {
            sim: SimConfig::default(),
            replay: ReplayConfig::default(),
            recording_mode: RecordingMode::Complete,
            detector: DetectorConfig::default(),
            transform: TransformConfig::default(),
            use_dls: true,
            original_schedule: ScheduleKind::ElscS,
            preflight: false,
        }
    }
}

impl PerfPlayConfig {
    /// The analysis-stage slice of this configuration, as consumed by the
    /// single-pass pipeline ([`analyze_plan`]) and the multi-trace batch
    /// driver, with batch (in-memory) detection. Set
    /// [`chunk_events`](perfplay_report::PipelineConfig::chunk_events) on the
    /// result to stream detection instead.
    pub fn pipeline(&self) -> perfplay_report::PipelineConfig {
        perfplay_report::PipelineConfig {
            detector: self.detector,
            replay: self.replay,
            transform: self.transform,
            use_dls: self.use_dls,
            original_schedule: self.original_schedule,
            chunk_events: None,
            preflight: self.preflight,
        }
    }
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
    /// Returns [`PerfPlayError::Preflight`] when
    /// [`PerfPlayConfig::preflight`] is set and the trace or the transformed
    /// schedule has error-severity lint findings, and
    /// [`PerfPlayError::Replay`] if either replay fails.
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
        } = analyze_plan(&trace, &self.config.pipeline())?;
        let gains = ReplayGains::new(&trace, &original_replay, &ulcp_free_replay);
        let exact = Detector::new(self.config.detector)
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
    /// Returns [`PerfPlayError::Replay`] if any replay fails.
    pub fn fidelity(
        &self,
        trace: &Trace,
        kind: ScheduleKind,
        replays: usize,
    ) -> Result<FidelityReport, PerfPlayError> {
        Ok(measure_fidelity(
            &Replayer::new(self.config.replay),
            trace,
            kind,
            replays,
        )?)
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
        let single = analyze_plan(&full.trace, &perfplay.config().pipeline()).unwrap();
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
            use_dls: false,
            ..PerfPlayConfig::default()
        };
        let perfplay = PerfPlay::with_config(config);
        assert!(!perfplay.config().use_dls);
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
        let e: PerfPlayError = ReplayError::StepLimitExceeded {
            limit: 1,
            cursors: Vec::new(),
        }
        .into();
        assert!(e.to_string().contains("replay failed"));
    }
}
