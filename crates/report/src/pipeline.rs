//! The single-pass analysis pipeline and the multi-trace batch driver.
//!
//! [`analyze_plan`] runs the whole PerfPlay pipeline — identify → transform →
//! replay twice → report — with **one** detection pass and O(code sites)
//! detection output: the detector emits into a
//! [`PlanAggregator`](perfplay_detect::PlanAggregator), whose
//! [`DetectionPlan`] (edge table + benign pairs + per-site aggregate rows)
//! is everything the transformation, the ULCP-free replay admission and the
//! ranked report need. No pair vector exists at any point.
//!
//! [`analyze_batch`] is the paper's Table 1 sweep as one call: it analyzes N
//! recorded traces concurrently — reusing the detector's fork/absorb
//! work-queue discipline across traces — then fuses the per-trace aggregate
//! tables with the order-independent saturating merge
//! ([`SiteAggregates::merge`]) and emits one fused ranked report. Because
//! the merge is commutative and associative, the fused output is identical
//! to sequential per-trace analysis followed by an in-order merge.

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use perfplay_detect::{
    BodyOverlapGain, DetectionPlan, Detector, DetectorConfig, ParallelStreamingDetector,
    PlanAggregator, SiteAggregates, StreamingStats, UlcpBreakdown,
};
use perfplay_lint::{analyze_schedule, lint_chunk_file, lint_trace, Diagnostic, LintConfig};
use perfplay_replay::{
    ReplayConfig, ReplayError, ReplayResult, ReplaySchedule, Replayer, ScheduleKind,
    UlcpFreeReplayer,
};
use perfplay_trace::{PipelinedChunkReader, RecoveryPolicy, StreamError, Trace};
use perfplay_transform::{TransformConfig, Transformer};

use crate::fusion::{fuse_aggregates, rank_groups, Recommendation};
use crate::report::PerfReport;

/// Errors produced by the single-pass pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// One of the two replays failed.
    Replay(ReplayError),
    /// Chunked (streaming) detection failed.
    Stream(StreamError),
    /// A pipeline stage panicked; the payload message is preserved. Only
    /// produced by the batch drivers, which isolate each trace with
    /// `catch_unwind` so one poisoned input cannot abort the sweep.
    Panic(String),
    /// The opt-in static preflight ([`PipelineConfig::preflight`]) found
    /// error-severity problems in the input trace/file or in the transformed
    /// schedule, and the pipeline refused to proceed. The diagnostics say
    /// exactly what and where.
    Preflight(Vec<Diagnostic>),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Replay(e) => write!(f, "pipeline replay failed: {e}"),
            PipelineError::Stream(e) => write!(f, "pipeline stream ingestion failed: {e}"),
            PipelineError::Panic(msg) => write!(f, "pipeline stage panicked: {msg}"),
            PipelineError::Preflight(diagnostics) => {
                write!(f, "preflight lint found {} error(s)", diagnostics.len())?;
                if let Some(first) = diagnostics.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ReplayError> for PipelineError {
    fn from(e: ReplayError) -> Self {
        PipelineError::Replay(e)
    }
}

impl From<StreamError> for PipelineError {
    fn from(e: StreamError) -> Self {
        PipelineError::Stream(e)
    }
}

/// The failure of one item of a batch run: which input failed, and how. The
/// other items' analyses are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItemError {
    /// Index of the failing trace (or chunk file) in the batch input.
    pub trace_index: usize,
    /// What went wrong.
    pub error: PipelineError,
}

impl std::fmt::Display for BatchItemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch item {}: {}", self.trace_index, self.error)
    }
}

impl std::error::Error for BatchItemError {}

/// Extracts a human-readable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one trace through the pipeline with panic isolation: a panicking
/// stage yields [`PipelineError::Panic`] instead of unwinding the caller.
fn analyze_plan_caught(
    trace: &Trace,
    config: &PipelineConfig,
) -> Result<PlanAnalysis, PipelineError> {
    std::panic::catch_unwind(AssertUnwindSafe(|| analyze_plan(trace, config)))
        .unwrap_or_else(|payload| Err(PipelineError::Panic(panic_message(payload))))
}

/// Configuration of the single-pass pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// ULCP detector options (shared by the batch and streaming engines).
    pub detector: DetectorConfig,
    /// Cost model of both replays.
    pub replay: ReplayConfig,
    /// Trace transformation options.
    pub transform: TransformConfig,
    /// Whether the ULCP-free replay uses the dynamic locking strategy.
    pub use_dls: bool,
    /// Schedule of the original-trace replay (the paper uses ELSC).
    pub original_schedule: ScheduleKind,
    /// When set, detection streams the trace chunk-by-chunk with this chunk
    /// size (bounded pairing state) through [`ParallelStreamingDetector`],
    /// sized by [`stream_workers`](Self::stream_workers); when `None`, the
    /// batch engine runs (honouring [`DetectorConfig::parallel`]).
    pub chunk_events: Option<usize>,
    /// Opt-in static preflight: lint the input trace (or chunk file) before
    /// detection and the transformed schedule before the ULCP-free replay.
    /// Error-severity findings abort the run with
    /// [`PipelineError::Preflight`] instead of failing later inside a
    /// detector stream or as a stuck replay; warnings never block.
    pub preflight: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            detector: DetectorConfig::default(),
            replay: ReplayConfig::default(),
            transform: TransformConfig::default(),
            use_dls: true,
            original_schedule: ScheduleKind::ElscS,
            chunk_events: None,
            preflight: false,
        }
    }
}

/// Fallback chunk size for the trace preflight when the pipeline itself
/// runs batch (non-streaming) detection and has no `chunk_events` to borrow.
const PREFLIGHT_CHUNK_EVENTS: usize = 4096;

/// Returns the error-severity findings of `report`, or `None` when it has
/// none (warnings never block a preflighted run).
fn preflight_errors(report: perfplay_lint::LintReport) -> Option<Vec<Diagnostic>> {
    if report.errors() == 0 {
        return None;
    }
    Some(
        report
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == perfplay_lint::Severity::Error)
            .collect(),
    )
}

impl PipelineConfig {
    /// The resolved streaming worker count: with
    /// [`DetectorConfig::parallel`] set, `Some(n)` with one worker per
    /// available core; otherwise `None`, which means one worker. Output is
    /// bit-identical either way. It sizes detection only: chunk files are
    /// read through the pipelined scanner whatever it says.
    pub fn stream_workers(&self) -> Option<usize> {
        self.detector.parallel.then(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

/// Everything one single-pass pipeline run produced. The transformed trace
/// (which clones the original event log) is dropped as soon as the ULCP-free
/// replay finishes; its statistics live on in `report.transform_stats`.
#[derive(Debug, Clone)]
pub struct PlanAnalysis {
    /// The compact detection output that drove transform, replay and report.
    pub plan: DetectionPlan,
    /// Replay of the original trace.
    pub original_replay: ReplayResult,
    /// Replay of the ULCP-free trace.
    pub ulcp_free_replay: ReplayResult,
    /// The programmer-facing report, seeded from the plan's aggregate rows.
    pub report: PerfReport,
    /// Resident-state statistics of the detection pass when it streamed
    /// (`chunk_events` set); `None` for batch detection.
    pub streaming: Option<StreamingStats>,
}

/// Runs the single-pass pipeline: one detection pass into a
/// [`PlanAggregator`] whose [`DetectionPlan`] drives the transformation, both
/// replays and a report ranked by the detection-time [`BodyOverlapGain`]
/// proxy.
///
/// # Errors
///
/// Returns [`PipelineError::Preflight`] when [`PipelineConfig::preflight`]
/// is set and the trace or the transformed schedule has error-severity
/// findings, [`PipelineError::Replay`] if a replay fails, and
/// [`PipelineError::Stream`] if the chunked stream is malformed (the
/// in-memory adapter never is).
pub fn analyze_plan(trace: &Trace, config: &PipelineConfig) -> Result<PlanAnalysis, PipelineError> {
    if config.preflight {
        let chunk_events = config.chunk_events.unwrap_or(PREFLIGHT_CHUNK_EVENTS);
        if let Some(errors) = preflight_errors(lint_trace(trace, chunk_events)) {
            return Err(PipelineError::Preflight(errors));
        }
    }
    let (plan, streaming) = match config.chunk_events {
        Some(chunk_events) => {
            let workers = config.stream_workers().unwrap_or(1);
            let streamed = ParallelStreamingDetector::with_workers(config.detector, workers)
                .analyze_trace_with(trace, chunk_events, PlanAggregator::new(BodyOverlapGain))?;
            let (plan, stats) = DetectionPlan::from_streaming(streamed);
            (plan, Some(stats))
        }
        None => (
            Detector::new(config.detector).plan(trace, BodyOverlapGain),
            None,
        ),
    };

    let transformed = Transformer::new(config.transform).transform_from_plan(trace, &plan);
    if config.preflight {
        // A transform-introduced lock-order inversion (RULEs 2–4) is caught
        // here as a wait-graph cycle instead of as a stuck ULCP-free replay.
        let schedule_errors: Vec<Diagnostic> = analyze_schedule(&transformed);
        if !schedule_errors.is_empty() {
            return Err(PipelineError::Preflight(schedule_errors));
        }
    }
    let original_replay = Replayer::new(config.replay)
        .replay(trace, ReplaySchedule::for_kind(config.original_schedule))?;
    let ulcp_free_replay = UlcpFreeReplayer::new(config.replay)
        .with_dls(config.use_dls)
        .replay(&transformed)?;
    let mut report = PerfReport::from_plan(
        trace,
        &plan,
        &transformed,
        &original_replay,
        &ulcp_free_replay,
    );
    if let Some(stats) = &streaming {
        report = report.with_stream_gaps(stats.gaps, stats.events_lost);
    }
    Ok(PlanAnalysis {
        plan,
        original_replay,
        ulcp_free_replay,
        report,
        streaming,
    })
}

/// The fused output of a multi-trace batch run. Failed traces are quarantined
/// in `failures`; the surviving traces' analyses fuse exactly as if the
/// failing inputs had never been passed in.
#[derive(Debug, Clone)]
pub struct BatchAnalysis {
    /// Per-trace single-pass analyses of the traces that succeeded, in input
    /// order. When `failures` is non-empty the original index of the k-th
    /// entry is the k-th input index *not* listed in `failures`.
    pub per_trace: Vec<PlanAnalysis>,
    /// One structured error per failing trace, in input order. Panics inside
    /// a per-trace pipeline stage surface here as [`PipelineError::Panic`].
    pub failures: Vec<BatchItemError>,
    /// The fused aggregate table across all surviving traces (saturating
    /// merge).
    pub fused_aggregates: SiteAggregates,
    /// Summed per-category breakdown across all surviving traces (saturating
    /// by construction of the per-trace counts; plain sums here).
    pub fused_breakdown: UlcpBreakdown,
    /// One ranked recommendation list seeded from the fused table — the
    /// Table 1 sweep's "which code region matters most overall" answer.
    pub recommendations: Vec<Recommendation>,
}

impl BatchAnalysis {
    /// Number of traces analyzed successfully.
    pub fn num_traces(&self) -> usize {
        self.per_trace.len()
    }

    /// Whether every input trace was analyzed successfully.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Relative opportunity of the top fused group.
    pub fn top_opportunity(&self) -> f64 {
        self.recommendations
            .first()
            .map(|r| r.opportunity)
            .unwrap_or(0.0)
    }
}

/// Analyzes N recorded traces and fuses their results into one ranked
/// report, running the per-trace pipelines concurrently over a work queue
/// (the same pop-the-next-unit discipline `DetectorConfig::parallel` uses
/// across locks, lifted to whole traces). Results are re-ordered by input
/// index and the aggregate merge is order-independent, so the output is
/// bit-identical to analyzing the traces sequentially and merging in order —
/// which [`analyze_batch_sequential`] does, as the executable spec.
///
/// A failing trace — replay error, malformed stream, or a panic anywhere in
/// its pipeline (isolated with `catch_unwind`) — becomes one
/// [`BatchItemError`] in [`BatchAnalysis::failures`] while the other N-1
/// traces complete and fuse normally.
pub fn analyze_batch(traces: &[Trace], config: &PipelineConfig) -> BatchAnalysis {
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(traces.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<PlanAnalysis, PipelineError>>>> =
        Mutex::new((0..traces.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(trace) = traces.get(i) else {
                    break;
                };
                let result = analyze_plan_caught(trace, config);
                slots.lock().expect("batch slots lock")[i] = Some(result);
            });
        }
    });
    let results = slots
        .into_inner()
        .expect("batch slots lock")
        .into_iter()
        .map(|slot| slot.expect("every trace index was processed"));
    fuse_batch(results)
}

/// The sequential executable spec of [`analyze_batch`]: per-trace analysis
/// in input order, aggregate merge in input order, and the same per-trace
/// panic isolation (panic-for-panic equivalent with the concurrent path).
pub fn analyze_batch_sequential(traces: &[Trace], config: &PipelineConfig) -> BatchAnalysis {
    fuse_batch(traces.iter().map(|t| analyze_plan_caught(t, config)))
}

/// Splits per-trace outcomes into survivors and failures, then fuses the
/// survivors: merged aggregate table, summed breakdown, one ranked
/// recommendation list.
fn fuse_batch(results: impl Iterator<Item = Result<PlanAnalysis, PipelineError>>) -> BatchAnalysis {
    let mut per_trace = Vec::new();
    let mut failures = Vec::new();
    for (trace_index, result) in results.enumerate() {
        match result {
            Ok(analysis) => per_trace.push(analysis),
            Err(error) => failures.push(BatchItemError { trace_index, error }),
        }
    }
    let mut fused_aggregates = SiteAggregates::default();
    let mut fused_breakdown = UlcpBreakdown::default();
    for analysis in &per_trace {
        fused_aggregates.merge(&analysis.plan.aggregates);
        fused_breakdown.merge_totals(&analysis.plan.breakdown);
    }
    let recommendations = rank_groups(fuse_aggregates(&fused_aggregates));
    BatchAnalysis {
        per_trace,
        failures,
        fused_aggregates,
        fused_breakdown,
        recommendations,
    }
}

/// The detection-only analysis of one on-disk chunk stream: the plan's
/// aggregate rows and breakdown plus the streaming statistics (including gap
/// counts under a recovery policy). No trace is ever materialized and no
/// replay runs, so this scales to spill files far larger than memory.
#[derive(Debug, Clone)]
pub struct ChunkStreamAnalysis {
    /// Path of the chunk file this analysis came from, for display: bytes
    /// that are not UTF-8 are replaced. The file itself is opened by the
    /// path the caller passed.
    pub path: String,
    /// The compact detection output (aggregate rows, edges, breakdown).
    pub plan: DetectionPlan,
    /// Resident-state statistics, including `gaps` / `events_lost` recorded
    /// while recovering from corrupt chunks.
    pub stats: StreamingStats,
}

/// The fused output of a [`analyze_chunk_files`] sweep.
#[derive(Debug, Clone)]
pub struct ChunkBatchAnalysis {
    /// Per-file detection analyses of the files that succeeded, in input
    /// order.
    pub per_stream: Vec<ChunkStreamAnalysis>,
    /// One structured error per failing file, in input order
    /// (`trace_index` is the index into the input path list).
    pub failures: Vec<BatchItemError>,
    /// The fused aggregate table across all surviving files.
    pub fused_aggregates: SiteAggregates,
    /// Summed per-category breakdown across all surviving files.
    pub fused_breakdown: UlcpBreakdown,
    /// One ranked recommendation list seeded from the fused table.
    pub recommendations: Vec<Recommendation>,
}

impl ChunkBatchAnalysis {
    /// Total stream gaps recovered from across all surviving files.
    pub fn total_gaps(&self) -> usize {
        self.per_stream.iter().map(|s| s.stats.gaps).sum()
    }

    /// Total events lost to stream gaps across all surviving files.
    pub fn total_events_lost(&self) -> u64 {
        self.per_stream
            .iter()
            .map(|s| s.stats.events_lost)
            .fold(0, u64::saturating_add)
    }
}

/// Runs detection-only analysis over on-disk chunk files and fuses the
/// per-file aggregate tables into one ranked report — the batch sweep for
/// traces that were spilled at record time and never loaded back into
/// memory. Each file is read through [`PipelinedChunkReader`] (the preflight
/// lint too) under the given [`RecoveryPolicy`] and streams through
/// [`ParallelStreamingDetector`], sized by
/// [`PipelineConfig::stream_workers`]; `parallel` sizes detection only and
/// never picks the reader. A file that still fails (or panics a detector
/// stage) becomes one [`BatchItemError`] while the other files complete and
/// fuse.
pub fn analyze_chunk_files<P: AsRef<Path>>(
    paths: &[P],
    config: &PipelineConfig,
    policy: RecoveryPolicy,
) -> ChunkBatchAnalysis {
    let mut per_stream = Vec::new();
    let mut failures = Vec::new();
    for (trace_index, path) in paths.iter().enumerate() {
        let path = path.as_ref();
        if config.preflight {
            let report = lint_chunk_file(path, &LintConfig::default());
            if let Some(errors) = preflight_errors(report) {
                failures.push(BatchItemError {
                    trace_index,
                    error: PipelineError::Preflight(errors),
                });
                continue;
            }
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Framing and decoding overlap with detection whatever the
            // worker count; `parallel` only sizes the detector.
            let mut reader = PipelinedChunkReader::with_policy(path, policy)?;
            let workers = config.stream_workers().unwrap_or(1);
            let streamed = ParallelStreamingDetector::with_workers(config.detector, workers)
                .analyze_with(&mut reader, PlanAggregator::new(BodyOverlapGain))?;
            Ok(DetectionPlan::from_streaming(streamed))
        }))
        .unwrap_or_else(|payload| Err(PipelineError::Panic(panic_message(payload))));
        match outcome {
            Ok((plan, stats)) => per_stream.push(ChunkStreamAnalysis {
                path: path.display().to_string(),
                plan,
                stats,
            }),
            Err(error) => failures.push(BatchItemError { trace_index, error }),
        }
    }
    let mut fused_aggregates = SiteAggregates::default();
    let mut fused_breakdown = UlcpBreakdown::default();
    for analysis in &per_stream {
        fused_aggregates.merge(&analysis.plan.aggregates);
        fused_breakdown.merge_totals(&analysis.plan.breakdown);
    }
    let recommendations = rank_groups(fuse_aggregates(&fused_aggregates));
    ChunkBatchAnalysis {
        per_stream,
        failures,
        fused_aggregates,
        fused_breakdown,
        recommendations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_workloads::{random_workload, GeneratorConfig};

    fn record(seed: u64) -> Trace {
        let program = random_workload(
            seed,
            &GeneratorConfig {
                threads: 3,
                locks: 2,
                objects: 4,
                sections_per_thread: 8,
            },
        );
        Recorder::new(SimConfig::default())
            .record(&program)
            .unwrap()
            .trace
    }

    #[test]
    fn single_pass_report_matches_two_pass_aggregate_report() {
        use perfplay_detect::{NoGain, SiteAggregator};
        let trace = record(11);
        let config = PipelineConfig::default();
        let single = analyze_plan(&trace, &config).unwrap();

        // Two-pass flow: a gain-free plan drives transform + replays, then a
        // second detection pass folds the same gain proxy into the table the
        // report is ranked by.
        let plan = Detector::new(config.detector).plan(&trace, NoGain);
        let transformed = Transformer::new(config.transform).transform_from_plan(&trace, &plan);
        let original = Replayer::new(config.replay)
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::new(config.replay)
            .with_dls(config.use_dls)
            .replay(&transformed)
            .unwrap();
        let aggregated = Detector::new(config.detector)
            .analyze_with(&trace, SiteAggregator::new(BodyOverlapGain));
        let two_pass = PerfReport::from_plan(&trace, &plan, &transformed, &original, &free)
            .with_gains(&aggregated.sink.finish(), &original, &free);

        assert_eq!(single.report, two_pass);
        assert_eq!(single.original_replay, original);
        assert_eq!(single.ulcp_free_replay, free);
    }

    #[test]
    fn streaming_pipeline_matches_batch_pipeline() {
        let trace = record(5);
        let batch = analyze_plan(&trace, &PipelineConfig::default()).unwrap();
        let streamed = analyze_plan(
            &trace,
            &PipelineConfig {
                chunk_events: Some(13),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(streamed.plan, batch.plan);
        assert_eq!(streamed.report, batch.report);
        assert!(streamed.streaming.is_some());
        assert!(batch.streaming.is_none());
    }

    #[test]
    fn parallel_streaming_pipeline_matches_one_worker_and_batch() {
        let trace = record(7);
        let batch = analyze_plan(&trace, &PipelineConfig::default()).unwrap();
        let one_worker = analyze_plan(
            &trace,
            &PipelineConfig {
                chunk_events: Some(17),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(one_worker.plan, batch.plan);
        // `detector.parallel` resolves to one worker per core, same output.
        let config = PipelineConfig {
            chunk_events: Some(17),
            detector: DetectorConfig {
                parallel: true,
                ..DetectorConfig::default()
            },
            ..PipelineConfig::default()
        };
        assert!(config.stream_workers().is_some());
        let parallel = analyze_plan(&trace, &config).unwrap();
        assert_eq!(parallel.plan, batch.plan);
        assert_eq!(parallel.report, one_worker.report);
        let stats = parallel.streaming.unwrap();
        let one_stats = one_worker.streaming.unwrap();
        assert_eq!(stats.chunks, one_stats.chunks);
        assert_eq!(stats.events, one_stats.events);
        assert_eq!(stats.sections, one_stats.sections);
        assert_eq!(PipelineConfig::default().stream_workers(), None);
    }

    #[test]
    fn chunk_file_sweep_is_identical_under_parallel_streams() {
        use perfplay_record::spill_trace;

        let dir = std::env::temp_dir().join("perfplay-parallel-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (i, seed) in [310u64, 311].iter().enumerate() {
            let trace = record(*seed);
            let path = dir.join(format!("psweep-{i}.chunks"));
            spill_trace(&trace, path.to_str().unwrap(), 16).unwrap();
            paths.push(path);
        }
        let sequential =
            analyze_chunk_files(&paths, &PipelineConfig::default(), RecoveryPolicy::Fail);
        let parallel = analyze_chunk_files(
            &paths,
            &PipelineConfig {
                detector: DetectorConfig {
                    parallel: true,
                    ..DetectorConfig::default()
                },
                ..PipelineConfig::default()
            },
            RecoveryPolicy::Fail,
        );
        assert!(sequential.failures.is_empty() && parallel.failures.is_empty());
        assert_eq!(sequential.fused_aggregates, parallel.fused_aggregates);
        assert_eq!(sequential.fused_breakdown, parallel.fused_breakdown);
        assert_eq!(sequential.recommendations, parallel.recommendations);
        for (s, p) in sequential.per_stream.iter().zip(&parallel.per_stream) {
            assert_eq!(s.plan, p.plan);
        }
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn concurrent_batch_equals_sequential_batch_plus_merge() {
        let traces: Vec<Trace> = (0..5).map(|i| record(100 + i)).collect();
        let config = PipelineConfig::default();
        let concurrent = analyze_batch(&traces, &config);
        let sequential = analyze_batch_sequential(&traces, &config);

        assert!(concurrent.is_complete());
        assert_eq!(concurrent.num_traces(), traces.len());
        assert_eq!(concurrent.fused_aggregates, sequential.fused_aggregates);
        assert_eq!(concurrent.fused_breakdown, sequential.fused_breakdown);
        assert_eq!(concurrent.recommendations, sequential.recommendations);
        for (c, s) in concurrent.per_trace.iter().zip(&sequential.per_trace) {
            assert_eq!(c.plan, s.plan);
            assert_eq!(c.report, s.report);
        }
        // The fused table is exactly the in-order merge of the per-trace
        // tables.
        let mut merged = SiteAggregates::default();
        for a in &sequential.per_trace {
            merged.merge(&a.plan.aggregates);
        }
        assert_eq!(merged, concurrent.fused_aggregates);
        // Fused totals are the sums of the per-trace totals (no saturation
        // at this scale).
        let pair_sum: u64 = sequential
            .per_trace
            .iter()
            .map(|a| a.plan.aggregates.total_pairs())
            .sum();
        assert_eq!(concurrent.fused_aggregates.total_pairs(), pair_sum);
        assert_eq!(
            concurrent.fused_breakdown.lock_acquisitions,
            sequential
                .per_trace
                .iter()
                .map(|a| a.plan.breakdown.lock_acquisitions)
                .sum::<usize>()
        );
    }

    #[test]
    fn batch_results_follow_input_order() {
        let traces: Vec<Trace> = (0..3).map(|i| record(40 + i)).collect();
        let batch = analyze_batch(&traces, &PipelineConfig::default());
        assert!(batch.failures.is_empty());
        assert_eq!(batch.per_trace.len(), 3);
        for (analysis, trace) in batch.per_trace.iter().zip(&traces) {
            assert_eq!(analysis.report.program, trace.meta.program);
            assert!(analysis.report.impact.original_time >= analysis.report.impact.ulcp_free_time);
        }
    }

    #[test]
    fn empty_batch_is_empty_not_an_error() {
        let batch = analyze_batch(&[], &PipelineConfig::default());
        assert!(batch.is_complete());
        assert_eq!(batch.num_traces(), 0);
        assert!(batch.fused_aggregates.is_empty());
        assert!(batch.recommendations.is_empty());
        assert_eq!(batch.top_opportunity(), 0.0);
    }

    /// A trace whose lock schedule names a thread that does not exist: once
    /// the grant before the corrupted one is released, the ELSC replay's
    /// targeted wake indexes the thread table out of bounds, so the
    /// per-trace pipeline panics (in release builds too). The corrupted
    /// grant is the first *repeat* grant of some lock, which guarantees a
    /// predecessor whose release reaches the wake.
    fn poisoned(seed: u64) -> Trace {
        let mut trace = record(seed);
        let mut seen = std::collections::BTreeSet::new();
        let repeat = trace
            .lock_schedule
            .iter()
            .position(|g| !seen.insert(g.lock))
            .expect("workload revisits a lock");
        trace.lock_schedule[repeat].thread = perfplay_trace::ThreadId::new(99);
        trace
    }

    /// Swaps in a no-op panic hook while `f` runs so intentionally poisoned
    /// traces don't spray backtraces into test output. Serialized because
    /// the hook is process-global.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = HOOK.lock().expect("panic hook lock");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn poisoned_trace_becomes_a_batch_item_error_and_others_fuse() {
        let traces = vec![record(200), poisoned(201), record(202)];
        let batch = with_quiet_panics(|| analyze_batch(&traces, &PipelineConfig::default()));

        assert_eq!(batch.failures.len(), 1);
        assert_eq!(batch.failures[0].trace_index, 1);
        assert!(matches!(batch.failures[0].error, PipelineError::Panic(_)));
        assert_eq!(batch.per_trace.len(), 2);
        // The survivors fuse exactly as if the poisoned trace was never
        // passed in.
        let clean = analyze_batch(&[record(200), record(202)], &PipelineConfig::default());
        assert_eq!(batch.fused_aggregates, clean.fused_aggregates);
        assert_eq!(batch.fused_breakdown, clean.fused_breakdown);
        assert_eq!(batch.recommendations, clean.recommendations);
    }

    #[test]
    fn concurrent_and_sequential_paths_are_panic_for_panic_equivalent() {
        let traces = vec![poisoned(210), record(211), poisoned(212)];
        let config = PipelineConfig::default();
        let (concurrent, sequential) = with_quiet_panics(|| {
            (
                analyze_batch(&traces, &config),
                analyze_batch_sequential(&traces, &config),
            )
        });

        assert_eq!(concurrent.failures, sequential.failures);
        assert_eq!(
            concurrent
                .failures
                .iter()
                .map(|f| f.trace_index)
                .collect::<Vec<_>>(),
            vec![0, 2]
        );
        for f in &concurrent.failures {
            assert!(matches!(f.error, PipelineError::Panic(_)));
        }
        assert_eq!(concurrent.per_trace.len(), sequential.per_trace.len());
        assert_eq!(concurrent.fused_aggregates, sequential.fused_aggregates);
        assert_eq!(concurrent.recommendations, sequential.recommendations);
    }

    #[test]
    fn chunk_file_sweep_matches_in_memory_detection() {
        use perfplay_record::spill_trace;

        let dir = std::env::temp_dir().join("perfplay-chunk-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        let mut traces = Vec::new();
        for (i, seed) in [300u64, 301, 302].iter().enumerate() {
            let trace = record(*seed);
            let path = dir.join(format!("sweep-{i}.chunks"));
            spill_trace(&trace, path.to_str().unwrap(), 16).unwrap();
            paths.push(path);
            traces.push(trace);
        }

        let config = PipelineConfig::default();
        let sweep = analyze_chunk_files(&paths, &config, RecoveryPolicy::Fail);
        assert!(sweep.failures.is_empty());
        assert_eq!(sweep.per_stream.len(), 3);
        assert_eq!(sweep.total_gaps(), 0);
        assert_eq!(sweep.total_events_lost(), 0);

        // Per-file plans match in-memory detection; the fused table is the
        // in-order merge.
        let mut fused = SiteAggregates::default();
        for (analysis, trace) in sweep.per_stream.iter().zip(&traces) {
            let direct = Detector::new(config.detector).plan(trace, BodyOverlapGain);
            assert_eq!(analysis.plan, direct);
            fused.merge(&direct.aggregates);
        }
        assert_eq!(sweep.fused_aggregates, fused);

        let missing = dir.join("does-not-exist.chunks");
        let with_bad = [paths[0].clone(), missing];
        let partial = analyze_chunk_files(&with_bad, &config, RecoveryPolicy::Fail);
        assert_eq!(partial.per_stream.len(), 1);
        assert_eq!(partial.failures.len(), 1);
        assert_eq!(partial.failures[0].trace_index, 1);
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
    }
}
