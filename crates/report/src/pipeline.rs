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
//!
//! Each entry point resolves one thread budget when it is called
//! ([`PipelineConfig::stream_workers`]) and splits it between its stages, so
//! thread pools never nest and no output depends on the budget.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;

use perfplay_detect::{
    BodyOverlapGain, DetectionPlan, Detector, DetectorConfig, ParallelStreamingDetector,
    PlanAggregator, SiteAggregates, StreamingStats, UlcpBreakdown,
};
use perfplay_lint::{analyze_schedule, lint_chunk_file, lint_trace, Diagnostic, LintConfig};
use perfplay_replay::{
    ReplayConfig, ReplayError, ReplayResult, ReplaySchedule, Replayer, ScheduleKind,
    UlcpFreeReplayer,
};
use perfplay_trace::{
    available_threads, map_work_queue, PipelinedChunkReader, RecoveryPolicy, StreamError, Trace,
};
use perfplay_transform::{TransformConfig, Transformer};

use crate::fusion::{fuse_aggregates, rank_groups, Recommendation};
use crate::report::{PerfReport, ReportParts};

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

/// Runs one trace through the pipeline on `threads` threads with panic
/// isolation: a panicking stage yields [`PipelineError::Panic`] instead of
/// unwinding the caller.
fn analyze_plan_caught(
    trace: &Trace,
    config: &PipelineConfig,
    threads: usize,
) -> Result<PlanAnalysis, PipelineError> {
    catch_unwind(AssertUnwindSafe(|| analyze_plan_on(trace, config, threads)))
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
    /// batch engine runs, fanning out per lock on the same budget.
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
    /// The resolved thread budget: with [`DetectorConfig::parallel`] set
    /// (the default), `Some(n)` with one thread per available core
    /// ([`available_threads`]); otherwise `None`, which means one thread.
    ///
    /// Each entry point reads it once per call. [`analyze_plan`] spends it
    /// on the per-lock fan-out (or the streaming workers) and on its two
    /// lanes after detection; [`analyze_batch`] splits it between its trace
    /// queue and each trace; [`analyze_chunk_files`] gives it to the
    /// streaming engine. Output is bit-identical whatever it says. It sizes
    /// detection only: chunk files are read through the pipelined scanner,
    /// whose decode pool is sized apart, whatever it says.
    pub fn stream_workers(&self) -> Option<usize> {
        self.detector.parallel.then(available_threads)
    }

    /// The thread budget as a count: [`stream_workers`](Self::stream_workers),
    /// or 1.
    fn threads(&self) -> usize {
        self.stream_workers().unwrap_or(1)
    }
}

/// Everything one single-pass pipeline run produced. The transformed trace
/// borrows the recorded trace and the plan's section table, so it cannot
/// outlive the run; its statistics live on in `report.transform_stats`.
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
/// # Threads
///
/// The run spends the budget [`PipelineConfig::stream_workers`] resolves,
/// n threads, twice. Detection fans out per lock on min(n, locks) threads
/// (batch, when the trace has more than one lock) or runs n streaming
/// workers (`chunk_events` set). After detection, two lanes run side by
/// side when n > 1:
///
/// 1. on the calling thread: the transformation, the schedule preflight
///    when [`PipelineConfig::preflight`] is set, and the ULCP-free replay;
/// 2. on one scoped thread: the original replay, Algorithm 2 fusion and
///    Equation 2 ranking of the plan's rows, and the trace statistics.
///
/// With n = 1 (`parallel: false`) every stage runs on the calling thread,
/// except that streaming detection keeps its one worker thread.
/// The outcome does not depend on n: it is the first failure in the
/// sequential order — trace preflight, detection, transformation, schedule
/// preflight, original replay, ULCP-free replay, report — and a panic in
/// either lane is re-raised with its own payload.
///
/// # Errors
///
/// Returns [`PipelineError::Preflight`] when [`PipelineConfig::preflight`]
/// is set and the trace or the transformed schedule has error-severity
/// findings, [`PipelineError::Replay`] if a replay fails, and
/// [`PipelineError::Stream`] if the chunked stream is malformed.
pub fn analyze_plan(trace: &Trace, config: &PipelineConfig) -> Result<PlanAnalysis, PipelineError> {
    analyze_plan_on(trace, config, config.threads())
}

/// [`analyze_plan`] on a budget of `threads` threads (at least one).
fn analyze_plan_on(
    trace: &Trace,
    config: &PipelineConfig,
    threads: usize,
) -> Result<PlanAnalysis, PipelineError> {
    if config.preflight {
        let chunk_events = config.chunk_events.unwrap_or(PREFLIGHT_CHUNK_EVENTS);
        if let Some(errors) = preflight_errors(lint_trace(trace, chunk_events)) {
            return Err(PipelineError::Preflight(errors));
        }
    }
    let (plan, streaming) = match config.chunk_events {
        Some(chunk_events) => {
            let streamed = ParallelStreamingDetector::with_workers(config.detector, threads)
                .analyze_trace_with(trace, chunk_events, PlanAggregator::new(BodyOverlapGain))?;
            let (plan, stats) = DetectionPlan::from_streaming(streamed);
            (plan, Some(stats))
        }
        None => (
            Detector::with_workers(config.detector, threads).plan(trace, BodyOverlapGain),
            None,
        ),
    };
    let (original_replay, ulcp_free_replay, mut report) =
        replay_and_report(trace, config, &plan, threads)?;
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

/// The stages after detection, in the two lanes of [`analyze_plan`]'s
/// `# Threads` section; with one thread, lane 2 runs on the calling thread
/// where the lanes join. Each lane's failure is held until every stage
/// before it in the sequential order has succeeded, so the outcome does not
/// depend on which lane finishes first.
fn replay_and_report(
    trace: &Trace,
    config: &PipelineConfig,
    plan: &DetectionPlan,
    threads: usize,
) -> Result<(ReplayResult, ReplayResult, PerfReport), PipelineError> {
    // Lane 2 reads only the trace and the plan.
    let lane2 = || {
        let original = Replayer::new(config.replay)
            .replay(trace, ReplaySchedule::for_kind(config.original_schedule));
        // The report comes after both replays in the sequential order, so
        // a panic here waits until the ULCP-free replay has settled.
        let parts = catch_unwind(AssertUnwindSafe(|| ReportParts::of(trace, plan)));
        (original, parts)
    };
    std::thread::scope(|scope| {
        let spawned = (threads > 1).then(|| scope.spawn(lane2));
        let transformed = Transformer::new(config.transform).transform_from_plan(trace, plan);
        if config.preflight {
            // A transform-introduced lock-order inversion (RULEs 2–4) is
            // caught here as a wait-graph cycle instead of as a stuck
            // ULCP-free replay.
            let schedule_errors: Vec<Diagnostic> = analyze_schedule(&transformed);
            if !schedule_errors.is_empty() {
                // No later stage runs in the sequential order: lane 2's
                // outcome, a panic included, is dropped.
                if let Some(lane) = spawned {
                    let _ = lane.join();
                }
                return Err(PipelineError::Preflight(schedule_errors));
            }
        }
        let free = catch_unwind(AssertUnwindSafe(|| {
            UlcpFreeReplayer::new(config.replay)
                .with_dls(config.use_dls)
                .replay(&transformed)
        }));
        let (original, parts) = match spawned {
            Some(lane) => lane.join().unwrap_or_else(|payload| resume_unwind(payload)),
            None => lane2(),
        };
        let original_replay = original?;
        let ulcp_free_replay = free.unwrap_or_else(|payload| resume_unwind(payload))?;
        let parts = parts.unwrap_or_else(|payload| resume_unwind(payload));
        let report = PerfReport::assemble(
            trace,
            plan,
            parts,
            &transformed,
            &original_replay,
            &ulcp_free_replay,
        );
        Ok((original_replay, ulcp_free_replay, report))
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
/// report, running the per-trace pipelines concurrently over the work queue
/// the detector's per-lock fan-out also uses ([`map_work_queue`]), with
/// whole traces as its items. Results come back in input order and the
/// aggregate merge is order-independent, so the output is bit-identical to
/// analyzing the traces sequentially and merging in order — which
/// [`analyze_batch_sequential`] does, as the executable spec.
///
/// The thread budget n ([`PipelineConfig::stream_workers`]) is split once:
/// w = min(n, traces) queue workers, and ⌊n / w⌋ threads for each trace's
/// [`analyze_plan`]. So no more than n threads ever analyze at once, and
/// pools never nest. With w = 1 the traces run on the calling thread.
///
/// A failing trace — replay error, malformed stream, or a panic anywhere in
/// its pipeline (isolated with `catch_unwind`) — becomes one
/// [`BatchItemError`] in [`BatchAnalysis::failures`] while the other N-1
/// traces complete and fuse normally.
pub fn analyze_batch(traces: &[Trace], config: &PipelineConfig) -> BatchAnalysis {
    analyze_batch_on(traces, config, config.threads())
}

/// How [`analyze_batch`] splits a budget of `threads` threads over
/// `traces` traces: (queue workers, threads per trace). Their product never
/// exceeds the budget, and each is at least one.
fn batch_split(threads: usize, traces: usize) -> (usize, usize) {
    let threads = threads.max(1);
    let workers = threads.min(traces.max(1));
    (workers, threads / workers)
}

/// [`analyze_batch`] on a budget of `threads` threads.
fn analyze_batch_on(traces: &[Trace], config: &PipelineConfig, threads: usize) -> BatchAnalysis {
    let (workers, per_trace) = batch_split(threads, traces.len());
    if workers == 1 {
        return analyze_in_order(traces, config, per_trace);
    }
    let results = map_work_queue(traces.len(), workers, |i| {
        analyze_plan_caught(&traces[i], config, per_trace)
    });
    fuse_batch(results.into_iter())
}

/// The sequential executable spec of [`analyze_batch`]: per-trace analysis
/// in input order, each on the whole thread budget, aggregate merge in
/// input order, and the same per-trace panic isolation (panic-for-panic
/// equivalent with the concurrent path).
pub fn analyze_batch_sequential(traces: &[Trace], config: &PipelineConfig) -> BatchAnalysis {
    analyze_in_order(traces, config, config.threads())
}

/// Analyzes the traces one after another on the calling thread, each on
/// `threads` threads, and fuses them.
fn analyze_in_order(traces: &[Trace], config: &PipelineConfig, threads: usize) -> BatchAnalysis {
    fuse_batch(
        traces
            .iter()
            .map(|trace| analyze_plan_caught(trace, config, threads)),
    )
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
    let (fused_aggregates, fused_breakdown, recommendations) =
        fuse_plans(per_trace.iter().map(|analysis| &analysis.plan));
    BatchAnalysis {
        per_trace,
        failures,
        fused_aggregates,
        fused_breakdown,
        recommendations,
    }
}

/// The merged aggregate table, summed breakdown and ranked recommendations
/// of per-item plans.
fn fuse_plans<'a>(
    plans: impl Iterator<Item = &'a DetectionPlan>,
) -> (SiteAggregates, UlcpBreakdown, Vec<Recommendation>) {
    let mut aggregates = SiteAggregates::default();
    let mut breakdown = UlcpBreakdown::default();
    for plan in plans {
        aggregates.merge(&plan.aggregates);
        breakdown.merge_totals(&plan.breakdown);
    }
    let recommendations = rank_groups(fuse_aggregates(&aggregates));
    (aggregates, breakdown, recommendations)
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
/// [`PipelineConfig::stream_workers`] (resolved once per call); `parallel`
/// sizes detection only and never picks the reader, whose decode pool is
/// [`default_decode_workers`](perfplay_trace::default_decode_workers). A
/// file that still fails (or panics a detector stage) becomes one
/// [`BatchItemError`] while the other files complete and fuse.
pub fn analyze_chunk_files<P: AsRef<Path>>(
    paths: &[P],
    config: &PipelineConfig,
    policy: RecoveryPolicy,
) -> ChunkBatchAnalysis {
    let workers = config.threads();
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
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Framing and decoding overlap with detection whatever the
            // worker count; `parallel` only sizes the detector.
            let mut reader = PipelinedChunkReader::with_policy(path, policy)?;
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
    let (fused_aggregates, fused_breakdown, recommendations) =
        fuse_plans(per_stream.iter().map(|analysis| &analysis.plan));
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

    /// The default config with `parallel: false`: one thread for the run.
    fn one_thread() -> PipelineConfig {
        PipelineConfig {
            detector: DetectorConfig {
                parallel: false,
                ..DetectorConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn parallel_streaming_pipeline_matches_one_worker_and_batch() {
        let trace = record(7);
        let batch = analyze_plan(&trace, &PipelineConfig::default()).unwrap();
        let one_worker_config = PipelineConfig {
            chunk_events: Some(17),
            ..one_thread()
        };
        assert_eq!(one_worker_config.stream_workers(), None);
        let one_worker = analyze_plan(&trace, &one_worker_config).unwrap();
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
        assert_eq!(one_thread().stream_workers(), None);
        assert_eq!(
            PipelineConfig::default().stream_workers(),
            Some(available_threads())
        );
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
        let sequential = analyze_chunk_files(&paths, &one_thread(), RecoveryPolicy::Fail);
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
        static HOOK: std::sync::Mutex<()> = std::sync::Mutex::new(());
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

    /// A recorded `random_workload` trace of the given shape.
    fn record_shape(seed: u64, threads: usize, locks: usize) -> Trace {
        let program = random_workload(
            seed,
            &GeneratorConfig {
                threads,
                locks,
                objects: 4,
                sections_per_thread: 10,
            },
        );
        Recorder::new(SimConfig::default())
            .record(&program)
            .unwrap()
            .trace
    }

    /// Asserts that two analyses agree field for field. Of the streaming
    /// statistics, the live-section and history peaks are left out: the
    /// streaming engine sums them over its workers, so they bound the true
    /// peak from above by a margin that depends on the worker count.
    fn assert_same_analysis(a: &PlanAnalysis, b: &PlanAnalysis, label: &str) {
        assert_eq!(a.plan, b.plan, "{label}: plan");
        assert_eq!(
            a.original_replay, b.original_replay,
            "{label}: original replay"
        );
        assert_eq!(
            a.ulcp_free_replay, b.ulcp_free_replay,
            "{label}: ULCP-free replay"
        );
        assert_eq!(a.report, b.report, "{label}: report");
        let counts = |stats: Option<StreamingStats>| {
            stats.map(|s| StreamingStats {
                peak_live_sections: 0,
                peak_history_entries: 0,
                ..s
            })
        };
        assert_eq!(
            counts(a.streaming),
            counts(b.streaming),
            "{label}: streaming stats"
        );
    }

    #[test]
    fn analyze_plan_is_identical_at_every_thread_count() {
        let traces = [
            ("multi-lock", record_shape(61, 4, 3)),
            ("single-lock", record_shape(62, 3, 1)),
        ];
        for (shape, trace) in &traces {
            for cap in [None, Some(2)] {
                for chunk_events in [None, Some(13)] {
                    let config = PipelineConfig {
                        detector: DetectorConfig {
                            max_scan_per_thread: cap,
                            ..DetectorConfig::default()
                        },
                        chunk_events,
                        ..PipelineConfig::default()
                    };
                    let one = analyze_plan_on(trace, &config, 1).unwrap();
                    assert!(one.report.breakdown.total_ulcps() > 0, "{shape}");
                    for threads in [2, 3, 8] {
                        let label =
                            format!("{shape}, cap {cap:?}, chunks {chunk_events:?}, n = {threads}");
                        let many = analyze_plan_on(trace, &config, threads).unwrap();
                        assert_same_analysis(&many, &one, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn analyze_batch_is_identical_at_every_thread_count() {
        let traces: Vec<Trace> = (0..16)
            .map(|i| record_shape(400 + i, 2 + i as usize % 3, 1 + i as usize % 3))
            .collect();
        let config = PipelineConfig::default();
        let sequential = analyze_batch_sequential(&traces, &config);
        assert!(sequential.is_complete());
        for threads in [1, 2, 8] {
            let batch = analyze_batch_on(&traces, &config, threads);
            assert_eq!(batch.failures, sequential.failures, "n = {threads}");
            assert_eq!(batch.fused_aggregates, sequential.fused_aggregates);
            assert_eq!(batch.fused_breakdown, sequential.fused_breakdown);
            assert_eq!(batch.recommendations, sequential.recommendations);
            assert_eq!(batch.per_trace.len(), sequential.per_trace.len());
            for (b, s) in batch.per_trace.iter().zip(&sequential.per_trace) {
                assert_same_analysis(b, s, &format!("n = {threads}"));
            }
        }
    }

    /// The batch split never runs more analysis threads than the budget:
    /// every queue worker runs one trace at a time on its share.
    #[test]
    fn batch_split_stays_within_the_budget() {
        for threads in 1..=64 {
            for traces in 0..=40 {
                let (workers, per_trace) = batch_split(threads, traces);
                assert!(
                    workers * per_trace <= threads,
                    "n = {threads}, {traces} traces: {workers} x {per_trace}"
                );
                assert!(workers >= 1 && per_trace >= 1);
                assert!(workers <= traces.max(1));
            }
        }
        // Two cores over the 16 Table 1 traces: one thread per trace.
        assert_eq!(batch_split(2, 16), (2, 1));
        assert_eq!(batch_split(8, 3), (3, 2));
        assert_eq!(batch_split(4, 1), (1, 4));
    }

    /// A panic in the original-replay lane reaches the caller with its own
    /// payload, exactly as on one thread.
    #[test]
    fn a_lane_panic_keeps_its_payload() {
        let trace = poisoned(220);
        let config = PipelineConfig::default();
        let (one, two) = with_quiet_panics(|| {
            (
                analyze_plan_caught(&trace, &config, 1),
                analyze_plan_caught(&trace, &config, 2),
            )
        });
        let (Err(one), Err(two)) = (one, two) else {
            panic!("the poisoned trace must fail on one thread and on two");
        };
        let PipelineError::Panic(message) = &one else {
            panic!("the poisoned trace must panic, got {one:?}");
        };
        assert!(message.contains("index out of bounds"), "{message}");
        assert_eq!(two, one);
    }
}
