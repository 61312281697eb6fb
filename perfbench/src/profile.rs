//! The traced run: calls each layer's public function directly, in the order
//! the pipeline calls it, and records a span around every call.
//!
//! Spans are kept in memory and written out when the benchmark ends. The
//! untraced timed analyses never touch this module, so the difference
//! between a traced `analyze` span and the untraced median is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use perfplay::prelude::*;
use perfplay_detect::LastWriteIndex;

use crate::workload::{Input, Outcome, Shape, Workload};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub workload: &'static str,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder; times are seconds since `origin`.
pub struct Tracer {
    origin: Instant,
    pub workload: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            workload: "",
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            workload: self.workload,
            name,
            start_s: now,
            end_s: now,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    fn span<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let value = f();
        self.close(id);
        value
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.workload, s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

/// The per-layer stages of one trace's analysis, in pipeline order.
const STAGES: [&str; 5] = [
    "detect",
    "transform",
    "replay.original",
    "replay.free",
    "report",
];

/// Chunk size of the PBIN files the traced run spills in-memory traces to.
const PROFILE_CHUNK_EVENTS: usize = 65_536;

/// Per-layer values of one traced run, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one traced run measured.
pub struct Profile {
    pub layers: Layers,
    /// Wall time of the traced `analyze` span.
    pub analyze_s: f64,
    /// Cross-path mismatches between the traced and the untraced analysis.
    pub errors: Vec<String>,
}

/// How the traced run detects on an in-memory trace: the engine the timed
/// analysis uses for that workload.
#[derive(Clone, Copy)]
enum Engine {
    Batch,
    Streaming { workers: usize, chunk_events: usize },
}

/// Runs one traced analysis of `input` and profiles the trace layer on it.
/// `untraced` is an untraced analysis of the same input; every traced result
/// must equal it.
pub fn profile(
    workload: Workload,
    shape: &Shape,
    input: &Input,
    config: &PipelineConfig,
    untraced: &Outcome,
    tracer: &mut Tracer,
    dir: &Path,
) -> Result<Profile, String> {
    tracer.workload = workload.name();
    let first_span = tracer.spans.len();
    let mut layers = Layers::new();
    let mut errors = Vec::new();

    let analyze_id = tracer.open("analyze", None);
    match (workload, untraced, *shape) {
        (Workload::DetectHeavy | Workload::ReplayHeavy, Outcome::Plan(expected), _) => {
            let trace = &input.traces[0];
            let staged = stages(tracer, analyze_id, trace, config, Engine::Batch)?;
            tracer.close(analyze_id);
            if staged.plan != expected.plan
                || staged.report != expected.report
                || staged.original_replay != expected.original_replay
                || staged.ulcp_free_replay != expected.ulcp_free_replay
            {
                errors.push("stage-by-stage analysis differs from analyze_plan".into());
            }
            count_stages(&mut layers, trace, &staged);
            count_report(
                &mut layers,
                &staged.report.recommendations,
                &staged.plan.aggregates,
            );
        }
        (Workload::AppSweep, Outcome::Batch(expected), _) => {
            let traced = Outcome::Batch(analyze_batch(&input.traces, config));
            tracer.close(analyze_id);
            if traced.digest() != untraced.digest() {
                errors.push("traced analyze_batch differs from the untraced one".into());
            }
            let mut merged = SiteAggregates::default();
            for (trace, expected) in input.traces.iter().zip(&expected.per_trace) {
                let id = tracer.open("input", None);
                let staged = stages(tracer, id, trace, config, Engine::Batch)?;
                tracer.close(id);
                if staged.report != expected.report {
                    errors.push(format!(
                        "{}: stage-by-stage report differs from analyze_batch's",
                        trace.meta.program
                    ));
                }
                count_stages(&mut layers, trace, &staged);
                merged.merge(&staged.plan.aggregates);
            }
            let recommendations = tracer.span("report.fuse", None, || {
                rank_groups(fuse_aggregates(&merged))
            });
            if recommendations != expected.recommendations {
                errors.push("fused stage-by-stage recommendations differ".into());
            }
            count_report(&mut layers, &recommendations, &merged);
        }
        (
            Workload::PbinIngest,
            Outcome::Chunks(expected),
            Shape::Files {
                clean_chunk_events, ..
            },
        ) => {
            let traced = analyze_chunk_files(&input.files, config, RecoveryPolicy::SkipChunk);
            tracer.close(analyze_id);
            if traced
                .per_stream
                .iter()
                .map(|s| &s.plan)
                .ne(expected.per_stream.iter().map(|s| &s.plan))
                || traced.recommendations != expected.recommendations
            {
                errors.push("traced analyze_chunk_files differs from the untraced one".into());
            }
            // Detection alone, on the clean file's trace in memory, with the
            // engine and chunking the on-disk path uses.
            let engine = Engine::Streaming {
                workers: config.stream_workers().unwrap_or(1),
                chunk_events: clean_chunk_events,
            };
            let trace = &input.traces[0];
            let id = tracer.open("input", None);
            let staged = stages(tracer, id, trace, config, engine)?;
            tracer.close(id);
            if expected.per_stream.first().map(|s| &s.plan) != Some(&staged.plan) {
                errors.push("in-memory streaming plan differs from the clean file's".into());
            }
            count_stages(&mut layers, trace, &staged);
            let recommendations = tracer.span("report.fuse", None, || {
                rank_groups(fuse_aggregates(&traced.fused_aggregates))
            });
            if recommendations != traced.recommendations {
                errors.push("re-fused recommendations differ from analyze_chunk_files'".into());
            }
            count_report(&mut layers, &recommendations, &traced.fused_aggregates);
        }
        _ => return Err("untraced outcome does not match the workload".into()),
    }

    let files = if input.files.is_empty() {
        spill(tracer, &input.traces, dir)?
    } else {
        input.files.clone()
    };
    let drained = drain(tracer, &files, &mut layers);
    if input.files.is_empty() {
        for f in &files {
            let _ = std::fs::remove_file(f);
        }
    }
    drained?;

    let spans = &tracer.spans[first_span..];
    let analyze_s = spans[0].duration_s();
    summarize_spans(spans, first_span, &mut layers);
    Ok(Profile {
        layers,
        analyze_s,
        errors,
    })
}

/// Detect, transform, replay twice and report on one trace — exactly what
/// `analyze_plan` does — with a span around each stage.
fn stages(
    tracer: &mut Tracer,
    parent: usize,
    trace: &Trace,
    config: &PipelineConfig,
    engine: Engine,
) -> Result<PlanAnalysis, String> {
    let parent = Some(parent);
    let (plan, streaming) = tracer
        .span("detect", parent, || match engine {
            Engine::Batch => Ok((
                Detector::new(config.detector).plan(trace, BodyOverlapGain),
                None,
            )),
            Engine::Streaming {
                workers,
                chunk_events,
            } => ParallelStreamingDetector::with_workers(config.detector, workers)
                .analyze_with(
                    &mut TraceChunks::new(trace, chunk_events),
                    PlanAggregator::new(BodyOverlapGain),
                )
                .map(|streamed| {
                    let (plan, stats) = DetectionPlan::from_streaming(streamed);
                    (plan, Some(stats))
                }),
        })
        .map_err(|e| format!("traced detection failed: {e}"))?;
    let transformed = tracer.span("transform", parent, || {
        Transformer::new(config.transform).transform_from_plan(trace, &plan)
    });
    let original_replay = tracer
        .span("replay.original", parent, || {
            Replayer::new(config.replay)
                .replay(trace, ReplaySchedule::for_kind(config.original_schedule))
        })
        .map_err(|e| format!("traced original replay failed: {e}"))?;
    let ulcp_free_replay = tracer
        .span("replay.free", parent, || {
            UlcpFreeReplayer::new(config.replay)
                .with_dls(config.use_dls)
                .replay(&transformed)
        })
        .map_err(|e| format!("traced ULCP-free replay failed: {e}"))?;
    let report = tracer.span("report", parent, || {
        let report = PerfReport::from_plan(
            trace,
            &plan,
            &transformed,
            &original_replay,
            &ulcp_free_replay,
        );
        // Freeing the transformed trace (a clone of the event log) is part
        // of the analysis; `analyze_plan` pays for it too.
        drop(transformed);
        match &streaming {
            Some(stats) => report.with_stream_gaps(stats.gaps, stats.events_lost),
            None => report,
        }
    });
    Ok(PlanAnalysis {
        plan,
        original_replay,
        ulcp_free_replay,
        report,
        streaming,
    })
}

/// Adds one trace's stage counts to `layers`: work done (summed over the
/// workload's traces) and resident peaks (the largest over them).
fn count_stages(layers: &mut Layers, trace: &Trace, staged: &PlanAnalysis) {
    let plan = &staged.plan;
    let stats = &staged.report.transform_stats;
    let b = &plan.breakdown;
    let mut add = |name, value: usize| *layers.entry(name).or_insert(0.0) += value as f64;
    add("detect.sections", plan.sections.len());
    add("detect.pairs", b.total_ulcps() + b.tlcp_edges);
    add("detect.plan_entries", plan.resident_entries());
    add("detect.aggregate_rows", plan.aggregates.len());
    add("transform.nodes", stats.nodes);
    add("transform.stripped", stats.stripped_sections);
    add("transform.aux_locks", stats.aux_locks);
    add("transform.order_constraints", stats.order_constraints);
    add("replay.events", 2 * trace.num_events());
    add(
        "replay.lockset_ops",
        staged.ulcp_free_replay.lockset_ops as usize,
    );
    // Batch detection holds every section and the whole last-write index
    // at once; the streaming engine reports its own resident peaks.
    let (live_sections, history) = match &staged.streaming {
        Some(stats) => (stats.peak_live_sections, stats.peak_history_entries),
        None => (
            plan.sections.len(),
            LastWriteIndex::build(trace).num_entries(),
        ),
    };
    let mut peak = |name, value: usize| {
        let slot = layers.entry(name).or_insert(0.0);
        *slot = slot.max(value as f64);
    };
    peak("detect.peak_live_sections", live_sections);
    peak("detect.peak_history_entries", history);
}

fn count_report(layers: &mut Layers, recommendations: &[Recommendation], rows: &SiteAggregates) {
    layers.insert("report.groups", recommendations.len() as f64);
    layers.insert(
        "report.groups_per_row",
        recommendations.len() as f64 / rows.len().max(1) as f64,
    );
}

/// Spills in-memory traces to PBIN files so the trace layer can be profiled
/// on workloads whose timed analysis never touches it.
fn spill(tracer: &mut Tracer, traces: &[Trace], dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let path = dir.join(format!("profile-{i}.pbin"));
        tracer
            .span("trace.spill", None, || {
                spill_trace_with_format(trace, &path, PROFILE_CHUNK_EVENTS, ChunkFormat::Pbin)
            })
            .map_err(|e| format!("spilling {} failed: {e}", path.display()))?;
        files.push(path);
    }
    Ok(files)
}

/// Drains each file through the pipelined reader with no consumer: framing,
/// decode and recovery alone.
fn drain(tracer: &mut Tracer, files: &[PathBuf], layers: &mut Layers) -> Result<(), String> {
    let (mut chunks, mut events, mut gaps, mut lost, mut bytes) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for path in files {
        let id = tracer.open("trace.drain", None);
        let mut reader =
            PipelinedChunkReader::with_options(path, RecoveryPolicy::SkipChunk, None, 0)
                .map_err(|e| format!("opening {} failed: {e}", path.display()))?;
        loop {
            match reader.next_item() {
                Ok(Some(StreamItem::Chunk(chunk))) => {
                    chunks += 1;
                    events += chunk.num_events() as u64;
                }
                Ok(Some(StreamItem::Gap(_))) => gaps += 1,
                Ok(None) => break,
                Err(e) => return Err(format!("draining {} failed: {e}", path.display())),
            }
        }
        lost += reader.events_lost();
        drop(reader);
        tracer.close(id);
        bytes += std::fs::metadata(path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
    }
    layers.insert("trace.chunks", chunks as f64);
    layers.insert("trace.drained_events", events as f64);
    layers.insert("trace.gaps", gaps as f64);
    layers.insert("trace.events_lost", lost as f64);
    layers.insert("trace.bytes", bytes as f64);
    Ok(())
}

/// Turns the run's spans into busy times and the ratios built on them.
/// `offset` is the index of `spans[0]` in the tracer.
fn summarize_spans(spans: &[Span], offset: usize, layers: &mut Layers) {
    let busy = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(Span::duration_s)
            .sum()
    };
    let detect_s = busy(&["detect"]);
    let drain_s = busy(&["trace.drain"]);
    layers.insert("detect.busy_s", detect_s);
    layers.insert("transform.busy_s", busy(&["transform"]));
    layers.insert("replay.original_s", busy(&["replay.original"]));
    layers.insert("replay.free_s", busy(&["replay.free"]));
    layers.insert("report.busy_s", busy(&["report", "report.fuse"]));
    layers.insert("trace.drain_s", drain_s);
    let spill_s = busy(&["trace.spill"]);
    if spill_s > 0.0 {
        layers.insert("trace.spill_s", spill_s);
    }

    // The spans that hold stage spans: the analysis of one trace each.
    let per_trace: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            spans
                .iter()
                .any(|s| s.parent == Some(offset + i) && STAGES.contains(&s.name))
        })
        .map(|(_, s)| s.duration_s())
        .collect();
    let per_trace_s: f64 = per_trace.iter().sum();
    layers.insert("batch.sum_trace_s", per_trace_s);
    layers.insert(
        "batch.max_trace_s",
        per_trace.iter().copied().fold(0.0, f64::max),
    );
    layers.insert("bench.layer_coverage", busy(&STAGES) / per_trace_s);

    let get = |layers: &Layers, name| layers.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    layers.insert(
        "detect.pairs_per_s",
        ratio(get(layers, "detect.pairs"), detect_s),
    );
    layers.insert(
        "trace.events_per_s",
        ratio(get(layers, "trace.drained_events"), drain_s),
    );
    layers.insert(
        "trace.bytes_per_event",
        ratio(
            get(layers, "trace.bytes"),
            get(layers, "trace.drained_events"),
        ),
    );
    layers.insert(
        "transform.stripped_ratio",
        ratio(
            get(layers, "transform.stripped"),
            get(layers, "transform.nodes"),
        ),
    );
    layers.insert(
        "replay.events_per_s",
        ratio(
            get(layers, "replay.events"),
            busy(&["replay.original", "replay.free"]),
        ),
    );
}
