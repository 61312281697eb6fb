//! The four benchmark workloads: how each is generated from the seed, which
//! library entry point analyzes it, and how its output is checked.

use std::path::{Path, PathBuf};

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, App, GeneratorConfig, InputSize, WorkloadConfig};

use crate::measure::{available_parallelism_now, time_s, Fnv};

/// The seed the pinned digests below were taken with.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A trace large enough that ULCP detection dominates the analysis.
    DetectHeavy,
    /// Few threads per lock: pairing is cheap, so transformation, both
    /// replays and the report do most of the work.
    ReplayHeavy,
    /// The on-disk path: PBIN framing, pooled decode, CRC resync and sharded
    /// streaming detection, with no transformation or replay.
    PbinIngest,
    /// The 16 application models of Table 1 through the batch driver: many
    /// small traces and a concurrent work queue.
    AppSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DetectHeavy,
        Workload::ReplayHeavy,
        Workload::PbinIngest,
        Workload::AppSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectHeavy => "detect-heavy",
            Workload::ReplayHeavy => "replay-heavy",
            Workload::PbinIngest => "pbin-ingest",
            Workload::AppSweep => "app-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated input's shape. `quick` shrinks every workload to a size
    /// that runs in well under a second even in a debug build.
    pub fn shape(self, quick: bool) -> Shape {
        let pick = |full: u64, small: u64| if quick { small } else { full };
        let detect_shape = |target_events| Synthetic {
            threads: 16,
            locks: 16,
            objects: 2048,
            target_events,
        };
        match self {
            Workload::DetectHeavy => Shape::InMemory(detect_shape(pick(250_000, 20_000))),
            Workload::ReplayHeavy => Shape::InMemory(Synthetic {
                threads: 4,
                locks: 1,
                objects: 64,
                target_events: pick(400_000, 40_000),
            }),
            Workload::PbinIngest => Shape::Files {
                clean: detect_shape(pick(500_000, 60_000)),
                clean_chunk_events: pick(65_536, 4_096) as usize,
                corrupt: detect_shape(pick(100_000, 20_000)),
                corrupt_chunk_events: pick(8_192, 1_024) as usize,
            },
            Workload::AppSweep => Shape::Apps {
                threads: if quick { 4 } else { 12 },
                scale: if quick { 0.25 } else { 3.0 },
            },
        }
    }

    /// The pipeline configuration the timed analysis runs under.
    pub fn pipeline_config(self) -> PipelineConfig {
        // The per-thread search cap keeps pairing linear in the section
        // count, as on the repository's detection benchmarks; the app sweep
        // runs uncapped Algorithm 1, as in the paper's Table 1.
        let capped = DetectorConfig {
            max_scan_per_thread: Some(4),
            ..DetectorConfig::default()
        };
        match self {
            Workload::DetectHeavy | Workload::ReplayHeavy => PipelineConfig {
                detector: capped,
                ..PipelineConfig::default()
            },
            Workload::PbinIngest => PipelineConfig {
                detector: DetectorConfig {
                    parallel: true,
                    ..capped
                },
                ..PipelineConfig::default()
            },
            Workload::AppSweep => PipelineConfig::default(),
        }
    }

    /// Threads that run detection concurrently in the timed analysis, as the
    /// library's defaults resolve them on this machine.
    pub fn detect_workers(self, config: &PipelineConfig, input: &Input) -> usize {
        match self {
            Workload::DetectHeavy | Workload::ReplayHeavy => 1,
            Workload::PbinIngest => config.stream_workers().unwrap_or(1),
            Workload::AppSweep => available_parallelism_now().min(input.traces.len().max(1)),
        }
    }
}

/// Shape of one `random_workload` trace.
#[derive(Debug, Clone, Copy)]
pub struct Synthetic {
    pub threads: usize,
    pub locks: usize,
    pub objects: usize,
    pub target_events: u64,
}

impl Synthetic {
    fn record(self, seed: u64) -> Result<(Trace, f64), String> {
        let config = GeneratorConfig::for_event_target(
            self.threads,
            self.locks,
            self.objects,
            self.target_events,
        );
        let program = random_workload(seed, &config);
        let (recorded, record_s) = time_s(|| Recorder::new(SimConfig::default()).record(&program));
        let trace = recorded
            .map_err(|e| format!("recording the generated program failed: {e}"))?
            .trace;
        Ok((trace, record_s))
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One in-memory trace.
    InMemory(Synthetic),
    /// A clean PBIN file plus a second, bit-flipped one (from seed + 1).
    Files {
        clean: Synthetic,
        clean_chunk_events: usize,
        corrupt: Synthetic,
        corrupt_chunk_events: usize,
    },
    /// Every application model at `threads` threads and input scale `scale`.
    Apps { threads: usize, scale: f64 },
}

impl Shape {
    pub fn describe(&self) -> String {
        let synthetic = |s: &Synthetic| {
            format!(
                "random_workload(threads={}, locks={}, objects={}, target_events={})",
                s.threads, s.locks, s.objects, s.target_events
            )
        };
        match self {
            Shape::InMemory(s) => synthetic(s),
            Shape::Files {
                clean,
                clean_chunk_events,
                corrupt,
                corrupt_chunk_events,
            } => format!(
                "clean pbin {} chunk_events={}; corrupt pbin (seed+1, BitFlip) {} chunk_events={}",
                synthetic(clean),
                clean_chunk_events,
                synthetic(corrupt),
                corrupt_chunk_events
            ),
            Shape::Apps { threads, scale } => format!(
                "{} App::ALL models, WorkloadConfig::new({threads}, InputSize::Custom({scale}))",
                App::ALL.len()
            ),
        }
    }
}

/// A generated workload input.
pub struct Input {
    /// In-memory traces: the one trace, the app traces, or — for
    /// pbin-ingest — the clean file's trace, kept for the cross-path checks
    /// and the traced run and released before untraced timing.
    pub traces: Vec<Trace>,
    /// pbin-ingest: the clean file, then the corrupted one.
    pub files: Vec<PathBuf>,
    /// pbin-ingest: events the corrupted file's writer recorded.
    pub corrupt_source_events: u64,
}

impl Input {
    /// Items one analysis attempts: analyses, chunk files or batch traces.
    pub fn items(&self) -> usize {
        if self.files.is_empty() {
            self.traces.len()
        } else {
            self.files.len()
        }
    }
}

/// What one set-up cost, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    pub total_s: f64,
    pub record_s: f64,
    pub spill_s: f64,
    pub events: u64,
}

/// Generates the workload's input from `seed`, writing any files into `dir`.
pub fn setup(shape: &Shape, seed: u64, dir: &Path) -> Result<(Input, SetupCost), String> {
    let start = std::time::Instant::now();
    let mut cost = SetupCost::default();
    let mut input = Input {
        traces: Vec::new(),
        files: Vec::new(),
        corrupt_source_events: 0,
    };
    match *shape {
        Shape::InMemory(synthetic) => {
            let (trace, record_s) = synthetic.record(seed)?;
            cost.record_s = record_s;
            input.traces.push(trace);
        }
        Shape::Files {
            clean,
            clean_chunk_events,
            corrupt,
            corrupt_chunk_events,
        } => {
            let (trace, record_s) = clean.record(seed)?;
            let clean_path = dir.join("clean.pbin");
            let (written, spill_s) = time_s(|| {
                spill_trace_with_format(&trace, &clean_path, clean_chunk_events, ChunkFormat::Pbin)
            });
            written.map_err(|e| format!("spilling the clean trace failed: {e}"))?;
            input.traces.push(trace);

            let (source, source_record_s) = corrupt.record(seed.wrapping_add(1))?;
            let source_path = dir.join("corrupt-source.pbin");
            let corrupt_path = dir.join("corrupt.pbin");
            let (written, source_spill_s) = time_s(|| {
                spill_trace_with_format(
                    &source,
                    &source_path,
                    corrupt_chunk_events,
                    ChunkFormat::Pbin,
                )
            });
            written.map_err(|e| format!("spilling the corruption source failed: {e}"))?;
            corrupt_chunk_file(&source_path, &corrupt_path, FaultKind::BitFlip, seed)
                .map_err(|e| format!("corrupting the second file failed: {e}"))?;
            std::fs::remove_file(&source_path)
                .map_err(|e| format!("removing the corruption source failed: {e}"))?;
            input.corrupt_source_events = source.num_events() as u64;
            cost.events = input.corrupt_source_events;
            cost.record_s = record_s + source_record_s;
            cost.spill_s = spill_s + source_spill_s;
            input.files = vec![clean_path, corrupt_path];
        }
        Shape::Apps { threads, scale } => {
            let config = WorkloadConfig::new(threads, InputSize::Custom(scale));
            // The models are fixed programs; the seed drives the recorder's
            // tie-breaking among threads contending at the same instant.
            let recorder = Recorder::new(SimConfig::with_seed(seed));
            for app in App::ALL {
                let program = app.build(&config);
                let (recorded, record_s) = time_s(|| recorder.record(&program));
                let trace = recorded
                    .map_err(|e| format!("recording {app:?} failed: {e}"))?
                    .trace;
                cost.record_s += record_s;
                input.traces.push(trace);
            }
        }
    }
    cost.events += input
        .traces
        .iter()
        .map(|t| t.num_events() as u64)
        .sum::<u64>();
    cost.total_s = start.elapsed().as_secs_f64();
    Ok((input, cost))
}

/// The output of one analysis.
pub enum Outcome {
    Plan(Box<PlanAnalysis>),
    Chunks(ChunkBatchAnalysis),
    Batch(BatchAnalysis),
}

/// Runs the workload's analysis: exactly the library call a user would make.
pub fn analyze(
    workload: Workload,
    input: &Input,
    config: &PipelineConfig,
) -> Result<Outcome, String> {
    match workload {
        Workload::DetectHeavy | Workload::ReplayHeavy => analyze_plan(&input.traces[0], config)
            .map(|a| Outcome::Plan(Box::new(a)))
            .map_err(|e| e.to_string()),
        Workload::PbinIngest => Ok(Outcome::Chunks(analyze_chunk_files(
            &input.files,
            config,
            RecoveryPolicy::SkipChunk,
        ))),
        Workload::AppSweep => Ok(Outcome::Batch(analyze_batch(&input.traces, config))),
    }
}

impl Outcome {
    /// Items (chunk files or batch traces) the analysis reported as failed.
    pub fn failed_items(&self) -> usize {
        match self {
            Outcome::Plan(_) => 0,
            Outcome::Chunks(c) => c.failures.len(),
            Outcome::Batch(b) => b.failures.len(),
        }
    }

    /// Full-report digest: ranked recommendations, breakdown, and both replay
    /// makespans of every analyzed trace (stream statistics for chunk files,
    /// which are not replayed).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Outcome::Plan(a) => mix_plan(&mut h, a),
            Outcome::Chunks(c) => {
                mix_recommendations(&mut h, &c.recommendations);
                mix_breakdown(&mut h, &c.fused_breakdown);
                for stream in &c.per_stream {
                    h.mix(stream.stats.events as u64);
                    h.mix(stream.stats.gaps as u64);
                    h.mix(stream.stats.events_lost);
                }
            }
            Outcome::Batch(b) => {
                mix_recommendations(&mut h, &b.recommendations);
                mix_breakdown(&mut h, &b.fused_breakdown);
                for a in &b.per_trace {
                    mix_plan(&mut h, a);
                }
            }
        }
        h.finish()
    }
}

fn mix_plan(h: &mut Fnv, a: &PlanAnalysis) {
    mix_recommendations(h, &a.report.recommendations);
    mix_breakdown(h, &a.report.breakdown);
    h.mix(a.original_replay.total_time.as_nanos());
    h.mix(a.ulcp_free_replay.total_time.as_nanos());
}

fn mix_recommendations(h: &mut Fnv, recommendations: &[Recommendation]) {
    for rec in recommendations {
        for site in rec.group.region_first.iter() {
            h.mix(u64::from(site.raw()));
        }
        for site in rec.group.region_second.iter() {
            h.mix(u64::from(site.raw()) | (1 << 32));
        }
        h.mix(rec.group.dynamic_pairs as u64);
        h.mix(rec.group.gain_ns);
        h.mix(rec.opportunity.to_bits());
    }
}

fn mix_breakdown(h: &mut Fnv, b: &UlcpBreakdown) {
    for count in [
        b.lock_acquisitions,
        b.null_lock,
        b.read_read,
        b.disjoint_write,
        b.benign,
        b.tlcp_edges,
    ] {
        h.mix(count as u64);
    }
}

/// Full-report digests of [`DEFAULT_SEED`], per workload and size
/// (`quick`). A change to these is a change to what PerfPlay reports.
const PINNED_DIGESTS: [(Workload, bool, u64); 8] = [
    (Workload::DetectHeavy, false, 0x089f_c1eb_7dcc_0679),
    (Workload::ReplayHeavy, false, 0x811f_74c2_f199_2bce),
    (Workload::PbinIngest, false, 0x00de_fca4_c624_2258),
    (Workload::AppSweep, false, 0x043d_2dc6_c67d_e4e7),
    (Workload::DetectHeavy, true, 0xab08_eb96_856d_46e5),
    (Workload::ReplayHeavy, true, 0x4037_b5c4_26e6_55df),
    (Workload::PbinIngest, true, 0x8d43_0947_96d6_5b7c),
    (Workload::AppSweep, true, 0x2efb_b7cb_6048_567a),
];

/// Gaps and lost events the corrupted pbin-ingest file yields at
/// [`DEFAULT_SEED`], per size (`quick`).
const PINNED_RECOVERY: [(bool, usize, u64); 2] = [(false, 2, 8101), (true, 2, 938)];

/// Checks one analysis of the workload's input against its pinned digest (at
/// the default seed) and against an independent path through the library
/// (at any seed). Returns one message per failed check.
pub fn check(
    workload: Workload,
    quick: bool,
    seed: u64,
    input: &Input,
    config: &PipelineConfig,
    outcome: &Outcome,
) -> Vec<String> {
    let mut errors = Vec::new();
    if outcome.failed_items() > 0 {
        errors.push(format!("{} item(s) failed", outcome.failed_items()));
    }
    let digest = outcome.digest();
    if seed == DEFAULT_SEED {
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(w, q, _)| *w == workload && *q == quick)
            .map(|(_, _, d)| *d);
        if pinned != Some(digest) {
            errors.push(format!(
                "report digest {digest:016x} differs from the pinned {:016x}",
                pinned.unwrap_or(0)
            ));
        }
    }
    match outcome {
        // The stage-by-stage equality is checked by every traced run.
        Outcome::Plan(_) => {}
        Outcome::Chunks(chunks) => {
            errors.extend(check_chunks(quick, seed, input, config, chunks));
        }
        Outcome::Batch(batch) => {
            let sequential = analyze_batch_sequential(&input.traces, config);
            if sequential.recommendations != batch.recommendations
                || sequential.fused_aggregates != batch.fused_aggregates
                || sequential.fused_breakdown != batch.fused_breakdown
            {
                errors.push("analyze_batch differs from analyze_batch_sequential".into());
            }
        }
    }
    errors
}

fn check_chunks(
    quick: bool,
    seed: u64,
    input: &Input,
    config: &PipelineConfig,
    chunks: &ChunkBatchAnalysis,
) -> Vec<String> {
    let mut errors = Vec::new();
    let [clean, corrupt] = chunks.per_stream.as_slice() else {
        errors.push(format!(
            "expected 2 analyzed chunk files, got {}",
            chunks.per_stream.len()
        ));
        return errors;
    };
    let in_memory = Detector::new(DetectorConfig {
        parallel: false,
        ..config.detector
    })
    .plan(&input.traces[0], BodyOverlapGain);
    if clean.plan != in_memory {
        errors.push("clean-file plan differs from Detector::plan on the in-memory trace".into());
    }
    if clean.stats.gaps != 0 {
        errors.push(format!("clean file reported {} gap(s)", clean.stats.gaps));
    }
    let stats = &corrupt.stats;
    if stats.gaps == 0 {
        errors.push("corrupted file reported no gap".into());
    }
    let accounted = stats.events as u64 + stats.events_lost;
    if accounted != input.corrupt_source_events {
        errors.push(format!(
            "corrupted file: {} delivered + {} lost != {} recorded",
            stats.events, stats.events_lost, input.corrupt_source_events
        ));
    }
    if seed == DEFAULT_SEED {
        let pinned = PINNED_RECOVERY
            .iter()
            .find(|(q, _, _)| *q == quick)
            .map(|&(_, gaps, lost)| (gaps, lost));
        if pinned != Some((stats.gaps, stats.events_lost)) {
            errors.push(format!(
                "corrupted file: {} gap(s) and {} lost events; pinned (gaps, lost) {pinned:?}",
                stats.gaps, stats.events_lost
            ));
        }
    }
    errors
}
