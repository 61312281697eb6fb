//! `perfbench`: times the PerfPlay pipeline end to end and layer by layer.
//!
//! ```text
//! perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--spans FILE]
//! ```
//!
//! For each workload (all four when none is named) the benchmark generates
//! the input from the seed several times, timing each set-up; runs one
//! warm-up analysis and checks its output; then repeats the analysis for
//! `--seconds` seconds. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer metrics of traced runs interleaved with the untraced ones,
//! and no `--trace` both. The last line of standard output is one JSON
//! object per workload: `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 0 only when every check passed.

#![forbid(unsafe_code)]

mod measure;
mod profile;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use perfplay::prelude::default_decode_workers;

use measure::{available_parallelism_now, median, quantile, USER_HZ};
use profile::{Layers, Tracer};
use workload::{Input, Workload};

/// Set-ups per run; `setup_s` is their median. Set-ups take tens of
/// milliseconds, so one stall moves a single sample by a large share.
const SETUP_REPS: usize = 15;
/// Timed untraced analyses per run, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("analyze_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit).
const PER_LAYER: [(&str, &str); 36] = [
    ("record.busy_s", "s"),
    ("record.events", "count"),
    ("trace.spill_s", "s"),
    ("trace.bytes", "B"),
    ("trace.drain_s", "s"),
    ("trace.events_per_s", "1/s"),
    ("trace.bytes_per_event", "B"),
    ("trace.chunks", "count"),
    ("trace.gaps", "count"),
    ("trace.events_lost", "count"),
    ("detect.busy_s", "s"),
    ("detect.sections", "count"),
    ("detect.pairs", "count"),
    ("detect.pairs_per_s", "1/s"),
    ("detect.plan_entries", "count"),
    ("detect.aggregate_rows", "count"),
    ("detect.peak_live_sections", "count"),
    ("detect.peak_history_entries", "count"),
    ("detect.workers", "count"),
    ("transform.busy_s", "s"),
    ("transform.stripped_ratio", "ratio"),
    ("transform.aux_locks", "count"),
    ("transform.order_constraints", "count"),
    ("replay.original_s", "s"),
    ("replay.free_s", "s"),
    ("replay.events_per_s", "1/s"),
    ("replay.lockset_ops", "count"),
    ("report.busy_s", "s"),
    ("report.groups", "count"),
    ("report.groups_per_row", "ratio"),
    ("batch.sum_trace_s", "s"),
    ("batch.max_trace_s", "s"),
    ("batch.efficiency", "ratio"),
    ("pipeline.overlap", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("bench.layer_coverage", "ratio"),
];

const USAGE: &str =
    "usage: perfbench [--workload detect-heavy|replay-heavy|pbin-ingest|app-sweep]... \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans FILE]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: print both metric sets.
    trace: Option<bool>,
    quick: bool,
    spans: Option<PathBuf>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workloads: Vec::new(),
            seed: workload::DEFAULT_SEED,
            seconds: 10.0,
            trace: None,
            quick: false,
            spans: None,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let w = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                    parsed.workloads.push(w);
                }
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                    parsed.seconds = s;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => Some(false),
                        "1" => Some(true),
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                "--quick" => parsed.quick = true,
                "--spans" => parsed.spans = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if parsed.workloads.is_empty() {
            parsed.workloads = Workload::ALL.to_vec();
        }
        Ok(parsed)
    }
}

/// A per-run scratch directory inside the working directory, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    const ROOT: &'static str = ".perfbench-work";

    fn create(workload: Workload) -> Result<WorkDir, String> {
        let path =
            Path::new(Self::ROOT).join(format!("{}-{}", std::process::id(), workload.name()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the root.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

/// The result of one workload's run.
struct RunResult {
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    end_to_end: Layers,
    per_layer: Layers,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    println!(
        "env: available_parallelism={} decode_workers={} seed={} warmup=1 min_reps={MIN_REPS} \
         setup_reps={SETUP_REPS} seconds={} quick={} user_hz={USER_HZ} (assumed)",
        available_parallelism_now(),
        default_decode_workers(),
        args.seed,
        args.seconds,
        args.quick,
    );
    let mut all_correct = true;
    for &w in &args.workloads {
        let result = match run(w, &args, &mut tracer) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for e in &result.errors {
            eprintln!("perfbench: {}: check failed: {e}", w.name());
        }
        all_correct &= result.errors.is_empty();
        print_result(&result, args.trace);
    }
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(w: Workload, args: &Args, tracer: &mut Tracer) -> Result<RunResult, String> {
    let shape = w.shape(args.quick);
    let config = w.pipeline_config();
    let dir = WorkDir::create(w)?;
    // Fail before any work if peak RSS cannot be measured.
    measure::reset_peak_rss()?;

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut input: Option<Input> = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let (generated, cost) = workload::setup(&shape, args.seed, &dir.0)?;
        setups.push(cost);
        input = Some(generated);
    }
    let mut input = input.expect("SETUP_REPS > 0");
    let mut errors = Vec::new();
    if setups.iter().any(|c| c.events != setups[0].events) {
        errors.push("set-up is not deterministic: recorded event counts differ".into());
    }
    println!(
        "workload {}: {}; recorded_events={} detect_workers={}",
        w.name(),
        shape.describe(),
        setups[0].events,
        w.detect_workers(&config, &input),
    );

    // The untimed warm-up analysis: every later output must equal it.
    let warm = workload::analyze(w, &input, &config)?;
    let digest = warm.digest();
    println!("digest {}: {digest:016x}", w.name());
    errors.extend(workload::check(
        w, args.quick, args.seed, &input, &config, &warm,
    ));

    // Every run makes at least one traced run, which checks the stage-by-stage
    // path against the untraced analysis.
    let mut profiles = vec![profile::profile(
        w, &shape, &input, &config, &warm, tracer, &dir.0,
    )?];
    let traced = args.trace != Some(false);
    if !traced && w == Workload::PbinIngest {
        // The timed on-disk analysis must not find the input in memory.
        input.traces.clear();
    }

    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let window = Instant::now();
    let mut rep = 0usize;
    while walls.len() < MIN_REPS || window.elapsed().as_secs_f64() < args.seconds {
        attempted += input.items();
        if traced && rep % 2 == 1 {
            let p = profile::profile(w, &shape, &input, &config, &warm, tracer, &dir.0)?;
            if !p.errors.is_empty() {
                failed += input.items();
            }
            profiles.push(p);
        } else {
            measure::reset_peak_rss()?;
            let cpu0 = measure::cpu_seconds()?;
            let start = Instant::now();
            let outcome = workload::analyze(w, &input, &config);
            let wall = start.elapsed().as_secs_f64();
            let cpu = measure::cpu_seconds()? - cpu0;
            rss.push(measure::peak_rss_mib()?);
            walls.push(wall);
            cpus.push(cpu);
            match outcome {
                Ok(o) if o.digest() == digest => failed += o.failed_items(),
                Ok(_) => {
                    failed += input.items();
                    errors.push(format!(
                        "timed analysis {} changed the report digest",
                        walls.len()
                    ));
                }
                Err(e) => {
                    failed += input.items();
                    errors.push(format!("timed analysis {} failed: {e}", walls.len()));
                }
            }
        }
        rep += 1;
    }
    for p in &profiles {
        errors.extend(p.errors.iter().cloned());
    }

    let analyze_s = median(&walls);
    println!(
        "timed {}: n={} analyze_s p25={:.4} p50={analyze_s:.4} p75={:.4}; traced runs={}",
        w.name(),
        walls.len(),
        quantile(&walls, 0.25),
        quantile(&walls, 0.75),
        profiles.len(),
    );
    let mut end_to_end = Layers::new();
    end_to_end.insert("analyze_s", analyze_s);
    end_to_end.insert("cpu_s", median(&cpus));
    end_to_end.insert("peak_rss_mb", median(&rss));
    let setup_s: Vec<f64> = setups.iter().map(|c| c.total_s).collect();
    end_to_end.insert("setup_s", median(&setup_s));

    let mut per_layer = Layers::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = profiles
            .iter()
            .filter_map(|p| p.layers.get(name).copied())
            .collect();
        if !values.is_empty() {
            per_layer.insert(name, median(&values));
        }
    }
    let record_s: Vec<f64> = setups.iter().map(|c| c.record_s).collect();
    per_layer.insert("record.busy_s", median(&record_s));
    per_layer.insert("record.events", setups[0].events as f64);
    if w == Workload::PbinIngest {
        let spill_s: Vec<f64> = setups.iter().map(|c| c.spill_s).collect();
        per_layer.insert("trace.spill_s", median(&spill_s));
    }
    per_layer.insert("detect.workers", w.detect_workers(&config, &input) as f64);
    let layer = |name| per_layer.get(name).copied().unwrap_or(0.0);
    let efficiency = layer("batch.sum_trace_s") / (analyze_s * available_parallelism_now() as f64);
    let overlap = (layer("trace.drain_s") + layer("detect.busy_s")) / analyze_s;
    let traced_analyze: Vec<f64> = profiles.iter().map(|p| p.analyze_s).collect();
    per_layer.insert("batch.efficiency", efficiency);
    per_layer.insert("pipeline.overlap", overlap);
    per_layer.insert(
        "bench.trace_overhead_s",
        median(&traced_analyze) - analyze_s,
    );

    for (values, names) in [(&end_to_end, &END_TO_END[..]), (&per_layer, &PER_LAYER[..])] {
        for (name, _) in names {
            if !values.get(name).is_some_and(|v| v.is_finite()) {
                errors.push(format!("metric {name} is missing or not finite"));
            }
        }
    }
    Ok(RunResult {
        errors,
        attempted,
        failed,
        end_to_end,
        per_layer,
    })
}

fn print_result(result: &RunResult, trace: Option<bool>) {
    let mut sets: Vec<(&Layers, &[(&str, &str)])> = Vec::new();
    if trace != Some(true) {
        sets.push((&result.end_to_end, &END_TO_END));
    }
    if trace != Some(false) {
        sets.push((&result.per_layer, &PER_LAYER));
    }
    let mut metrics = Vec::new();
    for (values, names) in sets {
        for &(name, unit) in names {
            let value = values.get(name).copied().unwrap_or(f64::NAN);
            println!("{name} {value} {unit}");
            // JSON has no NaN or infinity; such a value already failed a check.
            let json_value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{json_value},\"unit\":\"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.errors.is_empty(),
        result.attempted.max(1),
        result.failed,
        metrics.join(",")
    );
}
