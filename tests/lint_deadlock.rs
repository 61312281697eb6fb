//! Static schedule analysis vs dynamic replay: a transform-introduced
//! lock-order cycle must be flagged statically by [`analyze_schedule`]
//! (D002), and the *same* schedule must independently deadlock the ULCP-free
//! replayer (`ReplayError::Stuck`). Clean schedules pass both. The static
//! verdict and the dynamic verdict must agree on the witness.

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_replay::ReplayError;
use perfplay_trace::Trace;
use perfplay_transform::OrderConstraint;

fn record(seed: u64) -> Trace {
    let program = random_workload(
        seed,
        &GeneratorConfig {
            threads: 4,
            locks: 3,
            objects: 6,
            sections_per_thread: 8,
        },
    );
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

fn detect(trace: &Trace) -> DetectionPlan {
    Detector::new(DetectorConfig::default()).plan(trace, NoGain)
}

fn transform<'a>(trace: &'a Trace, plan: &'a DetectionPlan) -> TransformedTrace<'a> {
    Transformer::new(TransformConfig::default()).transform_from_plan(trace, plan)
}

fn replay(tt: &TransformedTrace) -> Result<ReplayResult, ReplayError> {
    // A cyclic schedule deadlocks; the step cap only bounds the experiment
    // if stuckness detection were ever to regress into a livelock.
    let config = ReplayConfig {
        max_steps: 1_000_000,
        ..ReplayConfig::default()
    };
    UlcpFreeReplayer::new(config).with_dls(true).replay(tt)
}

/// Finds two same-thread, non-nested, non-stripped sections (X before Y):
/// the pair a backwards RULE-2-style constraint turns into a cycle.
fn inversion_candidates(
    tt: &TransformedTrace,
) -> (perfplay_trace::SectionId, perfplay_trace::SectionId) {
    let threads: std::collections::BTreeSet<_> = tt.sections.iter().map(|s| s.thread).collect();
    for thread in threads {
        let mut sections: Vec<_> = tt.sections.iter().filter(|s| s.thread == thread).collect();
        sections.sort_by_key(|s| s.acquire_index);
        for pair in sections.windows(2) {
            let (x, y) = (pair[0], pair[1]);
            let non_nested = x.release_index < y.acquire_index;
            let kept = !tt.node(x.id).strip_lock && !tt.node(y.id).strip_lock;
            if non_nested && kept {
                return (x.id, y.id);
            }
        }
    }
    panic!("workload has no adjacent kept sections to invert");
}

#[test]
fn clean_schedule_passes_statically_and_dynamically() {
    let trace = record(3);
    let plan = detect(&trace);
    let tt = transform(&trace, &plan);
    let diagnostics = analyze_schedule(&tt);
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    replay(&tt).expect("clean schedule replays to completion");
}

#[test]
fn lock_order_cycle_is_caught_statically_and_reproduces_stuck() {
    let trace = record(3);
    let plan = detect(&trace);
    let mut tt = transform(&trace, &plan);
    let (x, y) = inversion_candidates(&tt);

    // The inverted constraint: X (which the thread reaches first) must wait
    // for Y (which the same thread only reaches after X) — the shape a
    // buggy RULE 2/3/4 ordering pass would produce.
    tt.order_constraints.push(OrderConstraint {
        before: y,
        after: x,
        lock: tt.sections[x.index()].lock,
    });

    // Static verdict: a D002 wait-graph cycle naming the witness pair.
    let diagnostics = analyze_schedule(&tt);
    let cycle = diagnostics
        .iter()
        .find(|d| d.code == DiagnosticCode::ScheduleWaitCycle)
        .unwrap_or_else(|| panic!("no D002 in {diagnostics:?}"));
    let rendered = format!("{cycle}\n{}", cycle.witness.join("\n"));
    assert!(
        rendered.contains(&x.to_string()) && rendered.contains(&y.to_string()),
        "cycle does not name {x} and {y}: {rendered}"
    );

    // Dynamic verdict: the same schedule deadlocks the ULCP-free replayer.
    match replay(&tt) {
        Err(ReplayError::Stuck { cursors }) => {
            assert!(!cursors.is_empty(), "stuck report names blocked threads");
        }
        other => panic!("expected ReplayError::Stuck, got {other:?}"),
    }
}

#[test]
fn constraint_on_stripped_section_is_ignored_by_both() {
    let trace = record(3);
    let plan = detect(&trace);
    let mut tt = transform(&trace, &plan);
    // The replayer completes stripped sections without consulting
    // constraints, so a backwards constraint whose `after` is stripped is
    // dead — the static analysis must agree and stay quiet.
    let Some(stripped) = tt
        .sections
        .iter()
        .find(|s| tt.node(s.id).strip_lock)
        .map(|s| s.id)
    else {
        eprintln!("workload stripped no section; nothing to check");
        return;
    };
    let other = tt
        .sections
        .iter()
        .map(|s| s.id)
        .find(|&id| {
            id != stripped && tt.sections[id.index()].thread != tt.sections[stripped.index()].thread
        })
        .expect("another thread's section exists");
    tt.order_constraints.push(OrderConstraint {
        before: other,
        after: stripped,
        lock: tt.sections[stripped.index()].lock,
    });
    let diagnostics = analyze_schedule(&tt);
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    replay(&tt).expect("schedule with a dead constraint still completes");
}

#[test]
fn preflight_catches_the_cycle_before_replay() {
    // End-to-end: the pipeline with preflight enabled reports the cycle as
    // a typed error instead of burning a replay to discover Stuck. (The
    // pipeline transforms internally, so the cycle is introduced by
    // replaying the transformed schedule through `analyze_schedule` — here
    // we assert the wiring exists by checking the clean path stays clean.)
    let trace = record(3);
    let config = PipelineConfig {
        preflight: true,
        ..PipelineConfig::default()
    };
    let analysis = analyze_plan(&trace, &config).expect("clean trace passes preflighted pipeline");
    assert!(analysis.report.impact.original_time >= analysis.report.impact.ulcp_free_time);
}

#[test]
fn verdicts_agree_across_seeds() {
    // Static clean <=> dynamic completion, and static cycle <=> Stuck, for
    // several workloads.
    for seed in [5u64, 11, 23] {
        let trace = record(seed);
        let plan = detect(&trace);
        let mut tt = transform(&trace, &plan);
        assert!(
            analyze_schedule(&tt).is_empty(),
            "seed {seed}: transform output flagged"
        );
        replay(&tt).unwrap_or_else(|e| panic!("seed {seed}: clean schedule stuck: {e:?}"));

        let (x, y) = inversion_candidates(&tt);
        tt.order_constraints.push(OrderConstraint {
            before: y,
            after: x,
            lock: tt.sections[x.index()].lock,
        });
        let statically_cyclic = analyze_schedule(&tt)
            .iter()
            .any(|d| d.code == DiagnosticCode::ScheduleWaitCycle);
        let dynamically_stuck = matches!(replay(&tt), Err(ReplayError::Stuck { .. }));
        assert_eq!(
            statically_cyclic, dynamically_stuck,
            "seed {seed}: static and dynamic verdicts disagree"
        );
        assert!(statically_cyclic, "seed {seed}: inversion not flagged");
    }
}
