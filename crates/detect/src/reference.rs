//! The naive, snapshot-cloning reference detector.
//!
//! This is the historical implementation of [`Detector::analyze`] kept as an
//! executable specification: it materializes one full [`MemorySnapshot`]
//! clone per critical section (O(sections x objects) memory traffic) and runs
//! the pairing loop strictly sequentially. The optimized engine in
//! [`pairing`](crate::Detector) must produce bit-identical results — the
//! property suite and the `detect_scaling` benchmark both compare against
//! this function.

use std::collections::{BTreeMap, BTreeSet};

use perfplay_trace::{
    extract_critical_sections, sections_by_lock, CriticalSection, Event, MemAccess, ObjectId, Time,
    Trace,
};

use crate::kinds::{PairClass, UlcpKind};
use crate::pairing::{CausalEdge, DetectorConfig, Ulcp, UlcpAnalysis, UlcpBreakdown};
use crate::shadow::MemorySnapshot;
use crate::sink::{CollectPairs, SectionCtx, SinkAnalysis, UlcpSink};

/// Runs ULCP identification with the naive snapshot-per-section strategy.
///
/// Honors `use_reversed_replay` and `max_scan_per_thread` from the config;
/// the `parallel` flag is ignored (the reference is always sequential).
pub fn reference_analyze(trace: &Trace, config: DetectorConfig) -> UlcpAnalysis {
    reference_analyze_with(trace, config, CollectPairs::default()).into()
}

/// [`reference_analyze`] emitting through a caller-supplied sink — the
/// executable specification of the sink emission contract the optimized
/// engines must reproduce: locks ascending, each lock's sections ascending,
/// then the other threads ascending, each thread's later sections
/// ascending.
pub fn reference_analyze_with<S: UlcpSink>(
    trace: &Trace,
    config: DetectorConfig,
    mut sink: S,
) -> SinkAnalysis<S> {
    let sections = extract_critical_sections(trace);
    let snapshots = per_section_snapshots(trace, &sections);
    let by_lock = sections_by_lock(&sections);

    let mut breakdown = UlcpBreakdown {
        lock_acquisitions: trace.num_acquisitions(),
        ..UlcpBreakdown::default()
    };

    for (lock, lock_sections) in &by_lock {
        let mut per_thread: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for s in lock_sections {
            per_thread.entry(s.thread).or_default().push(*s);
        }
        for current in lock_sections {
            for (other_thread, others) in &per_thread {
                if *other_thread == current.thread {
                    continue;
                }
                let mut scanned = 0usize;
                // Same cap semantics as the optimized engine; see pairing.rs.
                #[allow(clippy::explicit_counter_loop)]
                for candidate in others.iter().filter(|s| s.id > current.id) {
                    if config.max_scan_per_thread.is_some_and(|cap| scanned >= cap) {
                        break;
                    }
                    let class = classify_pair_naive(
                        current,
                        candidate,
                        &snapshots[current.id.index()],
                        config.use_reversed_replay,
                    );
                    scanned += 1;
                    let ctx = SectionCtx {
                        first: current,
                        second: candidate,
                    };
                    match class {
                        PairClass::Tlcp => {
                            sink.emit_edge(
                                CausalEdge {
                                    from: current.id,
                                    to: candidate.id,
                                    lock: *lock,
                                },
                                &ctx,
                            );
                            breakdown.tlcp_edges += 1;
                            break;
                        }
                        PairClass::Ulcp(kind) => {
                            breakdown.add(kind);
                            sink.emit(
                                Ulcp {
                                    first: current.id,
                                    second: candidate.id,
                                    lock: *lock,
                                    kind,
                                },
                                &ctx,
                            );
                        }
                    }
                }
            }
        }
    }

    SinkAnalysis {
        sections,
        breakdown,
        sink,
    }
}

/// The historical pair classification: set tests by plain merge walk (no
/// summary-word pre-rejection) and a reversed replay that clones the *entire*
/// starting snapshot twice per conflicting pair. Classification results are
/// identical to [`classify_pair`](crate::classify_pair); only the costs
/// differ.
fn classify_pair_naive(
    c1: &CriticalSection,
    c2: &CriticalSection,
    state_before: &MemorySnapshot,
    use_reversed_replay: bool,
) -> PairClass {
    let class = if c1.is_access_free() || c2.is_access_free() {
        PairClass::Ulcp(UlcpKind::NullLock)
    } else if c1.writes.is_empty() && c2.writes.is_empty() {
        PairClass::Ulcp(UlcpKind::ReadRead)
    } else if !naive_intersects(c1.reads.as_slice(), c2.writes.as_slice())
        && !naive_intersects(c1.writes.as_slice(), c2.reads.as_slice())
        && !naive_intersects(c1.writes.as_slice(), c2.writes.as_slice())
    {
        PairClass::Ulcp(UlcpKind::DisjointWrite)
    } else {
        PairClass::Tlcp
    };
    match class {
        PairClass::Tlcp if use_reversed_replay => refine_naive(c1, c2, state_before),
        other => other,
    }
}

/// Linear merge intersection over two sorted slices, with none of the
/// optimized engine's summary or galloping short-cuts.
fn naive_intersects(a: &[ObjectId], b: &[ObjectId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The historical reversed replay: clones the whole starting snapshot for
/// each order and compares full read logs. The oracle of
/// [`refine_conflicting_pair`](crate::refine_conflicting_pair).
pub(crate) fn refine_naive(
    c1: &CriticalSection,
    c2: &CriticalSection,
    state_before: &MemorySnapshot,
) -> PairClass {
    let footprint: Vec<ObjectId> = c1
        .reads
        .iter()
        .chain(c1.writes.iter())
        .chain(c2.reads.iter())
        .chain(c2.writes.iter())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let forward = run_order_naive(c1, c2, state_before, &footprint);
    let reversed = run_order_naive(c2, c1, state_before, &footprint);

    let same_memory = forward.2 == reversed.2;
    let same_reads_c1 = forward.0 == reversed.1;
    let same_reads_c2 = forward.1 == reversed.0;
    if same_memory && same_reads_c1 && same_reads_c2 {
        PairClass::Ulcp(UlcpKind::Benign)
    } else {
        PairClass::Tlcp
    }
}

/// Replays `a` then `b` from a full clone of the starting snapshot (the
/// historical cost), returning (reads of a, reads of b, final footprint
/// memory).
#[allow(clippy::type_complexity)]
fn run_order_naive(
    a: &CriticalSection,
    b: &CriticalSection,
    start: &MemorySnapshot,
    footprint: &[ObjectId],
) -> (Vec<i64>, Vec<i64>, BTreeMap<ObjectId, i64>) {
    let mut memory = start.clone();
    let mut reads_a = Vec::new();
    let mut reads_b = Vec::new();
    for (section, reads) in [(a, &mut reads_a), (b, &mut reads_b)] {
        for access in &section.accesses {
            match access {
                MemAccess::Read(obj) => reads.push(memory.get(*obj)),
                MemAccess::Write(obj, op) => {
                    let new = op.apply(memory.get(*obj));
                    memory.set(*obj, new);
                }
            }
        }
    }
    (reads_a, reads_b, memory.project(footprint.iter().copied()))
}

/// Computes, for every critical section, the shared-memory snapshot just
/// before its entry, cloning the running map once per section — the cost the
/// optimized engine exists to avoid.
pub(crate) fn per_section_snapshots(
    trace: &Trace,
    sections: &[perfplay_trace::CriticalSection],
) -> Vec<MemorySnapshot> {
    let mut mem_events: Vec<(Time, &Event)> = trace
        .iter_events()
        .filter(|(_, _, te)| te.event.is_memory_access())
        .map(|(_, _, te)| (te.at, &te.event))
        .collect();
    mem_events.sort_by_key(|(at, _)| *at);

    let mut running: BTreeMap<ObjectId, i64> = BTreeMap::new();
    let mut snapshots = Vec::with_capacity(sections.len());
    let mut cursor = 0usize;
    for section in sections {
        while cursor < mem_events.len() && mem_events[cursor].0 < section.enter_time {
            match mem_events[cursor].1 {
                Event::Write { obj, value, .. } => {
                    running.insert(*obj, *value);
                }
                Event::Read { obj, value } => {
                    running.entry(*obj).or_insert(*value);
                }
                _ => {}
            }
            cursor += 1;
        }
        snapshots.push(MemorySnapshot::from_values(running.clone()));
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    #[test]
    fn reference_matches_optimized_on_a_mixed_workload() {
        let mut b = ProgramBuilder::new("ref-test");
        let locks: Vec<_> = (0..3).map(|i| b.lock(format!("l{i}"))).collect();
        let objs: Vec<_> = (0..5)
            .map(|i| b.shared(format!("o{i}"), i as i64))
            .collect();
        let site = b.site("ref.c", "f", 1);
        for t in 0..3 {
            let locks = locks.clone();
            let objs = objs.clone();
            b.thread(format!("t{t}"), |tb| {
                for k in 0..6usize {
                    let lock = locks[k % locks.len()];
                    let obj = objs[(t + k) % objs.len()];
                    tb.locked(lock, site, |cs| {
                        match k % 4 {
                            0 => {
                                cs.read(obj);
                            }
                            1 => {
                                cs.write_set(obj, 1);
                            }
                            2 => {
                                cs.write_add(obj, 1);
                            }
                            _ => {
                                cs.compute_ns(10);
                            }
                        };
                    });
                    tb.compute_ns(25);
                }
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;

        for config in [
            DetectorConfig::default(),
            DetectorConfig {
                use_reversed_replay: false,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                max_scan_per_thread: Some(2),
                ..DetectorConfig::default()
            },
        ] {
            let reference = reference_analyze(&trace, config);
            let optimized = Detector::new(config).analyze(&trace);
            assert_eq!(reference.breakdown, optimized.breakdown);
            assert_eq!(reference.ulcps, optimized.ulcps);
            assert_eq!(reference.edges, optimized.edges);
        }
    }
}
