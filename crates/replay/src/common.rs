//! Machinery shared by the original-trace and ULCP-free replayers: the cost
//! model, cross-thread event dependencies (condition variables, barriers) and
//! section lookup tables.

use std::collections::BTreeMap;

use perfplay_trace::{CriticalSection, Event, SectionId, Time, Trace};

/// Cost model used by the replayers. The lock/memory costs mirror the
/// simulator's recording-time model so that an ELSC replay of an unmodified
/// trace lands on the recorded execution time; the lockset costs price the
/// auxiliary synchronization the ULCP transformation introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Cost of acquiring a free lock.
    pub lock_acquire_cost: Time,
    /// Cost of releasing a lock.
    pub lock_release_cost: Time,
    /// Extra latency when a lock moves between threads.
    pub lock_handoff_cost: Time,
    /// Cost of one shared-memory access.
    pub mem_access_cost: Time,
    /// Cost of a condition-variable signal.
    pub cond_signal_cost: Time,
    /// Cost charged when a barrier releases.
    pub barrier_release_cost: Time,
    /// Cost of maintaining one lockset entry (acquire or release of one
    /// auxiliary lock, RULE 3/4).
    pub lockset_op_cost: Time,
    /// Cost of one dynamic-locking-strategy END-flag check (Figure 9).
    pub dls_check_cost: Time,
    /// Extra per-access instrumentation cost charged under MEM-S, modelling
    /// the shadow bookkeeping PinPlay/CoreDet-style tools pay to order every
    /// shared access (the 2×–20× slowdowns the paper cites).
    pub mem_order_overhead: Time,
    /// Per-acquisition wait charged under SYNC-S for its deterministic turn,
    /// modelling Kendo's logical-clock catch-up delay (Figure 12).
    pub sync_turn_overhead: Time,
    /// Hard cap on replay steps.
    pub max_steps: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            lock_acquire_cost: Time::from_nanos(25),
            lock_release_cost: Time::from_nanos(15),
            lock_handoff_cost: Time::from_nanos(60),
            mem_access_cost: Time::from_nanos(8),
            cond_signal_cost: Time::from_nanos(30),
            barrier_release_cost: Time::from_nanos(40),
            lockset_op_cost: Time::from_nanos(18),
            dls_check_cost: Time::from_nanos(3),
            mem_order_overhead: Time::from_nanos(150),
            sync_turn_overhead: Time::from_nanos(150),
            max_steps: 100_000_000,
        }
    }
}

/// An event position within a trace.
pub(crate) type EventRef = (usize, usize); // (thread index, event index)

/// Cross-thread dependencies derived from the recorded partial order of
/// non-mutex synchronization (Section 5.1: "for non-mutual exclusive
/// semaphores, PerfPlay only ensures the correctness of the partial order").
#[derive(Debug, Default, Clone)]
pub(crate) struct SyncDeps {
    /// For the first lock re-acquisition after a `CondWait`: the signal event
    /// it must wait for.
    pub wake_deps: BTreeMap<EventRef, EventRef>,
    /// Barrier groups: every `BarrierWait` event maps to the group of events
    /// (including itself) that must all arrive before any of them completes.
    pub barrier_groups: BTreeMap<EventRef, Vec<EventRef>>,
    /// The same crossings once each, as member lists: the form the engine
    /// indexes by group id.
    pub barrier_crossings: Vec<Vec<EventRef>>,
}

/// Builds the cross-thread dependency table for a trace, in one scan of
/// its events.
pub(crate) fn build_sync_deps(trace: &Trace) -> SyncDeps {
    let mut deps = SyncDeps::default();
    // Signals per condition variable, condvar waits, and barrier arrivals
    // grouped into crossings: arrivals that share a barrier id and an
    // original release timestamp belong to the same crossing.
    let mut signals: BTreeMap<u32, Vec<(Time, EventRef)>> = BTreeMap::new();
    let mut waits = Vec::new();
    let mut groups: BTreeMap<(u32, Time), Vec<EventRef>> = BTreeMap::new();
    for (ti, tt) in trace.threads.iter().enumerate() {
        for (ei, te) in tt.events.iter().enumerate() {
            match te.event {
                Event::CondSignal { cond, .. } => signals
                    .entry(cond.index() as u32)
                    .or_default()
                    .push((te.at, (ti, ei))),
                Event::CondWait { cond, lock } => waits.push((ti, ei, te.at, cond, lock)),
                Event::BarrierWait { barrier } => groups
                    .entry((barrier.index() as u32, te.at))
                    .or_default()
                    .push((ti, ei)),
                _ => {}
            }
        }
    }
    for list in signals.values_mut() {
        list.sort();
    }

    // For every CondWait, the dependency attaches to the *re-acquisition*
    // (the next LockAcquire of the same lock in the same thread), because the
    // waiter releases the lock before the signaller can possibly run. It
    // waits for the first signal on the condvar at or after the wait.
    for (ti, ei, at, cond, lock) in waits {
        let events = &trace.threads[ti].events;
        let reacquire = events[ei + 1..].iter().position(
            |later| matches!(later.event, Event::LockAcquire { lock: l, .. } if l == lock),
        );
        let Some(offset) = reacquire else { continue };
        if let Some(list) = signals.get(&(cond.index() as u32)) {
            if let Some((_, sig)) = list.iter().find(|(sig_at, _)| *sig_at >= at) {
                deps.wake_deps.insert((ti, ei + 1 + offset), *sig);
            }
        }
    }

    for group in groups.into_values() {
        for member in &group {
            deps.barrier_groups.insert(*member, group.clone());
        }
        deps.barrier_crossings.push(group);
    }
    deps
}

/// Lookup from lock acquire / release event positions to the critical
/// section they delimit: one slot per event of each thread, holding the
/// section's id or [`SectionIndex::NONE`]. An event is either an acquire or
/// a release, so one table answers both lookups.
#[derive(Debug)]
pub(crate) struct SectionIndex {
    by_event: Vec<Vec<u32>>,
}

impl SectionIndex {
    /// Slot value of an event that delimits no section.
    const NONE: u32 = u32::MAX;

    /// Builds the event-to-section lookup for the sections of a trace.
    pub fn new(trace: &Trace, sections: &[CriticalSection]) -> Self {
        let mut by_event: Vec<Vec<u32>> = trace
            .threads
            .iter()
            .map(|t| vec![Self::NONE; t.events.len()])
            .collect();
        for s in sections {
            let row = &mut by_event[s.thread.index()];
            row[s.acquire_index] = s.id.index() as u32;
            row[s.release_index] = s.id.index() as u32;
        }
        SectionIndex { by_event }
    }

    /// The section whose acquire or release is event `idx` of thread `ti`.
    pub fn get(&self, ti: usize, idx: usize) -> Option<SectionId> {
        match self.by_event[ti][idx] {
            Self::NONE => None,
            raw => Some(SectionId::new(raw)),
        }
    }
}

/// One past the largest application lock index a trace names in its events
/// or recorded grants: the length of every lock-indexed replay table.
pub(crate) fn lock_table_len(trace: &Trace) -> usize {
    let events = trace.threads.iter().flat_map(|t| &t.events);
    let in_events = events.filter_map(|te| match te.event {
        Event::LockAcquire { lock, .. } | Event::LockRelease { lock } => Some(lock.index() + 1),
        _ => None,
    });
    let in_grants = trace.lock_schedule.iter().map(|g| g.lock.index() + 1);
    in_events.chain(in_grants).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::extract_critical_sections;

    #[test]
    fn default_config_is_consistent_with_recording_model() {
        let rc = ReplayConfig::default();
        let sc = SimConfig::default();
        assert_eq!(rc.lock_acquire_cost, sc.lock_acquire_cost);
        assert_eq!(rc.lock_release_cost, sc.lock_release_cost);
        assert_eq!(rc.lock_handoff_cost, sc.lock_handoff_cost);
        assert_eq!(rc.mem_access_cost, sc.mem_access_cost);
        assert!(rc.lockset_op_cost > rc.dls_check_cost);
    }

    #[test]
    fn cond_wait_dependency_points_at_reacquisition_and_signal() {
        let mut b = ProgramBuilder::new("deps");
        let lock = b.lock("m");
        let cv = b.condvar("cv");
        let flag = b.shared("flag", 0);
        let site_w = b.site("d.c", "waiter", 1);
        let site_s = b.site("d.c", "signaller", 2);
        b.thread("waiter", |t| {
            t.locked(lock, site_w, |cs| {
                cs.cond_wait(cv, lock);
                cs.read(flag);
            });
        });
        b.thread("signaller", |t| {
            t.compute_us(3);
            t.locked(lock, site_s, |cs| {
                cs.write_set(flag, 1);
                cs.cond_signal(cv);
            });
        });
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let deps = build_sync_deps(&trace);
        assert_eq!(deps.wake_deps.len(), 1);
        let (&(wti, wei), &(sti, sei)) = deps.wake_deps.iter().next().unwrap();
        assert_eq!(wti, 0);
        // The dependency target is the reacquisition (a LockAcquire event).
        assert!(trace.threads[wti].events[wei].event.is_acquire());
        // The dependency source is the signal on the other thread.
        assert!(matches!(
            trace.threads[sti].events[sei].event,
            Event::CondSignal { .. }
        ));
        assert!(deps.barrier_groups.is_empty());
    }

    #[test]
    fn barrier_groups_contain_all_participants() {
        let mut b = ProgramBuilder::new("bar-deps");
        let bar = b.barrier("sync", 3);
        for i in 0..3u32 {
            b.thread(format!("t{i}"), move |t| {
                t.compute_ns(u64::from(i + 1) * 100);
                t.barrier(bar);
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let deps = build_sync_deps(&trace);
        assert_eq!(deps.barrier_groups.len(), 3);
        for group in deps.barrier_groups.values() {
            assert_eq!(group.len(), 3);
        }
    }

    #[test]
    fn section_index_maps_acquires_and_releases() {
        let mut b = ProgramBuilder::new("index");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("i.c", "f", 1);
        b.thread("t", |t| {
            t.loop_n(3, |l| {
                l.locked(lock, site, |cs| {
                    cs.read(x);
                });
            });
        });
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let sections = extract_critical_sections(&trace);
        assert_eq!(sections.len(), 3);
        let index = SectionIndex::new(&trace, &sections);
        for s in &sections {
            assert_eq!(index.get(s.thread.index(), s.acquire_index), Some(s.id));
            assert_eq!(index.get(s.thread.index(), s.release_index), Some(s.id));
        }
        // Every other event maps to no section.
        let delimiters = 2 * sections.len();
        let mapped = (0..trace.threads[0].events.len())
            .filter(|&i| index.get(0, i).is_some())
            .count();
        assert_eq!(mapped, delimiters);
        assert_eq!(lock_table_len(&trace), 1);
    }
}
