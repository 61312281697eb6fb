//! Summary statistics over a recorded trace.

use serde::{Deserialize, Serialize};

use crate::event::Event;
use crate::ids::LockId;
use crate::time::Time;
use crate::trace::Trace;

/// Aggregate statistics of a trace, used by reports and by the Table 1
/// reproduction ("# Locks" is `lock_acquisitions`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of threads.
    pub threads: usize,
    /// Total events recorded.
    pub events: usize,
    /// Dynamic lock acquisitions.
    pub lock_acquisitions: usize,
    /// Dynamic critical sections (equals acquisitions for balanced traces).
    pub critical_sections: usize,
    /// Shared reads recorded.
    pub reads: usize,
    /// Shared writes recorded.
    pub writes: usize,
    /// Condition-variable waits.
    pub cond_waits: usize,
    /// Barrier waits.
    pub barrier_waits: usize,
    /// Distinct static code sites that produced critical sections.
    pub static_sites: usize,
    /// Makespan of the original execution.
    pub total_time: Time,
    /// Sum of per-thread intrinsic compute cost.
    pub total_compute: Time,
}

impl TraceStats {
    /// Computes statistics for a trace.
    pub fn of(trace: &Trace) -> Self {
        let mut stats = TraceStats {
            threads: trace.num_threads(),
            total_time: trace.total_time,
            ..TraceStats::default()
        };
        let mut sites = std::collections::BTreeSet::new();
        // Locks currently held per thread, innermost last: a release closes
        // the innermost open acquire of its lock, the same matching rule as
        // `extract_critical_sections`, so the count agrees without building
        // the sections.
        let mut open: Vec<LockId> = Vec::new();
        for tt in &trace.threads {
            open.clear();
            for te in &tt.events {
                stats.events += 1;
                stats.total_compute += te.event.intrinsic_cost();
                match &te.event {
                    Event::LockAcquire { lock, site } => {
                        stats.lock_acquisitions += 1;
                        sites.insert(*site);
                        open.push(*lock);
                    }
                    Event::LockRelease { lock } => {
                        if let Some(pos) = open.iter().rposition(|l| l == lock) {
                            open.remove(pos);
                            stats.critical_sections += 1;
                        }
                    }
                    Event::Read { .. } => stats.reads += 1,
                    Event::Write { .. } => stats.writes += 1,
                    Event::CondWait { .. } => stats.cond_waits += 1,
                    Event::BarrierWait { .. } => stats.barrier_waits += 1,
                    _ => {}
                }
            }
        }
        stats.static_sites = sites.len();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WriteOp;
    use crate::ids::{CodeSiteId, ObjectId};
    use crate::section::extract_critical_sections;
    use crate::trace::TraceMeta;

    #[test]
    fn stats_count_event_categories() {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        {
            let t0 = &mut trace.threads[0];
            t0.push(
                Time::from_nanos(3),
                Event::Compute {
                    cost: Time::from_nanos(3),
                },
            );
            t0.push(
                Time::from_nanos(4),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(0),
                },
            );
            t0.push(
                Time::from_nanos(5),
                Event::Read {
                    obj: ObjectId::new(0),
                    value: 0,
                },
            );
            t0.push(
                Time::from_nanos(6),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
        }
        {
            let t1 = &mut trace.threads[1];
            t1.push(
                Time::from_nanos(1),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(1),
                },
            );
            t1.push(
                Time::from_nanos(2),
                Event::Write {
                    obj: ObjectId::new(0),
                    op: WriteOp::Set(1),
                    value: 1,
                },
            );
            t1.push(
                Time::from_nanos(3),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
        }
        trace.total_time = Time::from_nanos(6);

        let stats = TraceStats::of(&trace);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.events, 7);
        assert_eq!(stats.lock_acquisitions, 2);
        assert_eq!(stats.critical_sections, 2);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.static_sites, 2);
        assert_eq!(stats.total_compute, Time::from_nanos(3));
        assert_eq!(stats.total_time, Time::from_nanos(6));
    }

    #[test]
    fn stats_of_empty_trace_are_zero() {
        let stats = TraceStats::of(&Trace::new(TraceMeta::default(), 0));
        assert_eq!(stats, TraceStats::default());
    }

    #[test]
    fn section_count_matches_extraction_on_unbalanced_traces() {
        let acquire = |lock: u32| Event::LockAcquire {
            lock: LockId::new(lock),
            site: CodeSiteId::new(lock),
        };
        let release = |lock: u32| Event::LockRelease {
            lock: LockId::new(lock),
        };
        let mut trace = Trace::new(TraceMeta::default(), 3);
        // T0: an orphan release, then same-lock reentry (A A) released
        // twice, then a release of a lock that is no longer held.
        for (i, ev) in [
            release(0),
            acquire(0),
            acquire(0),
            release(0),
            release(0),
            release(0),
        ]
        .into_iter()
        .enumerate()
        {
            trace.threads[0].push(Time::from_nanos(i as u64), ev);
        }
        // T1: non-LIFO release order (A B, release A first), then an
        // acquire that is never released.
        for (i, ev) in [acquire(0), acquire(1), release(0), release(1), acquire(2)]
            .into_iter()
            .enumerate()
        {
            trace.threads[1].push(Time::from_nanos(i as u64), ev);
        }
        // T2: reentry under another lock (A B A), closed innermost-first for
        // A, leaving the outer A open.
        for (i, ev) in [acquire(0), acquire(1), acquire(0), release(0), release(1)]
            .into_iter()
            .enumerate()
        {
            trace.threads[2].push(Time::from_nanos(i as u64), ev);
        }
        let stats = TraceStats::of(&trace);
        assert_eq!(
            stats.critical_sections,
            extract_critical_sections(&trace).len()
        );
        assert_eq!(stats.critical_sections, 6);
        assert_eq!(stats.lock_acquisitions, 8);
    }
}
