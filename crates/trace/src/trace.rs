//! The whole-execution trace: per-thread event streams plus the global lock
//! grant schedule recorded at runtime.

use serde::{Deserialize, Serialize};

use crate::event::{Event, LockGrant, TimedEvent};
use crate::ids::{LockId, ThreadId};
use crate::section::OpenLocks;
use crate::site::SiteTable;
use crate::time::Time;

/// The sequence of events recorded for one thread, in program order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadTrace {
    /// Thread the events belong to.
    pub thread: ThreadId,
    /// Events in program order. Timestamps are completion times in the
    /// original execution and are strictly non-decreasing.
    pub events: Vec<TimedEvent>,
    /// Time at which the thread finished in the original execution.
    pub finish_time: Time,
}

impl ThreadTrace {
    /// Creates an empty thread trace.
    pub fn new(thread: ThreadId) -> Self {
        ThreadTrace {
            thread,
            events: Vec::new(),
            finish_time: Time::ZERO,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if the thread recorded no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event with the given completion time.
    ///
    /// Timestamps must be non-decreasing in program order — the streaming
    /// chunk contract and every time-indexed consumer depend on it. A
    /// violation panics in debug builds; in release builds the event is
    /// still appended (and `finish_time` keeps the maximum seen), so the
    /// offence remains detectable by [`Trace::validate`], which reports the
    /// offending thread and event index.
    pub fn push(&mut self, at: Time, event: Event) {
        debug_assert!(
            self.events.last().is_none_or(|prev| at >= prev.at),
            "non-monotonic push on {}: event {} at {at} is earlier than its predecessor at {}",
            self.thread,
            self.events.len(),
            self.events.last().map(|p| p.at).unwrap_or(Time::ZERO),
        );
        self.events.push(TimedEvent::new(at, event));
        self.finish_time = self.finish_time.max(at);
    }

    /// Total intrinsic (compute + skipped) cost of the thread's events.
    pub fn intrinsic_cost(&self) -> Time {
        self.events.iter().map(|e| e.event.intrinsic_cost()).sum()
    }

    /// Number of lock acquisitions recorded for this thread.
    pub fn acquisition_count(&self) -> usize {
        self.events.iter().filter(|e| e.event.is_acquire()).count()
    }
}

/// Metadata describing the recorded execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable name of the recorded program / workload.
    pub program: String,
    /// Number of worker threads recorded.
    pub num_threads: usize,
    /// Number of distinct application locks.
    pub num_locks: usize,
    /// Number of distinct shared objects.
    pub num_objects: usize,
    /// Free-form description of the input (e.g. `simlarge`, `2000 entries`).
    pub input: String,
}

/// Errors produced by [`Trace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A thread released a lock it did not hold, or exited holding locks.
    UnbalancedLocking {
        /// Offending thread.
        thread: ThreadId,
        /// Lock involved (the released-but-not-held lock, or one still held
        /// at exit).
        lock: LockId,
    },
    /// Event timestamps go backwards within a thread.
    NonMonotonicTime {
        /// Offending thread.
        thread: ThreadId,
        /// Index of the event whose timestamp is earlier than its
        /// predecessor's.
        event_index: usize,
    },
    /// The global lock schedule references an event that is not a matching
    /// acquisition.
    InconsistentSchedule {
        /// Position in the schedule.
        seq: u64,
    },
    /// Thread ids are not dense (`threads[i].thread != i`).
    MisnumberedThread {
        /// Index into [`Trace::threads`].
        index: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnbalancedLocking { thread, lock } => {
                write!(f, "unbalanced locking of {lock} on thread {thread}")
            }
            TraceError::NonMonotonicTime {
                thread,
                event_index,
            } => {
                write!(
                    f,
                    "non-monotonic timestamp at event {event_index} of {thread}"
                )
            }
            TraceError::InconsistentSchedule { seq } => {
                write!(f, "lock schedule entry {seq} does not match an acquisition")
            }
            TraceError::MisnumberedThread { index } => {
                write!(f, "thread at index {index} has a mismatched id")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A recorded execution: one [`ThreadTrace`] per thread, the interned code
/// sites, and the global order in which lock acquisitions were granted.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Execution metadata.
    pub meta: TraceMeta,
    /// Per-thread event streams, indexed by [`ThreadId::index`].
    pub threads: Vec<ThreadTrace>,
    /// Interned code sites.
    pub sites: SiteTable,
    /// Global lock-grant order recorded at runtime (consumed by ELSC replay).
    pub lock_schedule: Vec<LockGrant>,
    /// Makespan (finish time of the last thread) of the original execution.
    pub total_time: Time,
}

impl Trace {
    /// Creates an empty trace with the given number of threads.
    pub fn new(meta: TraceMeta, num_threads: usize) -> Self {
        Trace {
            meta,
            threads: (0..num_threads)
                .map(|i| ThreadTrace::new(ThreadId::new(i as u32)))
                .collect(),
            sites: SiteTable::new(),
            lock_schedule: Vec::new(),
            total_time: Time::ZERO,
        }
    }

    /// Number of threads in the trace.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of events across all threads.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total number of lock acquisitions across all threads (the paper's
    /// "# Locks" column in Table 1 counts dynamic lock protections).
    pub fn num_acquisitions(&self) -> usize {
        self.threads.iter().map(|t| t.acquisition_count()).sum()
    }

    /// Returns the thread trace for a thread id.
    ///
    /// # Panics
    ///
    /// Panics if the thread id is out of range.
    pub fn thread(&self, thread: ThreadId) -> &ThreadTrace {
        &self.threads[thread.index()]
    }

    /// Returns an event by thread and index, if present.
    pub fn event(&self, thread: ThreadId, index: usize) -> Option<&TimedEvent> {
        self.threads
            .get(thread.index())
            .and_then(|t| t.events.get(index))
    }

    /// Iterates over `(thread, index, event)` for every event in the trace.
    pub fn iter_events(&self) -> impl Iterator<Item = (ThreadId, usize, &TimedEvent)> {
        self.threads.iter().flat_map(|t| {
            t.events
                .iter()
                .enumerate()
                .map(move |(i, e)| (t.thread, i, e))
        })
    }

    /// Checks the order every time window relies on: each thread sits at
    /// its own index and its timestamps never decrease. [`validate`],
    /// [`TraceChunks`](crate::TraceChunks) and `perfplay-record`'s spill all
    /// start here.
    ///
    /// [`validate`]: Self::validate
    ///
    /// # Errors
    ///
    /// [`TraceError::MisnumberedThread`] or
    /// [`TraceError::NonMonotonicTime`] for the first thread that breaks
    /// the order.
    pub fn check_order(&self) -> Result<(), TraceError> {
        for (index, t) in self.threads.iter().enumerate() {
            if t.thread.index() != index {
                return Err(TraceError::MisnumberedThread { index });
            }
            if let Some(i) = t.events.windows(2).position(|w| w[1].at < w[0].at) {
                return Err(TraceError::NonMonotonicTime {
                    thread: t.thread,
                    event_index: i + 1,
                });
            }
        }
        Ok(())
    }

    /// Checks structural well-formedness: the order of [`check_order`],
    /// balanced lock/unlock pairs, and a lock schedule whose entries point
    /// at real acquisitions.
    ///
    /// [`check_order`]: Self::check_order
    ///
    /// # Errors
    ///
    /// Returns the first violation found, checking the order first.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.check_order()?;
        for t in &self.threads {
            let mut held = OpenLocks::default();
            for te in &t.events {
                match &te.event {
                    Event::LockAcquire { lock, .. } => held.acquire(*lock, ()),
                    // The guard closes an open acquire, or finds none.
                    Event::LockRelease { lock } if held.release(*lock).is_none() => {
                        return Err(TraceError::UnbalancedLocking {
                            thread: t.thread,
                            lock: *lock,
                        });
                    }
                    _ => {}
                }
            }
            let outermost = held.iter().next().map(|(lock, ())| lock);
            if let Some(lock) = outermost {
                return Err(TraceError::UnbalancedLocking {
                    thread: t.thread,
                    lock,
                });
            }
        }
        for g in &self.lock_schedule {
            let ok = self
                .event(g.thread, g.event_index)
                .map(|te| matches!(te.event, Event::LockAcquire { lock, .. } if lock == g.lock))
                .unwrap_or(false);
            if !ok {
                return Err(TraceError::InconsistentSchedule { seq: g.seq });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WriteOp;
    use crate::ids::{CodeSiteId, ObjectId};

    fn acquire(lock: u32) -> Event {
        Event::LockAcquire {
            lock: LockId::new(lock),
            site: CodeSiteId::new(0),
        }
    }

    fn release(lock: u32) -> Event {
        Event::LockRelease {
            lock: LockId::new(lock),
        }
    }

    fn simple_trace() -> Trace {
        let mut trace = Trace::new(
            TraceMeta {
                program: "demo".into(),
                num_threads: 2,
                num_locks: 1,
                num_objects: 1,
                input: "unit".into(),
            },
            2,
        );
        let t0 = &mut trace.threads[0];
        t0.push(
            Time::from_nanos(10),
            Event::Compute {
                cost: Time::from_nanos(10),
            },
        );
        t0.push(Time::from_nanos(11), acquire(0));
        t0.push(
            Time::from_nanos(12),
            Event::Read {
                obj: ObjectId::new(0),
                value: 0,
            },
        );
        t0.push(Time::from_nanos(13), release(0));
        t0.push(Time::from_nanos(13), Event::ThreadExit);
        let t1 = &mut trace.threads[1];
        t1.push(Time::from_nanos(14), acquire(0));
        t1.push(
            Time::from_nanos(15),
            Event::Write {
                obj: ObjectId::new(0),
                op: WriteOp::Set(1),
                value: 1,
            },
        );
        t1.push(Time::from_nanos(16), release(0));
        t1.push(Time::from_nanos(16), Event::ThreadExit);
        trace.lock_schedule = vec![
            LockGrant {
                seq: 0,
                lock: LockId::new(0),
                thread: ThreadId::new(0),
                event_index: 1,
                at: Time::from_nanos(11),
            },
            LockGrant {
                seq: 1,
                lock: LockId::new(0),
                thread: ThreadId::new(1),
                event_index: 0,
                at: Time::from_nanos(14),
            },
        ];
        trace.total_time = Time::from_nanos(16);
        trace
    }

    #[test]
    fn counts_and_accessors() {
        let trace = simple_trace();
        assert_eq!(trace.num_threads(), 2);
        assert_eq!(trace.num_events(), 9);
        assert_eq!(trace.num_acquisitions(), 2);
        assert_eq!(trace.thread(ThreadId::new(0)).len(), 5);
        assert!(trace.event(ThreadId::new(1), 0).unwrap().event.is_acquire());
        assert_eq!(trace.event(ThreadId::new(1), 99), None);
        assert_eq!(trace.iter_events().count(), 9);
    }

    #[test]
    fn thread_trace_intrinsic_cost() {
        let trace = simple_trace();
        assert_eq!(
            trace.thread(ThreadId::new(0)).intrinsic_cost(),
            Time::from_nanos(10)
        );
        assert_eq!(trace.thread(ThreadId::new(1)).intrinsic_cost(), Time::ZERO);
    }

    #[test]
    fn validate_accepts_well_formed_trace() {
        assert_eq!(simple_trace().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unbalanced_release() {
        let mut trace = simple_trace();
        trace.threads[0]
            .events
            .push(TimedEvent::new(Time::from_nanos(20), release(0)));
        assert!(matches!(
            trace.validate(),
            Err(TraceError::UnbalancedLocking { .. })
        ));
    }

    #[test]
    fn validate_rejects_held_lock_at_exit() {
        let mut trace = simple_trace();
        trace.threads[1]
            .events
            .push(TimedEvent::new(Time::from_nanos(20), acquire(0)));
        assert!(matches!(
            trace.validate(),
            Err(TraceError::UnbalancedLocking { .. })
        ));
    }

    #[test]
    fn validate_rejects_time_going_backwards() {
        let mut trace = simple_trace();
        trace.threads[0].events[2].at = Time::from_nanos(1);
        assert!(matches!(
            trace.validate(),
            Err(TraceError::NonMonotonicTime { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_schedule() {
        let mut trace = simple_trace();
        trace.lock_schedule[1].event_index = 2; // points at a Write, not an acquire
        assert!(matches!(
            trace.validate(),
            Err(TraceError::InconsistentSchedule { seq: 1 })
        ));
    }

    #[test]
    fn validate_rejects_misnumbered_thread() {
        let mut trace = simple_trace();
        trace.threads[1].thread = ThreadId::new(5);
        assert!(matches!(
            trace.validate(),
            Err(TraceError::MisnumberedThread { index: 1 })
        ));
    }

    // Release builds accept the out-of-order push; validate() is the
    // backstop there (see validate_rejects_time_going_backwards).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-monotonic push")]
    fn push_rejects_time_going_backwards_in_debug() {
        let mut tt = ThreadTrace::new(ThreadId::new(0));
        tt.push(Time::from_nanos(10), Event::ThreadExit);
        tt.push(Time::from_nanos(5), Event::ThreadExit);
    }

    #[test]
    fn push_accepts_equal_timestamps() {
        let mut tt = ThreadTrace::new(ThreadId::new(0));
        tt.push(Time::from_nanos(10), Event::ThreadExit);
        tt.push(Time::from_nanos(10), Event::ThreadExit);
        assert_eq!(tt.len(), 2);
        assert_eq!(tt.finish_time, Time::from_nanos(10));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceError::UnbalancedLocking {
            thread: ThreadId::new(1),
            lock: LockId::new(3),
        };
        assert!(e.to_string().contains("L3"));
        assert!(e.to_string().contains("T1"));
    }

    #[test]
    fn trace_serde_roundtrip() {
        let trace = simple_trace();
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }
}
