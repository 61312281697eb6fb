//! Shadow memory: reconstructing shared-memory state from a recorded trace.
//!
//! The paper uses shadow memory to keep per-critical-section read/write sets.
//! Those sets live on [`CriticalSection`](perfplay_trace::CriticalSection)
//! already; this module adds the piece the *reversed replay* benign check
//! needs — the value every shared object held at an arbitrary point of the
//! recorded execution, so a pair of critical sections can be re-executed in
//! both orders from the correct starting state.
//!
//! The detector used to materialize one full [`MemorySnapshot`] clone per
//! critical section (O(sections x objects) memory churn). The
//! [`LastWriteIndex`] replaces that: one O(E log E) sweep builds, per object,
//! the time-ordered log of its writes plus its first observed read. The logs
//! sit in a hash table keyed by object id, so finding an object's log is one
//! probe, and a "value just before virtual time `t`" query is then a binary
//! search over that object's writes. [`StateBefore`] wraps the index as a
//! lazy starting-state view, so the reversed-replay check fetches exactly the
//! footprint values it touches and nothing else. [`MemorySnapshot`] keeps an
//! ordered map: it is the eager state the reference detector clones.

use std::collections::{BTreeMap, HashMap};

use perfplay_trace::{Event, ObjectId, Time, Trace};

use crate::idhash::IdBuildHasher;

/// A value source usable as the starting memory state of a reversed replay.
///
/// Implemented by the eager [`MemorySnapshot`] (tests, ad-hoc states) and by
/// the lazy [`StateBefore`] view over a [`LastWriteIndex`] (the detector's
/// hot path).
pub trait StartState {
    /// The value the object held in this state (zero when untracked).
    fn value(&self, obj: ObjectId) -> i64;
}

/// The recorded history of one shared object, in the stable global order
/// (time, then thread, then event index) the eager snapshot sweep used — so
/// equal-timestamp ties resolve identically to the historical
/// implementation.
#[derive(Debug, Clone, Default)]
struct ObjectHistory {
    /// `(completion time, resulting value)` of every write.
    writes: Vec<(Time, i64)>,
    /// The first read ever observed, which supplies the initial value for
    /// objects read before any write.
    first_read: Option<(Time, i64)>,
    /// The first observation of any kind, used as a last-resort fallback
    /// when reconstructing full snapshots.
    first_observation: (Time, i64),
}

/// Per-object history of one recorded execution, indexed for point lookups.
#[derive(Debug, Clone, Default)]
pub struct LastWriteIndex {
    objects: HashMap<ObjectId, ObjectHistory, IdBuildHasher>,
}

impl LastWriteIndex {
    /// Builds the index in one sweep over the trace's memory events — a
    /// single hash probe per event.
    pub fn build(trace: &Trace) -> Self {
        // Stable sort by completion time; ties keep `iter_events` order
        // (thread-major, then event index), matching the order in which a
        // chronological replay of the trace would apply them.
        let mut mem_events: Vec<(Time, &Event)> = trace
            .iter_events()
            .filter(|(_, _, te)| te.event.is_memory_access())
            .map(|(_, _, te)| (te.at, &te.event))
            .collect();
        mem_events.sort_by_key(|(at, _)| *at);

        let mut index = LastWriteIndex::default();
        for (at, event) in mem_events {
            let (obj, value, is_write) = match event {
                Event::Write { obj, value, .. } => (*obj, *value, true),
                Event::Read { obj, value } => (*obj, *value, false),
                _ => continue,
            };
            let history = index.objects.entry(obj).or_insert_with(|| ObjectHistory {
                writes: Vec::new(),
                first_read: None,
                first_observation: (at, value),
            });
            if is_write {
                history.writes.push((at, value));
            } else if history.first_read.is_none() {
                history.first_read = Some((at, value));
            }
        }
        index
    }

    /// The value `obj` held just before virtual time `at`, as a chronological
    /// replay of the trace would have it: the last write completing strictly
    /// before `at`, else the first read before `at` (reads observe the
    /// initial value until the first write), else `None`.
    pub fn value_before(&self, obj: ObjectId, at: Time) -> Option<i64> {
        let history = self.objects.get(&obj)?;
        let idx = history.writes.partition_point(|&(t, _)| t < at);
        if idx > 0 {
            return Some(history.writes[idx - 1].1);
        }
        match history.first_read {
            Some((t, v)) if t < at => Some(v),
            _ => None,
        }
    }

    /// Number of retained history entries: one per recorded write plus one
    /// per first-read anchor. The batch engines' counterpart of the
    /// streaming detector's `peak_history_entries` accounting.
    pub fn num_entries(&self) -> usize {
        self.objects
            .values()
            .map(|h| h.writes.len() + usize::from(h.first_read.is_some()))
            .sum()
    }

    /// Like [`value_before`](Self::value_before), but falling back to the
    /// first value the object is *ever* observed with (even later than `at`)
    /// — the best available guess for objects the trace has not touched yet.
    pub fn value_before_or_observed(&self, obj: ObjectId, at: Time) -> Option<i64> {
        self.value_before(obj, at)
            .or_else(|| self.objects.get(&obj).map(|h| h.first_observation.1))
    }

    /// Materializes the full [`MemorySnapshot`] just before `at`, covering
    /// every object the trace ever observes.
    pub fn snapshot_before(&self, at: Time) -> MemorySnapshot {
        let values = self
            .objects
            .keys()
            .filter_map(|&obj| self.value_before_or_observed(obj, at).map(|v| (obj, v)))
            .collect();
        MemorySnapshot { values }
    }

    /// A lazy starting-state view "just before `at`" over this index.
    pub fn state_before(&self, at: Time) -> StateBefore<'_> {
        StateBefore { index: self, at }
    }
}

/// Lazy view of shared memory just before a point in virtual time.
///
/// Cheap to construct (two words); every [`StartState::value`] call is one
/// hash probe plus a binary search over the object's writes in the backing
/// [`LastWriteIndex`].
#[derive(Debug, Clone, Copy)]
pub struct StateBefore<'a> {
    index: &'a LastWriteIndex,
    at: Time,
}

impl StartState for StateBefore<'_> {
    fn value(&self, obj: ObjectId) -> i64 {
        self.index.value_before(obj, self.at).unwrap_or(0)
    }
}

/// A snapshot of shared-memory values at some virtual time of the original
/// execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemorySnapshot {
    values: BTreeMap<ObjectId, i64>,
}

impl MemorySnapshot {
    /// Reconstructs the values all shared objects held just before virtual
    /// time `at` in the recorded execution.
    ///
    /// Values come from the last write before `at`; objects not yet written
    /// take the value observed by the first read before `at` (reads see the
    /// initial value until the first write), falling back to the first value
    /// the object is ever observed with, and finally to zero for objects the
    /// trace never touches.
    ///
    /// This is a convenience wrapper building a throwaway [`LastWriteIndex`];
    /// callers reconstructing state at many points should build the index
    /// once and use [`LastWriteIndex::snapshot_before`] or
    /// [`LastWriteIndex::state_before`] instead.
    pub fn before(trace: &Trace, at: Time) -> Self {
        LastWriteIndex::build(trace).snapshot_before(at)
    }

    /// Creates a snapshot from explicit values (used in tests and by the
    /// benign check's re-execution).
    pub fn from_values(values: BTreeMap<ObjectId, i64>) -> Self {
        MemorySnapshot { values }
    }

    /// Returns the value of an object, defaulting to zero for untracked
    /// objects.
    pub fn get(&self, obj: ObjectId) -> i64 {
        self.values.get(&obj).copied().unwrap_or(0)
    }

    /// Sets the value of an object.
    pub fn set(&mut self, obj: ObjectId, value: i64) {
        self.values.insert(obj, value);
    }

    /// Returns the values restricted to the given objects (used to compare
    /// the outcome of the two replay orders over the touched footprint).
    pub fn project(&self, objects: impl IntoIterator<Item = ObjectId>) -> BTreeMap<ObjectId, i64> {
        objects
            .into_iter()
            .map(|obj| (obj, self.get(obj)))
            .collect()
    }

    /// Number of objects with a known value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no object value is known.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl StartState for MemorySnapshot {
    fn value(&self, obj: ObjectId) -> i64 {
        self.get(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_trace::{CodeSiteId, LockId, Time, TraceMeta, WriteOp};

    fn trace_with_history() -> Trace {
        let mut trace = Trace::new(TraceMeta::default(), 1);
        let t = &mut trace.threads[0];
        let obj = ObjectId::new(0);
        let other = ObjectId::new(1);
        t.push(
            Time::from_nanos(1),
            Event::LockAcquire {
                lock: LockId::new(0),
                site: CodeSiteId::new(0),
            },
        );
        // Initial value of obj observed as 5 before any write.
        t.push(Time::from_nanos(2), Event::Read { obj, value: 5 });
        t.push(
            Time::from_nanos(3),
            Event::Write {
                obj,
                op: WriteOp::Set(9),
                value: 9,
            },
        );
        t.push(
            Time::from_nanos(5),
            Event::Write {
                obj: other,
                op: WriteOp::Add(2),
                value: 12,
            },
        );
        t.push(
            Time::from_nanos(6),
            Event::LockRelease {
                lock: LockId::new(0),
            },
        );
        trace.total_time = Time::from_nanos(6);
        trace
    }

    #[test]
    fn snapshot_before_first_write_sees_initial_value() {
        let trace = trace_with_history();
        let snap = MemorySnapshot::before(&trace, Time::from_nanos(3));
        assert_eq!(snap.get(ObjectId::new(0)), 5);
    }

    #[test]
    fn snapshot_after_write_sees_written_value() {
        let trace = trace_with_history();
        let snap = MemorySnapshot::before(&trace, Time::from_nanos(4));
        assert_eq!(snap.get(ObjectId::new(0)), 9);
    }

    #[test]
    fn never_written_object_falls_back_to_first_observation() {
        let trace = trace_with_history();
        // Before time 5 `other` has not been written; its first observation is
        // the write at t=5 with value 12, which is the best available guess.
        let snap = MemorySnapshot::before(&trace, Time::from_nanos(5));
        assert_eq!(snap.get(ObjectId::new(1)), 12);
        // Unknown objects default to zero.
        assert_eq!(snap.get(ObjectId::new(42)), 0);
    }

    #[test]
    fn project_and_mutate() {
        let mut snap = MemorySnapshot::from_values(
            [(ObjectId::new(0), 3), (ObjectId::new(1), 4)]
                .into_iter()
                .collect(),
        );
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        snap.set(ObjectId::new(0), 7);
        let projected = snap.project([ObjectId::new(0), ObjectId::new(9)]);
        assert_eq!(projected[&ObjectId::new(0)], 7);
        assert_eq!(projected[&ObjectId::new(9)], 0);
    }

    #[test]
    fn index_point_lookups_match_eager_snapshots() {
        let trace = trace_with_history();
        let index = LastWriteIndex::build(&trace);
        for at_ns in 0..8 {
            let at = Time::from_nanos(at_ns);
            let eager = index.snapshot_before(at);
            for raw in 0..3u64 {
                let obj = ObjectId::new(raw);
                assert_eq!(
                    index.value_before_or_observed(obj, at).unwrap_or(0),
                    eager.get(obj),
                    "object {raw} before t={at_ns}"
                );
            }
        }
    }

    #[test]
    fn state_before_uses_replay_semantics_without_future_fallback() {
        let trace = trace_with_history();
        let index = LastWriteIndex::build(&trace);
        let state = index.state_before(Time::from_nanos(5));
        // obj0: last write before t=5 is 9.
        assert_eq!(state.value(ObjectId::new(0)), 9);
        // obj1's only write is at t=5 (not strictly before): unknown -> 0.
        assert_eq!(state.value(ObjectId::new(1)), 0);
    }

    #[test]
    fn equal_timestamp_writes_resolve_in_thread_major_order() {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        let obj = ObjectId::new(7);
        trace.threads[0].push(
            Time::from_nanos(4),
            Event::Write {
                obj,
                op: WriteOp::Set(1),
                value: 1,
            },
        );
        trace.threads[1].push(
            Time::from_nanos(4),
            Event::Write {
                obj,
                op: WriteOp::Set(2),
                value: 2,
            },
        );
        let index = LastWriteIndex::build(&trace);
        // The stable sort keeps thread 1's write last among the t=4 ties.
        assert_eq!(index.value_before(obj, Time::from_nanos(5)), Some(2));
        assert_eq!(index.value_before(obj, Time::from_nanos(4)), None);
    }
}
