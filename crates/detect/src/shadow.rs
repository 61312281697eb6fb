//! Shadow memory: the value every shared object held at a point of the
//! recorded execution.
//!
//! The paper uses shadow memory to keep per-critical-section read/write sets.
//! Those sets live on [`CriticalSection`](perfplay_trace::CriticalSection)
//! already; this module answers the question the *reversed replay* benign
//! check asks — what value did an object hold just before virtual time `t` —
//! so a pair of critical sections can be re-executed in both orders from the
//! correct starting state.
//!
//! [`LastWriteIndex`] is the one history detection reads. Per object it
//! keeps the time-ordered log of its writes plus its first observed read,
//! in a hash table keyed by object id, so a query is one probe and a binary
//! search over that object's writes. The detector builds it from the whole
//! trace. [`StateBefore`] is the lazy starting-state view the reversed
//! replay reads, fetching exactly the footprint values it touches.
//! [`MemorySnapshot`] keeps an ordered map: it is the eager state the
//! reference detector clones.

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

/// The recorded history of one shared object, in the order a chronological
/// replay applies it: time, then thread, then event index.
#[derive(Debug, Clone, Default)]
struct ObjectHistory {
    /// `(completion time, resulting value)` of every write.
    writes: Vec<(Time, i64)>,
    /// The first read ever observed: the initial value for queries before
    /// the first write.
    first_read: Option<(Time, i64)>,
}

/// Per-object history of one recorded execution, indexed for point lookups.
#[derive(Debug, Clone, Default)]
pub struct LastWriteIndex {
    objects: HashMap<ObjectId, ObjectHistory, IdBuildHasher>,
    /// Writes plus first-read anchors.
    entries: usize,
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
            match *event {
                Event::Write { obj, value, .. } => index.record(at, obj, value, true),
                Event::Read { obj, value } => index.record(at, obj, value, false),
                _ => {}
            }
        }
        index
    }

    /// Appends one memory event. Events must arrive in the order
    /// [`build`](Self::build) sorts them into: a write is appended to its
    /// object's log, and a read only matters if it is the object's first.
    fn record(&mut self, at: Time, obj: ObjectId, value: i64, is_write: bool) {
        let history = self.objects.entry(obj).or_default();
        if is_write {
            history.writes.push((at, value));
        } else if history.first_read.is_none() {
            history.first_read = Some((at, value));
        } else {
            return;
        }
        self.entries += 1;
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

    /// Number of history entries: one per write plus one per first-read
    /// anchor. Streamed detection reports it as `peak_history_entries`.
    pub fn num_entries(&self) -> usize {
        self.entries
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
/// execution: the eager state the reference detector clones per section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemorySnapshot {
    values: BTreeMap<ObjectId, i64>,
}

impl MemorySnapshot {
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
    use crate::reference::per_section_snapshots;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::{extract_critical_sections, CodeSiteId, LockId, Time, TraceMeta, WriteOp};

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
        let index = LastWriteIndex::build(&trace_with_history());
        let state = index.state_before(Time::from_nanos(3));
        assert_eq!(state.value(ObjectId::new(0)), 5);
    }

    #[test]
    fn snapshot_after_write_sees_written_value() {
        let index = LastWriteIndex::build(&trace_with_history());
        let state = index.state_before(Time::from_nanos(4));
        assert_eq!(state.value(ObjectId::new(0)), 9);
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

    /// The index answers every section's starting state as the reference
    /// detector's eager per-section snapshots do, for every object the
    /// trace touches and one it never does.
    #[test]
    fn index_point_lookups_match_eager_snapshots() {
        let mut b = ProgramBuilder::new("shadow-test");
        let lock = b.lock("m");
        let objs: Vec<_> = (0..3).map(|i| b.shared(format!("o{i}"), i)).collect();
        let site = b.site("shadow.c", "f", 1);
        for t in 0..3usize {
            let objs = objs.clone();
            b.thread(format!("t{t}"), |tb| {
                for k in 0..5usize {
                    let obj = objs[(t + k) % objs.len()];
                    tb.locked(lock, site, |cs| {
                        if (t + k) % 2 == 0 {
                            cs.read(obj);
                        } else {
                            cs.write_add(obj, 1);
                        }
                    });
                    tb.compute_ns(10);
                }
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let sections = extract_critical_sections(&trace);
        let snapshots = per_section_snapshots(&trace, &sections);
        let index = LastWriteIndex::build(&trace);
        let objects: Vec<ObjectId> = (0..4).map(ObjectId::new).collect();
        for (section, eager) in sections.iter().zip(&snapshots) {
            let state = index.state_before(section.enter_time);
            for &obj in &objects {
                assert_eq!(
                    state.value(obj),
                    eager.get(obj),
                    "{obj} before {}",
                    section.id
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
        // obj1's only write is at t=5 (not strictly before): unknown -> 0,
        // not the value it is observed with later.
        assert_eq!(state.value(ObjectId::new(1)), 0);
        // Objects the trace never touches are zero too.
        assert_eq!(state.value(ObjectId::new(42)), 0);
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
