//! Dynamic critical sections and their extraction from a trace.
//!
//! A *critical section* is one dynamic execution of a lock/unlock pair. The
//! ULCP analysis works on critical sections: their shared read/write sets (the
//! paper's shadow-memory state `C.Srd` / `C.Swr`), the code site that produced
//! them, and their position in the recorded timing order. Which acquire a
//! release closes, and what a section collects, is decided here alone:
//! batch extraction and the streaming decoder build through
//! [`SectionBuilder`], and the trace statistics, validation and the linter
//! pair releases through its lock-only core, [`OpenLocks`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{Event, TimedEvent, WriteOp};
use crate::footprint::Footprint;
use crate::ids::{CodeSiteId, LockId, ObjectId, SectionId, ThreadId};
use crate::time::Time;
use crate::trace::Trace;

/// One ordered shared-memory access performed inside a critical section.
///
/// The ordered access list (rather than only the read/write *sets*) is what
/// the reversed-replay benign check needs: it re-executes the accesses of two
/// sections in both orders and compares the resulting memory state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemAccess {
    /// A read of the object.
    Read(ObjectId),
    /// A write applying the given operation to the object.
    Write(ObjectId, WriteOp),
}

impl MemAccess {
    /// The object touched by this access.
    pub fn object(&self) -> ObjectId {
        match self {
            MemAccess::Read(o) | MemAccess::Write(o, _) => *o,
        }
    }

    /// Returns true if the access is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, MemAccess::Write(..))
    }
}

/// A dynamic critical section extracted from a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalSection {
    /// Trace-wide identifier, assigned in ascending order of original entry
    /// time (the paper's "timing index").
    pub id: SectionId,
    /// Thread that executed the section.
    pub thread: ThreadId,
    /// Application lock protecting the section.
    pub lock: LockId,
    /// Static code site of the lock/unlock pair.
    pub site: CodeSiteId,
    /// Index of the `LockAcquire` event in the thread's event stream.
    pub acquire_index: usize,
    /// Index of the matching `LockRelease` event.
    pub release_index: usize,
    /// Lock-acquisition completion time in the original execution.
    pub enter_time: Time,
    /// Lock-release time in the original execution.
    pub exit_time: Time,
    /// Shared objects read inside the section (`C.Srd`).
    pub reads: Footprint,
    /// Shared objects written inside the section (`C.Swr`).
    pub writes: Footprint,
    /// Ordered shared accesses inside the section.
    pub accesses: Vec<MemAccess>,
    /// Intrinsic (compute + skipped) cost of the section body.
    pub body_cost: Time,
    /// Lock nesting depth at the acquire (0 = outermost).
    pub depth: usize,
}

impl CriticalSection {
    /// Returns true if the section performs no shared-memory access at all
    /// (line 1 of Algorithm 1: a null-lock candidate).
    pub fn is_access_free(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Returns true if the section only reads shared memory.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty() && !self.reads.is_empty()
    }

    /// Duration the section held the lock in the original execution.
    pub fn held_time(&self) -> Time {
        self.exit_time - self.enter_time
    }

    /// Returns true if the two sections' accesses conflict: they touch some
    /// common object and at least one side writes it.
    ///
    /// Each test is a footprint intersection — a one-word summary AND that
    /// rejects the common disjoint case before any list walk.
    pub fn conflicts_with(&self, other: &CriticalSection) -> bool {
        self.reads.intersects(&other.writes)
            || self.writes.intersects(&other.reads)
            || self.writes.intersects(&other.writes)
    }
}

/// One thread's open acquires, innermost last, each with a value of the
/// caller's: the lock-only core of [`SectionBuilder`]. A release closes the
/// innermost open acquire of its lock, innermost overall or not, and
/// nothing if none is open; a re-entrant acquire opens a second entry.
#[derive(Debug, Clone)]
pub struct OpenLocks<T> {
    held: Vec<(LockId, T)>,
}

impl<T> Default for OpenLocks<T> {
    fn default() -> Self {
        OpenLocks { held: Vec::new() }
    }
}

impl<T> OpenLocks<T> {
    /// Opens an acquire of `lock` carrying `value`, innermost.
    #[inline]
    pub fn acquire(&mut self, lock: LockId, value: T) {
        self.held.push((lock, value));
    }

    /// Closes the innermost open acquire of `lock`, returning its position
    /// in the stack and its value, or `None` if no acquire of `lock` is
    /// open. The acquires still open from that position on were made after
    /// it: the release is out of LIFO order if there are any.
    pub fn release(&mut self, lock: LockId) -> Option<(usize, T)> {
        let pos = self.held.iter().rposition(|(l, _)| *l == lock)?;
        Some((pos, self.held.remove(pos).1))
    }

    /// Whether an acquire of `lock` is open.
    pub fn holds(&self, lock: LockId) -> bool {
        self.held.iter().any(|(l, _)| *l == lock)
    }

    /// The open acquires, outermost first.
    pub fn iter(&self) -> impl Iterator<Item = (LockId, &T)> + '_ {
        self.held.iter().map(|(lock, value)| (*lock, value))
    }
}

/// A section [`SectionBuilder`] has open: the row so far, and the objects
/// read and written (raw, interned into `Footprint`s when it closes).
#[derive(Debug, Clone)]
struct OpenSection<T> {
    section: CriticalSection,
    reads: Vec<ObjectId>,
    writes: Vec<ObjectId>,
    tag: T,
}

/// Builds one thread's critical sections from its events in program order.
/// An acquire opens a section at the current depth, a release closes one
/// by [`OpenLocks`]' rule, and reads, writes, compute and skipped regions
/// accrue to *every* open section (the paper's shadow memory records "all
/// shared reads/writes in the critical section"). Each open section
/// carries a tag of the caller's, `T::default()` at the acquire.
#[derive(Debug, Clone)]
pub struct SectionBuilder<T = ()> {
    thread: ThreadId,
    open: OpenLocks<OpenSection<T>>,
}

impl<T: Default> SectionBuilder<T> {
    /// A builder for `thread`'s sections, none open.
    pub fn new(thread: ThreadId) -> Self {
        SectionBuilder {
            thread,
            open: OpenLocks::default(),
        }
    }

    /// The number of open sections: the depth the next acquire opens at.
    pub fn depth(&self) -> usize {
        self.open.held.len()
    }

    /// Feeds the thread's event at `index` (its position in the thread's
    /// whole stream). A release that closes a section returns it with its
    /// tag; the section's `id` is left at 0 for the caller to assign.
    #[inline]
    pub fn step(&mut self, index: usize, event: &TimedEvent) -> Option<(CriticalSection, T)> {
        let open = self.open.held.iter_mut().map(|(_, o)| o);
        match &event.event {
            Event::LockAcquire { lock, site } => {
                let section = CriticalSection {
                    id: SectionId::new(0),
                    thread: self.thread,
                    lock: *lock,
                    site: *site,
                    acquire_index: index,
                    release_index: index,
                    enter_time: event.at,
                    exit_time: event.at,
                    reads: Footprint::new(),
                    writes: Footprint::new(),
                    accesses: Vec::new(),
                    body_cost: Time::ZERO,
                    depth: self.depth(),
                };
                let opened = OpenSection {
                    section,
                    reads: Vec::new(),
                    writes: Vec::new(),
                    tag: T::default(),
                };
                self.open.acquire(*lock, opened);
            }
            Event::LockRelease { lock } => return self.close(*lock, index, event.at),
            Event::Read { obj, .. } => {
                for o in open {
                    o.reads.push(*obj);
                    o.section.accesses.push(MemAccess::Read(*obj));
                }
            }
            Event::Write { obj, op, .. } => {
                for o in open {
                    o.writes.push(*obj);
                    o.section.accesses.push(MemAccess::Write(*obj, *op));
                }
            }
            Event::Compute { cost: spent }
            | Event::SkipRegion {
                saved_cost: spent, ..
            } => {
                for o in open {
                    o.section.body_cost += *spent;
                }
            }
            _ => {}
        }
        None
    }

    /// The open section acquired at `acquire_index`, if it is still open:
    /// its row so far, and its tag.
    pub fn open_mut(&mut self, acquire_index: usize) -> Option<(&CriticalSection, &mut T)> {
        let mut open = self.open.held.iter_mut().map(|(_, o)| o);
        let o = open.find(|o| o.section.acquire_index == acquire_index)?;
        Some((&o.section, &mut o.tag))
    }

    fn close(&mut self, lock: LockId, index: usize, at: Time) -> Option<(CriticalSection, T)> {
        let (_, mut o) = self.open.release(lock)?;
        o.section.release_index = index;
        o.section.exit_time = at;
        o.section.reads = Footprint::from_unsorted(o.reads);
        o.section.writes = Footprint::from_unsorted(o.writes);
        Some((o.section, o.tag))
    }
}

/// Extracts every dynamic critical section from a trace, each thread's
/// through a [`SectionBuilder`].
///
/// The returned vector is sorted by original entry time (ties broken by thread
/// id), and [`SectionId`]s are assigned in that order.
pub fn extract_critical_sections(trace: &Trace) -> Vec<CriticalSection> {
    let mut sections = Vec::new();
    for tt in &trace.threads {
        let mut builder = SectionBuilder::<()>::new(tt.thread);
        for (idx, te) in tt.events.iter().enumerate() {
            if let Some((section, ())) = builder.step(idx, te) {
                sections.push(section);
            }
        }
    }
    sections.sort_by_key(|s| (s.enter_time, s.thread, s.acquire_index));
    for (i, s) in sections.iter_mut().enumerate() {
        s.id = SectionId::new(i as u32);
    }
    sections
}

/// Groups critical sections by the lock protecting them, preserving the
/// timing-index order within each group.
pub fn sections_by_lock(sections: &[CriticalSection]) -> BTreeMap<LockId, Vec<&CriticalSection>> {
    let mut map: BTreeMap<LockId, Vec<&CriticalSection>> = BTreeMap::new();
    for s in sections {
        map.entry(s.lock).or_default().push(s);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceMeta;

    fn build_trace() -> Trace {
        let mut trace = Trace::new(
            TraceMeta {
                program: "sections".into(),
                num_threads: 2,
                num_locks: 2,
                num_objects: 2,
                input: "unit".into(),
            },
            2,
        );
        // T0: lock L0 { read obj0; compute 5 } ; lock L0 { } (null)
        {
            let t0 = &mut trace.threads[0];
            t0.push(
                Time::from_nanos(1),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(0),
                },
            );
            t0.push(
                Time::from_nanos(2),
                Event::Read {
                    obj: ObjectId::new(0),
                    value: 0,
                },
            );
            t0.push(
                Time::from_nanos(7),
                Event::Compute {
                    cost: Time::from_nanos(5),
                },
            );
            t0.push(
                Time::from_nanos(8),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
            t0.push(
                Time::from_nanos(9),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(1),
                },
            );
            t0.push(
                Time::from_nanos(10),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
        }
        // T1: lock L0 { lock L1 { write obj1 } write obj0 }
        {
            let t1 = &mut trace.threads[1];
            t1.push(
                Time::from_nanos(3),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(2),
                },
            );
            t1.push(
                Time::from_nanos(4),
                Event::LockAcquire {
                    lock: LockId::new(1),
                    site: CodeSiteId::new(3),
                },
            );
            t1.push(
                Time::from_nanos(5),
                Event::Write {
                    obj: ObjectId::new(1),
                    op: WriteOp::Set(2),
                    value: 2,
                },
            );
            t1.push(
                Time::from_nanos(6),
                Event::LockRelease {
                    lock: LockId::new(1),
                },
            );
            t1.push(
                Time::from_nanos(7),
                Event::Write {
                    obj: ObjectId::new(0),
                    op: WriteOp::Add(1),
                    value: 1,
                },
            );
            t1.push(
                Time::from_nanos(8),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
        }
        trace.total_time = Time::from_nanos(10);
        trace
    }

    #[test]
    fn extraction_finds_all_sections() {
        let trace = build_trace();
        let sections = extract_critical_sections(&trace);
        assert_eq!(sections.len(), 4);
        // Sorted by entry time: T0@1, T1@3 (outer), T1@4 (inner), T0@9.
        assert_eq!(sections[0].thread, ThreadId::new(0));
        assert_eq!(sections[1].thread, ThreadId::new(1));
        assert_eq!(sections[1].lock, LockId::new(0));
        assert_eq!(sections[2].lock, LockId::new(1));
        assert_eq!(sections[3].site, CodeSiteId::new(1));
        // Ids follow the sort order.
        for (i, s) in sections.iter().enumerate() {
            assert_eq!(s.id.index(), i);
        }
    }

    #[test]
    fn read_write_sets_and_nesting() {
        let trace = build_trace();
        let sections = extract_critical_sections(&trace);
        let outer = &sections[1];
        let inner = &sections[2];
        // The inner write to obj1 is attributed to both the inner and outer
        // sections; the outer also writes obj0.
        assert!(outer.writes.contains(ObjectId::new(1)));
        assert!(outer.writes.contains(ObjectId::new(0)));
        assert_eq!(inner.writes.len(), 1);
        assert!(inner.writes.contains(ObjectId::new(1)));
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.accesses.len(), 2);
        assert_eq!(inner.accesses.len(), 1);
    }

    #[test]
    fn classification_helpers() {
        let trace = build_trace();
        let sections = extract_critical_sections(&trace);
        let t0_first = &sections[0];
        let null = &sections[3];
        assert!(t0_first.is_read_only());
        assert!(!t0_first.is_access_free());
        assert!(null.is_access_free());
        assert!(!null.is_read_only());
        assert_eq!(t0_first.body_cost, Time::from_nanos(5));
        assert_eq!(t0_first.held_time(), Time::from_nanos(7));
    }

    #[test]
    fn conflict_detection() {
        let trace = build_trace();
        let sections = extract_critical_sections(&trace);
        let t0_read = &sections[0]; // reads obj0
        let t1_outer = &sections[1]; // writes obj0, obj1
        let t1_inner = &sections[2]; // writes obj1
        let t0_null = &sections[3];
        assert!(t0_read.conflicts_with(t1_outer));
        assert!(t1_outer.conflicts_with(t0_read));
        assert!(!t0_read.conflicts_with(t1_inner));
        assert!(!t0_null.conflicts_with(t1_outer));
        assert!(t1_inner.conflicts_with(t1_outer));
    }

    #[test]
    fn sections_by_lock_groups_in_timing_order() {
        let trace = build_trace();
        let sections = extract_critical_sections(&trace);
        let by_lock = sections_by_lock(&sections);
        assert_eq!(by_lock.len(), 2);
        let l0 = &by_lock[&LockId::new(0)];
        assert_eq!(l0.len(), 3);
        assert!(l0[0].enter_time <= l0[1].enter_time && l0[1].enter_time <= l0[2].enter_time);
        assert_eq!(by_lock[&LockId::new(1)].len(), 1);
    }

    #[test]
    fn mem_access_helpers() {
        let r = MemAccess::Read(ObjectId::new(4));
        let w = MemAccess::Write(ObjectId::new(5), WriteOp::Add(2));
        assert_eq!(r.object(), ObjectId::new(4));
        assert_eq!(w.object(), ObjectId::new(5));
        assert!(!r.is_write());
        assert!(w.is_write());
    }

    #[test]
    fn skip_region_cost_counts_toward_body_cost() {
        let mut trace = Trace::new(TraceMeta::default(), 1);
        let t0 = &mut trace.threads[0];
        t0.push(
            Time::from_nanos(1),
            Event::LockAcquire {
                lock: LockId::new(0),
                site: CodeSiteId::new(0),
            },
        );
        t0.push(
            Time::from_nanos(5),
            Event::SkipRegion {
                site: CodeSiteId::new(7),
                saved_cost: Time::from_nanos(4),
            },
        );
        t0.push(
            Time::from_nanos(6),
            Event::LockRelease {
                lock: LockId::new(0),
            },
        );
        let sections = extract_critical_sections(&trace);
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].body_cost, Time::from_nanos(4));
    }
}
