//! The pairing kernel both detection engines share: the packed per-section
//! rows, the summary-word fast path, and the classify-and-emit step of one
//! sequential search.
//!
//! Section 3.1's sequential search compares each critical section, per
//! other thread, against that thread's later sections on the same lock, and
//! stops at the first true contention (TLCP) or at the scan cap. The two
//! engines differ only in how candidates arrive. The batch
//! [`Detector`](crate::Detector) holds every section up front and walks each
//! lock with forward-only per-thread cursors. The
//! [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) is handed
//! candidates as chunks deliver them. Both pass each run of candidates to
//! [`PairKernel::scan`], the one place that classifies a pair, applies the
//! cap, counts the breakdown and emits.
//!
//! A pair is classified from two packed 24-byte [`SecMeta`] rows: the
//! null-lock and read-read tests are exact on the [`Footprint`] summary
//! words, and a zero summary AND proves disjoint writes. Only when the
//! summaries collide does the kernel read the full [`CriticalSection`] rows,
//! for the set intersection and the reversed replay.
//!
//! [`Footprint`]: perfplay_trace::Footprint

use perfplay_trace::{CriticalSection, LockId, ObjectId, SectionId, ThreadId, Time};

use crate::classify::classify_pair;
use crate::kinds::{PairClass, UlcpKind};
use crate::pairing::{CausalEdge, DetectorConfig, Ulcp, UlcpBreakdown};
use crate::shadow::{LastWriteIndex, StartState};
use crate::sink::{SectionCtx, UlcpSink};

/// The two [`Footprint::summary`](perfplay_trace::Footprint::summary) words
/// of a section. An empty footprint has summary `0` and every non-empty
/// footprint has a non-zero summary, so the null-lock and read-read tests of
/// [`fast_classify`] are *exact*; the disjoint-write test is sound (zero AND
/// proves disjointness) and falls back to the full classifier on
/// collisions.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairKey {
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

impl PairKey {
    pub(crate) fn of(section: &CriticalSection) -> Self {
        PairKey {
            reads: section.reads.summary(),
            writes: section.writes.summary(),
        }
    }
}

/// Dense per-section hot-path row, parallel to an engine's section table:
/// the summary words plus the global id and thread, which is everything
/// classification and emission need in 24 bytes. Both engines classify
/// hundreds of millions of pairs; reading these packed rows instead of the
/// ~200-byte [`CriticalSection`] rows keeps the per-pair path out of DRAM.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SecMeta {
    pub(crate) key: PairKey,
    pub(crate) id: SectionId,
    pub(crate) thread: ThreadId,
}

impl SecMeta {
    pub(crate) fn of(section: &CriticalSection) -> Self {
        SecMeta {
            key: PairKey::of(section),
            id: section.id,
            thread: section.thread,
        }
    }
}

/// Classifies a pair from the summary words alone when possible. Checks run
/// in the same order as `classify_by_sets`, so a `Some` answer is exactly
/// the answer the full classifier would give.
#[inline]
pub(crate) fn fast_classify(a: PairKey, b: PairKey) -> Option<PairClass> {
    // Evaluated as straight-line selects rather than an early-return chain:
    // which test fires is data-dependent and effectively random across the
    // pair stream, so branching on each would mispredict constantly on the
    // hottest path in the engine.
    let null = ((a.reads | a.writes) == 0) | ((b.reads | b.writes) == 0);
    let read_read = (a.writes | b.writes) == 0;
    let disjoint = (a.reads & b.writes) | (a.writes & b.reads) | (a.writes & b.writes) == 0;
    if null {
        Some(PairClass::Ulcp(UlcpKind::NullLock))
    } else if read_read {
        Some(PairClass::Ulcp(UlcpKind::ReadRead))
    } else if disjoint {
        Some(PairClass::Ulcp(UlcpKind::DisjointWrite))
    } else {
        None
    }
}

/// The state of one `(section, other-thread)` sequential search.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Search {
    /// Classifications performed so far (the unit the scan cap counts).
    pub(crate) scanned: u32,
    /// True once a TLCP ended the search or the cap was reached.
    pub(crate) done: bool,
}

/// A shadow-memory history answering "the value just before `at`", as
/// [`LastWriteIndex::value_before`] defines it.
pub(crate) trait ShadowHistory {
    fn value_before(&self, obj: ObjectId, at: Time) -> Option<i64>;
}

impl ShadowHistory for LastWriteIndex {
    fn value_before(&self, obj: ObjectId, at: Time) -> Option<i64> {
        LastWriteIndex::value_before(self, obj, at)
    }
}

/// Lazy [`StartState`] view over a history at one virtual time.
struct Before<'a, H> {
    history: &'a H,
    at: Time,
}

impl<H: ShadowHistory> StartState for Before<'_, H> {
    fn value(&self, obj: ObjectId) -> i64 {
        self.history.value_before(obj, self.at).unwrap_or(0)
    }
}

/// The classification context of one lock: borrows the section table, its
/// packed rows, the history and the lock's sink once, so each pair costs one
/// classification plus one emission.
pub(crate) struct PairKernel<'a, S, H> {
    /// `max_scan_per_thread` with `None` hoisted to "unlimited", so the
    /// per-pair cap check is one integer compare.
    cap: u32,
    use_reversed_replay: bool,
    lock: LockId,
    /// `sections[i]` and `meta[i]` describe the same section; candidate
    /// lists index both.
    sections: &'a [CriticalSection],
    meta: &'a [SecMeta],
    history: &'a H,
    out: &'a mut S,
    breakdown: &'a mut UlcpBreakdown,
}

impl<'a, S: UlcpSink, H: ShadowHistory> PairKernel<'a, S, H> {
    pub(crate) fn new(
        config: DetectorConfig,
        lock: LockId,
        sections: &'a [CriticalSection],
        meta: &'a [SecMeta],
        history: &'a H,
        out: &'a mut S,
        breakdown: &'a mut UlcpBreakdown,
    ) -> Self {
        PairKernel {
            cap: config
                .max_scan_per_thread
                .map_or(u32::MAX, |c| u32::try_from(c).unwrap_or(u32::MAX)),
            use_reversed_replay: config.use_reversed_replay,
            lock,
            sections,
            meta,
            history,
            out,
            breakdown,
        }
    }

    /// Continues the search of `first` over the next run of one other
    /// thread's candidates, in order, until a TLCP or the cap ends it.
    /// Returns how many candidates the search consumed.
    ///
    /// The cap counts classifications performed: a TLCP found by the
    /// cap-th classification is still recorded, and only candidates beyond
    /// the cap go unseen. A zero cap consumes its first candidate
    /// unclassified and ends the search.
    pub(crate) fn scan(&mut self, first: usize, candidates: &[u32], search: &mut Search) -> usize {
        if search.done || candidates.is_empty() {
            return 0;
        }
        let room = self.cap.saturating_sub(search.scanned) as usize;
        if room == 0 {
            search.done = true;
            return 1;
        }
        // The cap bounds the visit up front, so the hot loop walks a
        // borrowed slice with no per-candidate cap bookkeeping; `classify`
        // still sets `done` at the cap or on a TLCP.
        let fm = self.meta[first];
        let mut taken = 0;
        for &second in &candidates[..room.min(candidates.len())] {
            taken += 1;
            self.classify(first, fm, second as usize, search);
            if search.done {
                break;
            }
        }
        taken
    }

    /// Classifies one pair exactly as [`classify_pair`] does, through the
    /// summary-word fast path when it is decisive, then emits the outcome
    /// and updates the search. `fm` is `self.meta[first]`, hoisted by the
    /// caller across a whole candidate run.
    #[inline]
    fn classify(&mut self, first: usize, fm: SecMeta, second: usize, search: &mut Search) {
        let sm = self.meta[second];
        let class = match fast_classify(fm.key, sm.key) {
            Some(class) => class,
            None => {
                let state = Before {
                    history: self.history,
                    at: self.sections[first].enter_time,
                };
                classify_pair(
                    &self.sections[first],
                    &self.sections[second],
                    &state,
                    self.use_reversed_replay,
                )
            }
        };
        search.scanned += 1;
        if search.scanned >= self.cap {
            search.done = true;
        }
        // Constructing the refs is free; on the fast path a sink that
        // overrides `emit_threaded` never dereferences them.
        let ctx = SectionCtx {
            first: &self.sections[first],
            second: &self.sections[second],
        };
        match class {
            PairClass::Tlcp => {
                search.done = true;
                self.out.emit_edge(
                    CausalEdge {
                        from: fm.id,
                        to: sm.id,
                        lock: self.lock,
                    },
                    &ctx,
                );
                self.breakdown.tlcp_edges += 1;
            }
            PairClass::Ulcp(kind) => {
                self.breakdown.add(kind);
                self.out.emit_threaded(
                    Ulcp {
                        first: fm.id,
                        second: sm.id,
                        lock: self.lock,
                        kind,
                    },
                    sm.thread,
                    &ctx,
                );
            }
        }
    }
}
