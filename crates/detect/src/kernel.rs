//! The pairing kernel of the batch engine: the packed per-section rows, the
//! summary-word fast path, and the classify-and-emit step of one sequential
//! search.
//!
//! Section 3.1's sequential search compares each critical section, per
//! other thread, against that thread's later sections on the same lock, and
//! stops at the first true contention (TLCP) or at the scan cap. The
//! [`Detector`](crate::Detector) walks each lock with forward-only
//! per-thread cursors and hands each run of candidates to
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

use perfplay_trace::{CriticalSection, LockId, SectionId, ThreadId};

use crate::classify::classify_pair;
use crate::kinds::{PairClass, UlcpKind};
use crate::pairing::{CausalEdge, DetectorConfig, Ulcp, UlcpBreakdown};
use crate::shadow::LastWriteIndex;
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

/// Dense per-section hot-path row, parallel to the section table: the
/// summary words plus the global id and thread, which is everything
/// classification and emission need in 24 bytes. Detection classifies
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

/// The classification context of one lock: borrows the section table, its
/// packed rows, the history and the lock's sink once, so each pair costs one
/// classification plus one emission.
pub(crate) struct PairKernel<'a, S> {
    /// `max_scan_per_thread` with `None` hoisted to "unlimited", so the cap
    /// bounds each candidate run up front.
    cap: usize,
    use_reversed_replay: bool,
    lock: LockId,
    /// `sections[i]` and `meta[i]` describe the same section; candidate
    /// lists index both.
    sections: &'a [CriticalSection],
    meta: &'a [SecMeta],
    history: &'a LastWriteIndex,
    out: &'a mut S,
    breakdown: &'a mut UlcpBreakdown,
}

impl<'a, S: UlcpSink> PairKernel<'a, S> {
    pub(crate) fn new(
        config: DetectorConfig,
        lock: LockId,
        sections: &'a [CriticalSection],
        meta: &'a [SecMeta],
        history: &'a LastWriteIndex,
        out: &'a mut S,
        breakdown: &'a mut UlcpBreakdown,
    ) -> Self {
        PairKernel {
            cap: config.max_scan_per_thread.unwrap_or(usize::MAX),
            use_reversed_replay: config.use_reversed_replay,
            lock,
            sections,
            meta,
            history,
            out,
            breakdown,
        }
    }

    /// Runs the search of `first` over one other thread's later
    /// candidates, in order, until a TLCP or the cap ends it.
    ///
    /// The cap counts classifications performed: a TLCP found by the
    /// cap-th classification is still recorded, and only candidates beyond
    /// the cap go unseen. A zero cap classifies nothing.
    pub(crate) fn scan(&mut self, first: usize, candidates: &[u32]) {
        // The cap bounds the visit up front, so the hot loop walks a
        // borrowed slice with no per-candidate cap bookkeeping.
        let fm = self.meta[first];
        for &second in &candidates[..self.cap.min(candidates.len())] {
            if matches!(self.classify(first, fm, second as usize), PairClass::Tlcp) {
                break;
            }
        }
    }

    /// Classifies one pair exactly as [`classify_pair`] does, through the
    /// summary-word fast path when it is decisive, emits the outcome and
    /// returns it. `fm` is `self.meta[first]`, hoisted by the caller across
    /// a whole candidate run.
    #[inline]
    fn classify(&mut self, first: usize, fm: SecMeta, second: usize) -> PairClass {
        let sm = self.meta[second];
        let class = match fast_classify(fm.key, sm.key) {
            Some(class) => class,
            None => classify_pair(
                &self.sections[first],
                &self.sections[second],
                &self.history.state_before(self.sections[first].enter_time),
                self.use_reversed_replay,
            ),
        };
        // Constructing the refs is free; a sink that ignores the context
        // (`CollectPairs`) never dereferences them.
        let ctx = SectionCtx {
            first: &self.sections[first],
            second: &self.sections[second],
        };
        match class {
            PairClass::Tlcp => {
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
                self.out.emit(
                    Ulcp {
                        first: fm.id,
                        second: sm.id,
                        lock: self.lock,
                        kind,
                    },
                    &ctx,
                );
            }
        }
        class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    #[test]
    fn summary_fast_path_agrees_with_classify_by_sets() {
        // Pairs drawn from a trace with overlapping and disjoint footprints:
        // whenever the fast path answers, the full classifier must agree.
        let mut b = ProgramBuilder::new("kernel-test");
        let locks: Vec<_> = (0..3).map(|i| b.lock(format!("l{i}"))).collect();
        let objs: Vec<_> = (0..5)
            .map(|i| b.shared(format!("o{i}"), i as i64))
            .collect();
        let site = b.site("s.c", "f", 1);
        for t in 0..3 {
            let locks = locks.clone();
            let objs = objs.clone();
            b.thread(format!("t{t}"), |tb| {
                for k in 0..6usize {
                    let lock = locks[k % locks.len()];
                    let obj = objs[(t + k) % objs.len()];
                    tb.locked(lock, site, |cs| match k % 4 {
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
                    });
                    tb.compute_ns(25);
                }
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        let mut checked = 0usize;
        for (i, a) in analysis.sections.iter().enumerate() {
            for b in analysis.sections.iter().skip(i + 1) {
                if let Some(fast) = fast_classify(PairKey::of(a), PairKey::of(b)) {
                    assert_eq!(fast, crate::classify::classify_by_sets(a, b));
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "fast path never applied");
    }
}
