//! Pairing of critical sections into ULCPs and TLCP causal edges.
//!
//! The matching procedure follows Section 3.1 of the paper: every critical
//! section is compared, per other thread, against the later critical sections
//! protected by the same lock in timing-index order ("sequential searching");
//! non-conflicting pairs encountered on the way are ULCPs, and the first true
//! contention found per thread ends the search and yields the causal edge
//! RULE 1 keeps in the ULCP-free topology.
//!
//! The batch engine walks each lock once. It packs every section into a
//! 24-byte row (footprint summary words, id, thread) and groups the lock's
//! sections by thread. Because a lock's sections are visited in ascending
//! id, each thread's later candidates start at a forward-only cursor: the
//! cursor of a thread moves by one each time one of its own sections has
//! been searched from. Each run of candidates goes to the pairing kernel,
//! which reads the full section rows only when two summary words collide.
//!
//! The engine is *snapshot-free*: instead of cloning a full shadow-memory
//! snapshot per critical section (O(sections x objects) memory), one
//! [`LastWriteIndex`] is built per trace and the reversed-replay benign check
//! fetches the footprint values it needs lazily: one hash probe per object,
//! then a binary search over that object's writes. Locks are independent,
//! so the engine fans the per-lock walks out across OS threads (see
//! [`DetectorConfig::parallel`] and [`Detector::with_workers`]); per-lock
//! results are merged back in ascending lock order, keeping the output
//! bit-identical to the sequential path.

use std::collections::BTreeMap;

use perfplay_trace::{
    available_threads, extract_critical_sections, map_work_queue, CriticalSection, LockId,
    SectionId, Trace,
};
use serde::{Deserialize, Serialize};

use crate::kernel::{PairKernel, SecMeta};
use crate::kinds::UlcpKind;
use crate::shadow::LastWriteIndex;
use crate::sink::{CollectPairs, SinkAnalysis, UlcpSink};

/// One unnecessary lock contention pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ulcp {
    /// The earlier critical section of the pair (by original timing).
    pub first: SectionId,
    /// The later critical section of the pair.
    pub second: SectionId,
    /// The lock both sections are protected by.
    pub lock: LockId,
    /// The ULCP category.
    pub kind: UlcpKind,
}

/// A causal edge between two truly conflicting critical sections (a TLCP),
/// kept by RULE 1 when the ULCP-free topology is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// Source node (earlier section).
    pub from: SectionId,
    /// Destination node (later section).
    pub to: SectionId,
    /// The lock that made the two sections contend.
    pub lock: LockId,
}

/// Per-category ULCP counts for one application — one row of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UlcpBreakdown {
    /// Dynamic lock acquisitions in the trace (the "# Locks" column).
    pub lock_acquisitions: usize,
    /// Null-lock ULCPs.
    pub null_lock: usize,
    /// Read-read ULCPs.
    pub read_read: usize,
    /// Disjoint-write ULCPs.
    pub disjoint_write: usize,
    /// Benign ULCPs.
    pub benign: usize,
    /// True lock contention pairs (causal edges retained).
    pub tlcp_edges: usize,
}

impl UlcpBreakdown {
    /// Total number of ULCPs across all categories.
    pub fn total_ulcps(&self) -> usize {
        self.null_lock + self.read_read + self.disjoint_write + self.benign
    }

    /// Count for a specific category.
    pub fn count(&self, kind: UlcpKind) -> usize {
        match kind {
            UlcpKind::NullLock => self.null_lock,
            UlcpKind::ReadRead => self.read_read,
            UlcpKind::DisjointWrite => self.disjoint_write,
            UlcpKind::Benign => self.benign,
        }
    }

    pub(crate) fn add(&mut self, kind: UlcpKind) {
        match kind {
            UlcpKind::NullLock => self.null_lock += 1,
            UlcpKind::ReadRead => self.read_read += 1,
            UlcpKind::DisjointWrite => self.disjoint_write += 1,
            UlcpKind::Benign => self.benign += 1,
        }
    }

    /// Sums every field of another *whole-trace* breakdown into this one —
    /// the fused Table 1 row of the multi-trace batch driver. Unlike the
    /// per-lock shard merge, `lock_acquisitions` accumulates too: each input
    /// is a complete trace's count.
    pub fn merge_totals(&mut self, other: &UlcpBreakdown) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.merge_pair_counts(other);
    }

    /// Accumulates another breakdown's pair counts into this one.
    /// `lock_acquisitions` is a whole-trace property, not a per-lock count,
    /// and is deliberately not summed.
    pub(crate) fn merge_pair_counts(&mut self, other: &UlcpBreakdown) {
        self.null_lock += other.null_lock;
        self.read_read += other.read_read;
        self.disjoint_write += other.disjoint_write;
        self.benign += other.benign;
        self.tlcp_edges += other.tlcp_edges;
    }
}

/// Configuration of the ULCP detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Refine conflicting pairs with the reversed-replay benign check
    /// (Section 3.1). Disabling it is an ablation: every conflict becomes a
    /// TLCP.
    pub use_reversed_replay: bool,
    /// Optional cap on how many candidate pairs are *classified* per
    /// (section, other-thread) search before the search gives up. `None`
    /// scans until the first TLCP as the paper describes.
    ///
    /// The cap counts classifications actually performed: a TLCP discovered
    /// by the cap-th classification is still recorded (the search would have
    /// stopped there anyway); only candidates *beyond* the cap go unseen.
    pub max_scan_per_thread: Option<usize>,
    /// Spend the machine's cores ([`perfplay_trace::available_threads`]):
    /// fan the independent per-lock searches out across OS threads. Results
    /// are merged deterministically (ascending lock order, original search
    /// order within each lock), so output is bit-identical to the
    /// sequential path. On by default; `false` keeps detection on the
    /// calling thread.
    ///
    /// How each entry point composes with this flag:
    ///
    /// | entry point | `parallel: false` | `parallel: true` (default) |
    /// |---|---|---|
    /// | [`Detector::new`], then `analyze` / `analyze_with` / `plan` | sequential per-lock loop | per-lock work-queue fan-out, one worker per core |
    /// | [`Detector::with_workers`] | ignored — fan-out width from the constructor | ignored |
    /// | [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) (loads the stream, then [`Detector::with_workers`]) | ignored — fan-out width from the constructor | ignored |
    ///
    /// The pipeline drivers in `perfplay-report` read it as the thread
    /// budget of a whole run: one thread when `false`, one per core when
    /// `true`.
    pub parallel: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            use_reversed_replay: true,
            max_scan_per_thread: None,
            parallel: true,
        }
    }
}

/// The result of ULCP identification over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct UlcpAnalysis {
    /// Every dynamic critical section, indexed by [`SectionId::index`].
    pub sections: Vec<CriticalSection>,
    /// All unnecessary lock contention pairs found.
    pub ulcps: Vec<Ulcp>,
    /// All causal edges (true contention pairs) found.
    pub edges: Vec<CausalEdge>,
    /// Per-category counts.
    pub breakdown: UlcpBreakdown,
}

impl UlcpAnalysis {
    /// Returns the critical section for an id.
    pub fn section(&self, id: SectionId) -> &CriticalSection {
        &self.sections[id.index()]
    }

    /// Groups the ULCPs by the lock that produced them.
    pub fn ulcps_by_lock(&self) -> BTreeMap<LockId, Vec<&Ulcp>> {
        let mut map: BTreeMap<LockId, Vec<&Ulcp>> = BTreeMap::new();
        for u in &self.ulcps {
            map.entry(u.lock).or_default().push(u);
        }
        map
    }
}

/// PerfPlay's ULCP identification stage.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectorConfig,
    /// Most threads the per-lock fan-out may use; 1 walks every lock on the
    /// calling thread.
    workers: usize,
}

impl Default for Detector {
    fn default() -> Self {
        Detector::new(DetectorConfig::default())
    }
}

impl Detector {
    /// Creates a detector with the given configuration. With
    /// [`DetectorConfig::parallel`] set, the per-lock fan-out may use one
    /// thread per core ([`perfplay_trace::available_threads`]); otherwise
    /// every lock is walked on the calling thread.
    pub fn new(config: DetectorConfig) -> Self {
        let workers = if config.parallel {
            available_threads()
        } else {
            1
        };
        Detector::with_workers(config, workers)
    }

    /// Creates a detector whose per-lock fan-out uses at most `workers`
    /// threads (clamped to at least 1), whatever `config.parallel` says.
    /// The pipeline drivers use it to hand detection its share of a thread
    /// budget, and
    /// [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) to
    /// detect the trace it loads.
    pub fn with_workers(config: DetectorConfig, workers: usize) -> Self {
        Detector {
            config,
            workers: workers.max(1),
        }
    }

    /// Identifies all ULCPs and causal edges in a recorded trace,
    /// materializing every pair: [`analyze_with`](Self::analyze_with) into a
    /// [`CollectPairs`](crate::CollectPairs) sink.
    pub fn analyze(&self, trace: &Trace) -> UlcpAnalysis {
        self.analyze_with(trace, CollectPairs::default()).into()
    }

    /// Identifies all ULCPs and causal edges in a recorded trace, emitting
    /// every pair through the caller's sink in the canonical
    /// `(lock, first, second-thread, second)` order.
    ///
    /// The sink must be `Send + Sync` because the per-lock fan-out forks
    /// one shard per lock across worker threads; shards are absorbed
    /// back in ascending lock order, so an order-preserving sink sees the
    /// exact sequential emission order and the output is bit-identical to
    /// the sequential path.
    pub fn analyze_with<S: UlcpSink + Send + Sync>(
        &self,
        trace: &Trace,
        sink: S,
    ) -> SinkAnalysis<S> {
        self.analyze_indexed(trace, sink).0
    }

    /// [`analyze_with`](Self::analyze_with), also returning the
    /// [`num_entries`](LastWriteIndex::num_entries) of the last-write index
    /// the run built (0 when the reversed replay is off).
    pub(crate) fn analyze_indexed<S: UlcpSink + Send + Sync>(
        &self,
        trace: &Trace,
        mut sink: S,
    ) -> (SinkAnalysis<S>, usize) {
        let sections = extract_critical_sections(trace);
        // The index only feeds the reversed-replay benign check; in the
        // ablation mode (`use_reversed_replay: false`) no state is ever
        // consulted, so skip the O(E log E) build entirely.
        let index = if self.config.use_reversed_replay {
            LastWriteIndex::build(trace)
        } else {
            LastWriteIndex::default()
        };
        let table = SectionTable {
            meta: sections.iter().map(SecMeta::of).collect(),
            num_threads: sections
                .iter()
                .map(|s| s.thread.index() + 1)
                .max()
                .unwrap_or(0),
            sections: &sections,
            index: &index,
        };
        let mut by_lock: BTreeMap<LockId, Vec<u32>> = BTreeMap::new();
        for (i, s) in sections.iter().enumerate() {
            by_lock.entry(s.lock).or_default().push(i as u32);
        }
        let locks: Vec<(LockId, Vec<u32>)> = by_lock.into_iter().collect();

        let mut breakdown = UlcpBreakdown {
            lock_acquisitions: trace.num_acquisitions(),
            ..UlcpBreakdown::default()
        };
        if self.workers > 1 && locks.len() > 1 {
            // Ascending lock order (BTreeMap order preserved in `locks`);
            // within a lock the search order itself is deterministic, so the
            // absorbed output matches the sequential path exactly.
            for (shard, shard_breakdown) in self.analyze_locks_parallel(&locks, &table, &sink) {
                sink.absorb(shard);
                breakdown.merge_pair_counts(&shard_breakdown);
            }
        } else {
            for (lock, members) in &locks {
                table.analyze_lock_into(*lock, members, self.config, &mut sink, &mut breakdown);
            }
        }

        let analysis = SinkAnalysis {
            sections,
            breakdown,
            sink,
        };
        (analysis, index.num_entries())
    }

    /// Fans the per-lock walks out over a shared work queue of lock
    /// indices ([`map_work_queue`]), on min(workers, locks) threads.
    /// Per-lock cost is wildly skewed on real workloads (one guard mutex
    /// often dominates), so workers pop the next lock instead of being
    /// handed a fixed chunk — a hot lock occupies one worker while the rest
    /// drain the remainder. The shards come back in the deterministic
    /// ascending-lock order.
    fn analyze_locks_parallel<S: UlcpSink + Send + Sync>(
        &self,
        locks: &[(LockId, Vec<u32>)],
        table: &SectionTable<'_>,
        sink: &S,
    ) -> Vec<(S, UlcpBreakdown)> {
        map_work_queue(locks.len(), self.workers, |i| {
            let (lock, members) = &locks[i];
            let mut shard = sink.fork();
            let mut shard_breakdown = UlcpBreakdown::default();
            table.analyze_lock_into(
                *lock,
                members,
                self.config,
                &mut shard,
                &mut shard_breakdown,
            );
            (shard, shard_breakdown)
        })
    }
}

/// Everything the per-lock walks share: the section table, its packed rows
/// and the last-write index.
struct SectionTable<'a> {
    sections: &'a [CriticalSection],
    /// `meta[i]` is the packed row of `sections[i]`.
    meta: Vec<SecMeta>,
    /// One more than the largest thread index of any section.
    num_threads: usize,
    index: &'a LastWriteIndex,
}

impl SectionTable<'_> {
    /// Runs the sequential search from every section of one lock, emitting
    /// every classified pair into the sink. `members` holds the lock's
    /// section indices in ascending id order; each is searched against the
    /// other threads in ascending thread order, each thread's candidates in
    /// ascending id, which is the canonical emission order.
    fn analyze_lock_into<S: UlcpSink>(
        &self,
        lock: LockId,
        members: &[u32],
        config: DetectorConfig,
        sink: &mut S,
        breakdown: &mut UlcpBreakdown,
    ) {
        let meta = &self.meta[..];
        // The lock's sections grouped by thread in one flat array (a
        // counting sort): thread `t`'s run is `order[next[t]..end[t]]`, in
        // ascending id.
        let mut end = vec![0u32; self.num_threads];
        for &i in members {
            end[meta[i as usize].thread.index()] += 1;
        }
        let mut next = Vec::with_capacity(self.num_threads);
        let mut total = 0u32;
        for e in &mut end {
            next.push(total);
            total += *e;
            *e = total;
        }
        let mut order = vec![0u32; members.len()];
        let mut fill = next.clone();
        for &i in members {
            let slot = &mut fill[meta[i as usize].thread.index()];
            order[*slot as usize] = i;
            *slot += 1;
        }
        let threads: Vec<usize> = (0..self.num_threads)
            .filter(|&t| next[t] < end[t])
            .collect();

        let mut kernel = PairKernel::new(
            config,
            lock,
            self.sections,
            meta,
            self.index,
            sink,
            breakdown,
        );
        for &first in members {
            let ti = meta[first as usize].thread.index();
            for &u in &threads {
                if u != ti {
                    let candidates = &order[next[u] as usize..end[u] as usize];
                    kernel.scan(first as usize, candidates);
                }
            }
            // `first` heads its thread's run, and every later section of
            // the lock has a larger id: the cursor moves past it for good.
            debug_assert_eq!(order[next[ti] as usize], first);
            next[ti] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference_analyze, ParallelStreamingDetector};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::{CodeSiteId, Event, ObjectId, Time, TraceChunks, TraceMeta, WriteOp};

    fn record(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new("detect-test");
        build(&mut b);
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    #[test]
    fn read_read_workload_produces_read_read_ulcps() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("rr.c", "reader", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(3, |l| {
                        l.locked(lock, site, |cs| {
                            cs.read(x);
                            cs.compute_ns(100);
                        });
                        l.compute_ns(50);
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        assert_eq!(analysis.breakdown.lock_acquisitions, 6);
        assert!(analysis.breakdown.read_read > 0);
        assert_eq!(analysis.breakdown.tlcp_edges, 0);
        assert_eq!(analysis.breakdown.null_lock, 0);
        assert_eq!(analysis.breakdown.total_ulcps(), analysis.ulcps.len());
        // All pairs are cross-thread and ordered by id.
        for u in &analysis.ulcps {
            assert!(u.first < u.second);
            assert_ne!(
                analysis.section(u.first).thread,
                analysis.section(u.second).thread
            );
        }
    }

    #[test]
    fn conflicting_workload_produces_tlcp_edges_not_ulcps() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("w.c", "writer", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site, |cs| {
                        let v = cs.read_into(x);
                        cs.write_set(x, 1);
                        // Use the local so the read is meaningful.
                        cs.if_then(
                            perfplay_program::Cond::eq(perfplay_program::ValueSource::Local(v), 99),
                            |then| {
                                then.compute_ns(1);
                            },
                        );
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        assert_eq!(analysis.breakdown.tlcp_edges, 1);
        assert_eq!(analysis.breakdown.total_ulcps(), 0);
        assert_eq!(analysis.edges.len(), 1);
        assert!(analysis.edges[0].from < analysis.edges[0].to);
    }

    #[test]
    fn null_lock_workload_is_classified_null() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let _x = b.shared("x", 0);
            let site = b.site("nl.c", "maybe_update", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(2, |l| {
                        // The branch on a local that is always 0 means the
                        // shared update never happens: a null-lock.
                        l.locked(lock, site, |cs| {
                            cs.compute_ns(40);
                        });
                        l.compute_ns(10);
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        assert!(analysis.breakdown.null_lock > 0);
        assert_eq!(analysis.breakdown.tlcp_edges, 0);
    }

    #[test]
    fn disjoint_writes_under_one_lock_are_detected() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let y = b.shared("y", 0);
            let site_a = b.site("dw.c", "update_x", 1);
            let site_b = b.site("dw.c", "update_y", 2);
            b.thread("tx", |t| {
                t.locked(lock, site_a, |cs| {
                    cs.write_add(x, 1);
                });
            });
            b.thread("ty", |t| {
                t.locked(lock, site_b, |cs| {
                    cs.write_add(y, 1);
                });
            });
        });
        let analysis = Detector::default().analyze(&trace);
        assert_eq!(analysis.breakdown.disjoint_write, 1);
        assert_eq!(analysis.breakdown.tlcp_edges, 0);
    }

    #[test]
    fn benign_redundant_writes_need_reversed_replay() {
        let build = |b: &mut ProgramBuilder| {
            let lock = b.lock("m");
            let flag = b.shared("done", 0);
            let site = b.site("bw.c", "set_done", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site, |cs| {
                        cs.write_set(flag, 1);
                    });
                });
            }
        };
        let trace = record(build);
        let with_rr = Detector::default().analyze(&trace);
        assert_eq!(with_rr.breakdown.benign, 1);
        assert_eq!(with_rr.breakdown.tlcp_edges, 0);

        let without_rr = Detector::new(DetectorConfig {
            use_reversed_replay: false,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(without_rr.breakdown.benign, 0);
        assert_eq!(without_rr.breakdown.tlcp_edges, 1);
    }

    #[test]
    fn tlcp_stops_the_sequential_search() {
        // Thread 1 performs: read-only CS, then a writing CS, then another
        // read-only CS. Thread 0 performs one read-only CS before all of them.
        // The search from thread 0's section must stop at the writing CS, so
        // the trailing read-only CS does not form a ULCP with it.
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("seq.c", "f", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(50);
            });
            b.thread("t1", |t| {
                t.compute_us(5);
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.write_add(x, 1);
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
            });
        });
        let analysis = Detector::default().analyze(&trace);
        // t0's section pairs with t1's first read-only section (ULCP), then
        // hits the writing section (TLCP edge) and stops.
        let t0_first = analysis
            .sections
            .iter()
            .find(|s| s.thread == perfplay_trace::ThreadId::new(0))
            .unwrap()
            .id;
        let ulcps_from_t0: Vec<_> = analysis
            .ulcps
            .iter()
            .filter(|u| u.first == t0_first)
            .collect();
        assert_eq!(ulcps_from_t0.len(), 1);
        let edges_from_t0: Vec<_> = analysis
            .edges
            .iter()
            .filter(|e| e.from == t0_first)
            .collect();
        assert_eq!(edges_from_t0.len(), 1);
    }

    #[test]
    fn scan_cap_limits_pairs() {
        let build = |b: &mut ProgramBuilder| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("cap.c", "reader", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(100);
            });
            b.thread("t1", |t| {
                t.compute_us(10);
                t.loop_n(6, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                });
            });
        };
        let trace = record(build);
        let unlimited = Detector::default().analyze(&trace);
        let capped = Detector::new(DetectorConfig {
            max_scan_per_thread: Some(2),
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert!(capped.breakdown.total_ulcps() < unlimited.breakdown.total_ulcps());
    }

    #[test]
    fn scan_cap_still_records_tlcp_found_at_the_cap_boundary() {
        // Thread 1's sections (after thread 0's): [read-only, writer, ...].
        // With cap = 2 the second classification is the conflicting pair —
        // the cap must not swallow that edge (the historical off-by-one
        // risk), while cap = 1 stops before ever seeing the writer.
        let build = |b: &mut ProgramBuilder| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("capedge.c", "f", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(100);
            });
            b.thread("t1", |t| {
                t.compute_us(10);
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.write_add(x, 1);
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
            });
        };
        let trace = record(build);

        let at_cap = Detector::new(DetectorConfig {
            max_scan_per_thread: Some(2),
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        let t0_first = at_cap
            .sections
            .iter()
            .find(|s| s.thread == perfplay_trace::ThreadId::new(0))
            .unwrap()
            .id;
        assert_eq!(
            at_cap.edges.iter().filter(|e| e.from == t0_first).count(),
            1,
            "TLCP classified exactly at the cap must be recorded"
        );
        assert_eq!(
            at_cap.ulcps.iter().filter(|u| u.first == t0_first).count(),
            1
        );

        let below_cap = Detector::new(DetectorConfig {
            max_scan_per_thread: Some(1),
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(
            below_cap
                .edges
                .iter()
                .filter(|e| e.from == t0_first)
                .count(),
            0,
            "cap = 1 stops the search before the writer is ever classified"
        );
        assert_eq!(
            below_cap
                .ulcps
                .iter()
                .filter(|u| u.first == t0_first)
                .count(),
            1
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_sequential() {
        let trace = record(|b| {
            let locks: Vec<_> = (0..4).map(|i| b.lock(format!("l{i}"))).collect();
            let objs: Vec<_> = (0..4).map(|i| b.shared(format!("o{i}"), 0)).collect();
            let site = b.site("par.c", "worker", 1);
            for i in 0..3 {
                let locks = locks.clone();
                let objs = objs.clone();
                b.thread(format!("t{i}"), |t| {
                    for k in 0..4 {
                        t.locked(locks[k], site, |cs| {
                            if k % 2 == 0 {
                                cs.read(objs[k]);
                            } else {
                                cs.write_add(objs[k], 1);
                            }
                            cs.compute_ns(30);
                        });
                        t.compute_ns(20);
                    }
                });
            }
        });
        let sequential = Detector::new(DetectorConfig {
            parallel: false,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(sequential.breakdown, parallel.breakdown);
        assert_eq!(sequential.ulcps, parallel.ulcps);
        assert_eq!(sequential.edges, parallel.edges);
        assert_eq!(sequential.sections, parallel.sections);
        // Explicit fan-out widths, below, at and beyond the lock count,
        // whatever the machine's core count.
        for workers in [1, 2, 3, 4, 8] {
            let fanned = Detector::with_workers(DetectorConfig::default(), workers).analyze(&trace);
            assert_eq!(fanned, sequential, "{workers} worker(s)");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_a_skewed_hot_lock() {
        // One guard mutex takes almost every section (the common real-world
        // shape); the work-queue fan-out must still merge deterministically.
        let trace = record(|b| {
            let hot = b.lock("guard");
            let cold = b.lock("side");
            let x = b.shared("x", 0);
            let y = b.shared("y", 0);
            let site = b.site("skew.c", "worker", 1);
            for i in 0..3 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(8, |l| {
                        l.locked(hot, site, |cs| {
                            cs.read(x);
                            if i == 0 {
                                cs.write_add(x, 1);
                            }
                        });
                        l.compute_ns(15);
                    });
                    t.locked(cold, site, |cs| {
                        cs.read(y);
                    });
                });
            }
        });
        let sequential = Detector::new(DetectorConfig {
            parallel: false,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(sequential.breakdown, parallel.breakdown);
        assert_eq!(sequential.ulcps, parallel.ulcps);
        assert_eq!(sequential.edges, parallel.edges);
        let two = Detector::with_workers(DetectorConfig::default(), 2).analyze(&trace);
        assert_eq!(two, sequential);
    }

    #[test]
    fn ulcps_by_lock_groups_pairs() {
        let trace = record(|b| {
            let l0 = b.lock("a");
            let l1 = b.lock("b");
            let x = b.shared("x", 0);
            let y = b.shared("y", 0);
            let s0 = b.site("g.c", "fa", 1);
            let s1 = b.site("g.c", "fb", 2);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(l0, s0, |cs| {
                        cs.read(x);
                    });
                    t.locked(l1, s1, |cs| {
                        cs.read(y);
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        let grouped = analysis.ulcps_by_lock();
        assert_eq!(grouped.len(), 2);
        assert!(grouped.values().all(|v| v.len() == 1));
    }

    /// A trace the recorder never produces: three threads enter lock 0 at
    /// the same instant (twice), thread 1 re-enters lock 0 while holding
    /// it, and thread 2 nests lock 1 inside lock 0.
    fn tied_and_reentrant_trace() -> Trace {
        let (l0, l1) = (LockId::new(0), LockId::new(1));
        let (x, y) = (ObjectId::new(0), ObjectId::new(1));
        let site = CodeSiteId::new(0);
        let acq = |lock| Event::LockAcquire { lock, site };
        let rel = |lock| Event::LockRelease { lock };
        let read = |obj, value| Event::Read { obj, value };
        let set = |obj, v| Event::Write {
            obj,
            op: WriteOp::Set(v),
            value: v,
        };
        let add = |obj, d, value| Event::Write {
            obj,
            op: WriteOp::Add(d),
            value,
        };
        let mut trace = Trace::new(TraceMeta::default(), 3);
        // Acquire `lock` at `at`, run `body` one event per nanosecond, and
        // release it.
        let mut section = |t: usize, at: u64, lock: LockId, body: &[Event]| {
            let events = std::iter::once(acq(lock))
                .chain(body.iter().cloned())
                .chain(std::iter::once(rel(lock)));
            for (k, event) in (at..).zip(events) {
                trace.threads[t].push(Time::from_nanos(k), event);
            }
        };
        section(0, 10, l0, &[set(x, 1)]);
        section(1, 10, l0, &[read(x, 0)]);
        section(2, 10, l0, &[add(y, 1, 1)]);
        section(0, 30, l0, &[read(x, 1)]);
        section(1, 30, l0, &[acq(l0), add(y, 3, 4), rel(l0), read(x, 1)]);
        section(2, 30, l0, &[read(y, 1), add(y, 1, 2)]);
        section(0, 50, l0, &[add(y, 2, 3)]);
        section(1, 50, l0, &[]);
        section(2, 50, l0, &[acq(l1), read(x, 1), rel(l1)]);
        section(0, 70, l1, &[read(y, 3)]);
        section(1, 70, l1, &[set(y, 4)]);
        section(0, 90, l0, &[set(x, 1)]);
        section(1, 90, l0, &[set(x, 1)]);
        section(2, 90, l0, &[read(x, 1)]);
        trace
    }

    #[test]
    fn ties_and_reentrant_nesting_match_the_reference_at_every_cap() {
        let trace = tied_and_reentrant_trace();
        let sections = extract_critical_sections(&trace);
        let l0 = LockId::new(0);
        let tied = sections
            .iter()
            .filter(|s| s.lock == l0 && s.enter_time == Time::from_nanos(10))
            .count();
        assert_eq!(tied, 3);
        assert!(sections.iter().any(|s| s.lock == l0 && s.depth == 1));
        let full = reference_analyze(&trace, DetectorConfig::default());
        assert!(full.breakdown.benign > 0 && full.breakdown.tlcp_edges > 0);

        for cap in [None, Some(0), Some(1), Some(3)] {
            let config = DetectorConfig {
                max_scan_per_thread: cap,
                ..DetectorConfig::default()
            };
            let reference = reference_analyze(&trace, config);
            for parallel in [false, true] {
                let batch = Detector::new(DetectorConfig { parallel, ..config }).analyze(&trace);
                assert_eq!(batch, reference, "cap {cap:?}, parallel {parallel}");
            }
            for (workers, chunk_events) in [(1, 1), (2, 5), (1, 1000)] {
                let (streamed, _) = ParallelStreamingDetector::with_workers(config, workers)
                    .analyze_with(
                        &mut TraceChunks::new(&trace, chunk_events),
                        CollectPairs::default(),
                    )
                    .unwrap();
                assert_eq!(
                    UlcpAnalysis::from(streamed),
                    reference,
                    "cap {cap:?}, workers {workers}"
                );
            }
        }
    }

    const SINK_PANIC: &str = "the sink's own panic";

    /// A sink whose `emit` panics with [`SINK_PANIC`], on the caller's
    /// thread or in any detector worker.
    struct PanickingSink;

    impl UlcpSink for PanickingSink {
        fn emit(&mut self, _: Ulcp, _: &crate::sink::SectionCtx<'_>) {
            std::panic::panic_any(SINK_PANIC);
        }

        fn emit_edge(&mut self, _: CausalEdge, _: &crate::sink::SectionCtx<'_>) {}

        fn fork(&self) -> Self {
            PanickingSink
        }

        fn absorb(&mut self, _: Self) {}
    }

    /// The payload of the panic `run` raises.
    fn panic_payload(run: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the sink panics");
        match payload.downcast::<&str>() {
            Ok(message) => message.to_string(),
            Err(payload) => match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(other) => format!("a payload that is not text: {other:?}"),
            },
        }
    }

    #[test]
    fn a_sink_panic_surfaces_as_itself_from_every_engine() {
        let trace = record(|b| {
            let locks: Vec<_> = (0..3).map(|i| b.lock(format!("l{i}"))).collect();
            let x = b.shared("x", 0);
            let site = b.site("panic.c", "reader", 1);
            for i in 0..3 {
                let locks = locks.clone();
                b.thread(format!("t{i}"), |t| {
                    for &lock in &locks {
                        t.locked(lock, site, |cs| {
                            cs.read(x);
                        });
                        t.compute_ns(10);
                    }
                });
            }
        });
        for parallel in [false, true] {
            let config = DetectorConfig {
                parallel,
                ..DetectorConfig::default()
            };
            let payload = panic_payload(|| {
                Detector::new(config).analyze_with(&trace, PanickingSink);
            });
            assert_eq!(payload, SINK_PANIC, "batch, parallel: {parallel}");
        }
        for workers in [1, 2] {
            let payload = panic_payload(|| {
                let _ = ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
                    .analyze_with(&mut TraceChunks::new(&trace, 4), PanickingSink);
            });
            assert_eq!(payload, SINK_PANIC, "streaming, {workers} worker(s)");
        }
    }
}
