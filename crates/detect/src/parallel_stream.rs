//! Detection over an event stream: the stream is loaded into memory, then
//! the batch engine detects it.
//!
//! [`ParallelStreamingDetector`] reads an [`EventSource`] — in practice the
//! chunk files `perfplay_report::analyze_chunk_files` opens — with
//! [`load_trace`], which checks every chunk against the chunk contract and
//! splices the events a recovering source lost out of the trace, and then
//! runs [`Detector::with_workers`] on the loaded trace. It returns the batch
//! engine's [`SinkAnalysis`] over the surviving events, bit for bit, beside
//! [`StreamingStats`]: what the stream delivered and lost, and how large the
//! section table and the last-write index of the loaded trace were.

use perfplay_trace::{load_trace, EventSource, StreamError};

use crate::pairing::{Detector, DetectorConfig};
use crate::sink::{SinkAnalysis, UlcpSink};

/// What one streamed detection run read and held: the stream's chunks,
/// events and gaps, and the sizes of what detection built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamingStats {
    /// Chunks consumed.
    pub chunks: usize,
    /// Total events consumed.
    pub events: usize,
    /// Critical sections extracted.
    pub sections: usize,
    /// Events of the largest single chunk.
    pub peak_chunk_events: usize,
    /// Sections detection held at once: the whole section table of the
    /// loaded trace, so equal to `sections`.
    pub peak_live_sections: usize,
    /// Writes plus first-read anchors of the
    /// [`LastWriteIndex`](crate::LastWriteIndex) detection built over the
    /// loaded trace (0 when the reversed replay is off).
    pub peak_history_entries: usize,
    /// Stream gaps a recovering source reported (0 on a clean stream).
    pub gaps: usize,
    /// Events known lost across those gaps.
    pub events_lost: u64,
}

impl StreamingStats {
    /// True if the source reported any gaps: the analysis is sound on what
    /// was seen, but not complete.
    pub fn is_gapped(&self) -> bool {
        self.gaps > 0
    }
}

/// PerfPlay's ULCP identification stage over a chunked event stream: the
/// stream loaded with [`load_trace`], then detected by the batch engine
/// fanned out per lock on up to `workers` threads.
///
/// Output is **bit-identical** to [`Detector::analyze_with`] over the
/// surviving events for every worker count: ids, pair order, breakdown and
/// section table all match exactly.
#[derive(Debug, Clone)]
pub struct ParallelStreamingDetector {
    config: DetectorConfig,
    workers: usize,
}

impl ParallelStreamingDetector {
    /// Creates a streaming detector whose per-lock fan-out uses at most
    /// `workers` threads (clamped to at least 1), as
    /// [`Detector::with_workers`] does. `config.parallel` is irrelevant
    /// here — the width comes from this constructor.
    pub fn with_workers(config: DetectorConfig, workers: usize) -> Self {
        ParallelStreamingDetector {
            config,
            workers: workers.max(1),
        }
    }

    /// The most threads the per-lock fan-out may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Consumes the source to exhaustion, then emits every classified pair
    /// of the loaded trace through the caller's sink, as
    /// [`Detector::analyze_with`] does: the sink must be `Send + Sync`
    /// because the per-lock fan-out forks one shard per lock. A
    /// [`CollectPairs`](crate::CollectPairs) run converts into the
    /// [`UlcpAnalysis`](crate::UlcpAnalysis) of
    /// [`Detector::analyze`] with `into`.
    ///
    /// # Errors
    ///
    /// Propagates source errors and rejects streams that violate the chunk
    /// contract or per-thread timestamp monotonicity ([`load_trace`]).
    pub fn analyze_with<Src: EventSource, S: UlcpSink + Send + Sync>(
        &self,
        source: &mut Src,
        sink: S,
    ) -> Result<(SinkAnalysis<S>, StreamingStats), StreamError> {
        let loaded = load_trace(source)?;
        let (result, history_entries) =
            Detector::with_workers(self.config, self.workers).analyze_indexed(&loaded.trace, sink);
        let stats = StreamingStats {
            chunks: loaded.chunks,
            events: loaded.trace.num_events(),
            sections: result.sections.len(),
            peak_chunk_events: loaded.peak_chunk_events,
            peak_live_sections: result.sections.len(),
            peak_history_entries: history_entries,
            gaps: loaded.gaps,
            events_lost: loaded.events_lost,
        };
        Ok((result, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::UlcpAnalysis;
    use crate::plan::{DetectionPlan, PlanAggregator};
    use crate::sink::{BodyOverlapGain, CollectPairs};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::{
        extract_critical_sections, CodeSiteId, CriticalSection, Event, Footprint, LockId,
        MemAccess, ObjectId, ThreadId, Time, Trace, TraceChunks, TraceError, TraceMeta, TraceStats,
    };

    fn record(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new("pstream-test");
        build(&mut b);
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    /// Streams `trace` in chunks of `chunk_events` into a collecting sink.
    fn stream(
        trace: &Trace,
        config: DetectorConfig,
        chunk_events: usize,
        workers: usize,
    ) -> (UlcpAnalysis, StreamingStats) {
        let (run, stats) = ParallelStreamingDetector::with_workers(config, workers)
            .analyze_with(
                &mut TraceChunks::new(trace, chunk_events),
                CollectPairs::default(),
            )
            .unwrap();
        (run.into(), stats)
    }

    fn assert_identical(
        trace: &Trace,
        config: DetectorConfig,
        chunk_events: usize,
        workers: usize,
    ) {
        let batch = Detector::new(config).analyze(trace);
        let (parallel, stats) = stream(trace, config, chunk_events, workers);
        let label = format!("chunk={chunk_events} workers={workers}");
        assert_eq!(batch.sections, parallel.sections, "{label}");
        assert_eq!(batch.ulcps, parallel.ulcps, "{label}");
        assert_eq!(batch.edges, parallel.edges, "{label}");
        assert_eq!(batch.breakdown, parallel.breakdown, "{label}");
        // The stream-level accounting is the loader's, so it does not
        // depend on the worker count.
        let mut source = TraceChunks::new(trace, chunk_events);
        let (mut chunks, mut peak_chunk_events) = (0, 0);
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks += 1;
            peak_chunk_events = peak_chunk_events.max(chunk.num_events());
        }
        assert_eq!(stats.chunks, chunks, "{label}");
        assert_eq!(stats.peak_chunk_events, peak_chunk_events, "{label}");
        assert_eq!(stats.events, trace.num_events(), "{label}");
        assert_eq!(stats.sections, batch.sections.len(), "{label}");
        assert_eq!(stats.gaps, 0, "{label}");
    }

    fn mixed_trace() -> Trace {
        record(|b| {
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
        })
    }

    #[test]
    fn parallel_matches_batch_across_chunk_sizes_and_worker_counts() {
        let trace = mixed_trace();
        for chunk_events in [1, 3, 16, 100_000] {
            for workers in [1, 2, 3, 5] {
                assert_identical(&trace, DetectorConfig::default(), chunk_events, workers);
            }
        }
    }

    #[test]
    fn parallel_matches_batch_with_scan_cap_and_ablation() {
        let trace = mixed_trace();
        for config in [
            DetectorConfig {
                max_scan_per_thread: Some(2),
                ..DetectorConfig::default()
            },
            DetectorConfig {
                use_reversed_replay: false,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                max_scan_per_thread: Some(1),
                use_reversed_replay: false,
                ..DetectorConfig::default()
            },
        ] {
            for chunk_events in [1, 5, 33] {
                for workers in [2, 3] {
                    assert_identical(&trace, config, chunk_events, workers);
                }
            }
        }
    }

    #[test]
    fn benign_pairs_survive_parallel_state_reconstruction() {
        // The benign check queries shadow memory at the first section's
        // enter time — long before the pair is classified — through the
        // last-write index of the loaded trace.
        let trace = record(|b| {
            let lock = b.lock("m");
            let flag = b.shared("done", 0);
            let site = b.site("bw.c", "set_done", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.compute_ns(10 + i as u64 * 500);
                    t.locked(lock, site, |cs| {
                        cs.write_set(flag, 1);
                    });
                    t.compute_ns(300);
                });
            }
        });
        for chunk_events in [1, 2, 8] {
            assert_identical(&trace, DetectorConfig::default(), chunk_events, 2);
        }
        let (parallel, _) = stream(&trace, DetectorConfig::default(), 2, 2);
        assert_eq!(parallel.breakdown.benign, 1);
    }

    #[test]
    fn site_aggregator_shards_merge_identically() {
        // The per-lock fan-out forks one shard per lock and absorbs them in
        // ascending lock order.
        let trace = mixed_trace();
        let config = DetectorConfig::default();
        let batch = Detector::new(config).plan(&trace, BodyOverlapGain);
        for workers in [1, 3] {
            let (parallel, _) = ParallelStreamingDetector::with_workers(config, workers)
                .analyze_with(
                    &mut TraceChunks::new(&trace, 16),
                    PlanAggregator::new(BodyOverlapGain),
                )
                .unwrap();
            assert_eq!(batch, DetectionPlan::from_batch(parallel));
        }
    }

    #[test]
    fn single_thread_trace_has_no_pairs() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("w.c", "writer", 1);
            b.thread("t0", |t| {
                t.loop_n(50, |l| {
                    l.locked(lock, site, |cs| {
                        cs.write_add(x, 1);
                    });
                    l.compute_ns(40);
                });
            });
        });
        assert_identical(&trace, DetectorConfig::default(), 8, 3);
        let (parallel, _) = stream(&trace, DetectorConfig::default(), 8, 3);
        assert!(parallel.ulcps.is_empty());
        assert_eq!(parallel.sections.len(), 50);
    }

    /// Hand-built threads that exercise every branch of the section rule:
    /// an orphan release, a never-released acquire, a same-lock re-entry, a
    /// non-LIFO release, and reads, writes, compute and skipped regions
    /// inside nested sections.
    fn section_rule_trace() -> Trace {
        use perfplay_trace::WriteOp;
        let acquire = |lock: u32, site: u32| Event::LockAcquire {
            lock: LockId::new(lock),
            site: CodeSiteId::new(site),
        };
        let release = |lock: u32| Event::LockRelease {
            lock: LockId::new(lock),
        };
        let read = |obj: u64| Event::Read {
            obj: ObjectId::new(obj),
            value: 0,
        };
        let write = |obj: u64, op: WriteOp| Event::Write {
            obj: ObjectId::new(obj),
            op,
            value: 1,
        };
        let compute = |ns: u64| Event::Compute {
            cost: Time::from_nanos(ns),
        };
        let skip = |ns: u64| Event::SkipRegion {
            site: CodeSiteId::new(9),
            saved_cost: Time::from_nanos(ns),
        };
        let threads: [Vec<(u64, Event)>; 3] = [
            // T0: an orphan release, then L0 re-entered under itself.
            vec![
                (1, release(1)),
                (2, acquire(0, 0)),
                (3, read(0)),
                (4, acquire(0, 1)),
                (5, write(1, WriteOp::Set(5))),
                (6, release(0)),
                (13, compute(7)),
                (14, release(0)),
            ],
            // T1: L0 released before the L1 nested in it, and L2 opened
            // under L1 alone.
            vec![
                (3, acquire(0, 2)),
                (4, acquire(1, 3)),
                (5, read(1)),
                (6, release(0)),
                (7, write(0, WriteOp::Add(2))),
                (10, skip(3)),
                (11, acquire(2, 4)),
                (12, read(2)),
                (13, release(1)),
                (14, release(2)),
            ],
            // T2: L1 is never released; L2 nests in it and closes.
            vec![
                (2, acquire(1, 5)),
                (3, read(0)),
                (7, compute(4)),
                (8, acquire(2, 6)),
                (9, write(2, WriteOp::Set(1))),
                (10, release(2)),
                (11, Event::ThreadExit),
            ],
        ];
        let mut trace = Trace::new(TraceMeta::default(), threads.len());
        for (tt, events) in trace.threads.iter_mut().zip(threads) {
            for (at, event) in events {
                tt.push(Time::from_nanos(at), event);
            }
        }
        trace.total_time = Time::from_nanos(14);
        trace
    }

    /// One section as a table row, every field spelled out.
    fn section_row(s: &CriticalSection) -> String {
        let objects = |f: &Footprint| {
            let names: Vec<String> = f.iter().map(|o| o.to_string()).collect();
            names.join(",")
        };
        let accesses: Vec<String> = s
            .accesses
            .iter()
            .map(|a| match a {
                MemAccess::Read(o) => format!("R {o}"),
                MemAccess::Write(o, op) => format!("W {o} {op:?}"),
            })
            .collect();
        format!(
            "{} {} {} {} acq {} rel {} at {}..{} depth {} reads [{}] writes [{}] \
             accesses [{}] body {}",
            s.id,
            s.thread,
            s.lock,
            s.site,
            s.acquire_index,
            s.release_index,
            s.enter_time.as_nanos(),
            s.exit_time.as_nanos(),
            s.depth,
            objects(&s.reads),
            objects(&s.writes),
            accesses.join(", "),
            s.body_cost.as_nanos(),
        )
    }

    /// The section rule, pinned by a table recorded before one builder
    /// served every path: extraction, the streaming detector at every
    /// worker count and chunk size, the trace statistics and validation all
    /// agree with it.
    #[test]
    fn the_section_rule_is_pinned() {
        let trace = section_rule_trace();
        let rows: Vec<String> = extract_critical_sections(&trace)
            .iter()
            .map(section_row)
            .collect();
        let expected = [
            "CS0 T0 L0 site0 acq 1 rel 7 at 2..14 depth 0 reads [obj0] writes [obj1] accesses [R obj0, W obj1 Set(5)] body 7",
            "CS1 T1 L0 site2 acq 0 rel 3 at 3..6 depth 0 reads [obj1] writes [] accesses [R obj1] body 0",
            "CS2 T0 L0 site1 acq 3 rel 5 at 4..6 depth 1 reads [] writes [obj1] accesses [W obj1 Set(5)] body 0",
            "CS3 T1 L1 site3 acq 1 rel 8 at 4..13 depth 1 reads [obj1,obj2] writes [obj0] accesses [R obj1, W obj0 Add(2), R obj2] body 3",
            "CS4 T2 L2 site6 acq 3 rel 5 at 8..10 depth 1 reads [] writes [obj2] accesses [W obj2 Set(1)] body 0",
            "CS5 T1 L2 site4 acq 6 rel 9 at 11..14 depth 1 reads [obj2] writes [] accesses [R obj2] body 0",
        ];
        assert_eq!(rows, expected);
        for chunk_events in [1, 3] {
            for workers in [1, 2] {
                let (streamed, _) =
                    stream(&trace, DetectorConfig::default(), chunk_events, workers);
                let streamed: Vec<String> = streamed.sections.iter().map(section_row).collect();
                assert_eq!(streamed, expected, "chunk={chunk_events} workers={workers}");
            }
        }
        // Six sections close, from six sites: T2's site 5 never closes.
        let stats = TraceStats::of(&trace);
        assert_eq!(
            stats,
            TraceStats {
                threads: 3,
                events: 25,
                lock_acquisitions: 7,
                critical_sections: 6,
                reads: 4,
                writes: 3,
                cond_waits: 0,
                barrier_waits: 0,
                static_sites: 6,
                total_time: Time::from_nanos(14),
                total_compute: Time::from_nanos(14),
            }
        );
        assert_eq!(
            trace.validate(),
            Err(TraceError::UnbalancedLocking {
                thread: ThreadId::new(0),
                lock: LockId::new(1),
            })
        );
    }
}
