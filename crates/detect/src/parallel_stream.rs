//! Streaming detection: sharded per-lock workers over a decoded chunk
//! pipeline.
//!
//! [`ParallelStreamingDetector`] runs Algorithm 1 incrementally over an
//! [`EventSource`], chunk by chunk, as a pipeline of one decoder and `N ≥ 1`
//! workers:
//!
//! ```text
//!   EventSource ──> decoder (calling thread)
//!                     │  checks the chunk contract, builds sections
//!                     │  (one `SectionBuilder` per thread), assigns ids,
//!                     │  time-sorts the window's shadow-memory log
//!                     ▼
//!        bounded channel per worker (backpressure: peak state stays
//!                     │            bounded by chunk size)
//!                     ▼
//!   N workers, each owning the locks with `lock.index() % N == worker`:
//!     a horizon-pruned `LastWriteIndex`, pairing cursors, eager retirement —
//!     emitting into per-lock forked `UlcpSink` shards
//!                     │
//!                     ▼
//!   merge: shards absorbed in ascending-lock order, sections assembled
//!   by route, compaction remap, seal — bit-identical to the batch engine
//! ```
//!
//! Locks are independent (no pair ever spans two locks), so routing whole
//! locks to workers partitions the pairing exactly. Every worker receives
//! every decoded chunk window (it needs the shared-memory log and the window
//! horizon) but only the placeholders and closed sections of its own locks.
//! Determinism comes from three facts: ids are assigned by the decoder in
//! the global `(enter_time, thread, acquire_index)` order before routing;
//! within one lock the delivery order (ascending id) is preserved verbatim;
//! and shards merge through the existing [`UlcpSink::fork`]/
//! [`UlcpSink::absorb`] discipline in ascending-lock order before one final
//! [`UlcpSink::seal`]. The equivalence is property-tested in
//! `tests/streaming_equivalence.rs` and unit-tested below.
//!
//! The decoder checks chunks with the readers' [`ChunkContract`]. A
//! [`StreamGap`] only lets it accept a forward jump in each thread's next
//! span, so workers never see it — detection over the surviving chunks is
//! exactly detection over the trace with the lost events removed.
//!
//! Workers classify and emit through the crate's pairing kernel
//! (`kernel.rs`), the same code the batch engine runs: every closed section
//! carries a packed row with its read/write
//! [`Footprint::summary`](perfplay_trace::Footprint::summary) words,
//! and the null-lock / read-read tests are *exact* on summaries while a zero
//! summary-AND proves disjoint writes — so the overwhelming majority of
//! pairs never touch the section bodies.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use perfplay_trace::{
    ChunkContract, CriticalSection, Event, EventSource, LockId, ObjectId, SectionBuilder,
    SectionId, StreamError, StreamGap, StreamItem, ThreadId, Time, TraceChunk,
};

use crate::kernel::{PairKernel, PairKey, Search, SecMeta};
use crate::pairing::{DetectorConfig, UlcpAnalysis, UlcpBreakdown};
use crate::shadow::LastWriteIndex;
use crate::sink::{CollectPairs, UlcpSink};
use crate::streaming::{StreamingAnalysis, StreamingSinkAnalysis, StreamingStats};

/// How many decoded chunk windows may sit in each worker's channel before
/// the decoder blocks. Small by design: the backpressure is what keeps peak
/// live state bounded by the chunk size instead of the stream length.
const CHANNEL_DEPTH: usize = 2;

fn worker_died() -> StreamError {
    StreamError::Io("parallel streaming worker terminated unexpectedly".into())
}

// ---------------------------------------------------------------------------
// Wire types: what the decoder hands each worker.
// ---------------------------------------------------------------------------

/// One shadow-memory log entry: `(completion time, object, value,
/// is_write)`, what [`LastWriteIndex`] records.
type MemEntry = (Time, ObjectId, i64, bool);

/// One decoded chunk window, as seen by one worker: the shared (`Arc`ed)
/// memory log plus the placeholders and closed sections routed to this
/// worker's lock shard.
struct Packet {
    window_end: Time,
    /// The window's memory log in the order `LastWriteIndex::build` sorts
    /// a trace's: time, then thread, then event index.
    mem: Arc<Vec<MemEntry>>,
    /// Threads that exited in this window (first transition only).
    exited: Vec<ThreadId>,
    /// Sections announced at id assignment: the builder's row so far, or
    /// the whole section if it closed in the same window.
    placeholders: Vec<CriticalSection>,
    /// Sections whose release arrived, ascending id, each with its row in
    /// the worker's shard and the section, unless its placeholder is it.
    closed: Vec<(u32, Option<CriticalSection>)>,
}

enum Msg {
    Chunk(Packet),
    /// Clean end of stream. A channel disconnect *without* this message
    /// means the decoder aborted; the worker discards its state.
    Finish,
}

// ---------------------------------------------------------------------------
// Worker-side pairing state.
// ---------------------------------------------------------------------------

/// One `(current, other-thread)` sequential search, stored densely per
/// thread: a thread with no candidates yet has the default state
/// (`pos == len == 0`, not done).
#[derive(Debug, Default, Clone, Copy)]
struct SearchV {
    search: Search,
    /// Index into the candidate list of the next candidate to consider.
    pos: u32,
}

/// A section still acting as the *first* element of future pairs.
#[derive(Debug)]
struct CurrentV {
    thread: u32,
    enter_time: Time,
    /// Finished searches among the other threads; the current is complete
    /// when this reaches `num_threads - 1`.
    done_count: u32,
    /// One search per thread, indexed by thread; the own-thread slot is
    /// never used.
    searches: Box<[SearchV]>,
}

/// Pairing state of one lock, all thread-indexed vectors.
struct LockLane<S> {
    /// The forked sink shard this lock's pairs are emitted into.
    sink: S,
    /// Delivered sections per thread (local indices), ascending id order.
    candidates: Vec<Vec<u32>>,
    /// Per thread: local indices in creation (= id) order awaiting delivery.
    delivery: Vec<VecDeque<u32>>,
    /// Local indices of live currents on this lock (may contain stale
    /// entries for currents retired mid-sweep; swept lazily).
    live_list: Vec<u32>,
}

impl<S> LockLane<S> {
    fn new(sink: S, num_threads: usize) -> Self {
        LockLane {
            sink,
            candidates: vec![Vec::new(); num_threads],
            delivery: vec![VecDeque::new(); num_threads],
            live_list: Vec::new(),
        }
    }
}

/// What one worker hands back to the coordinator.
struct WorkerResult<S> {
    /// This shard's sections (closed ones filled, unclosed placeholders as
    /// is), ascending global id.
    sections: Vec<CriticalSection>,
    breakdown: UlcpBreakdown,
    /// Per-lock sink shards, ascending lock order.
    sinks: Vec<(LockId, S)>,
    peak_live: usize,
    peak_history: usize,
    peak_pairs: usize,
    retired_before_end: usize,
}

/// The per-worker incremental Algorithm 1 state machine over one lock shard.
struct Worker<S: UlcpSink> {
    config: DetectorConfig,
    num_threads: usize,
    /// Shard sections in ascending global-id order; local index order is
    /// therefore global id order restricted to this shard.
    sections: Vec<CriticalSection>,
    /// Hot-path metadata, parallel to `sections`; the summary words are set
    /// when a section closes.
    meta: Vec<SecMeta>,
    /// Whether `sections[i]` has been closed (filled in) yet.
    closed: Vec<bool>,
    /// Live pairing state, parallel to `sections`; `None` = not (or no
    /// longer) a current.
    pairing: Vec<Option<Box<CurrentV>>>,
    locks: BTreeMap<LockId, LockLane<S>>,
    /// This worker's shadow-memory history, pruned at the horizon of its
    /// own locks' live searches.
    history: LastWriteIndex,
    exited: Vec<bool>,
    /// Fork factory for lazily created lock lanes.
    proto: S,
    breakdown: UlcpBreakdown,
    live: usize,
    peak_live: usize,
    peak_history: usize,
    peak_pairs: usize,
    retired_before_end: usize,
    ending: bool,
    use_history: bool,
}

impl<S: UlcpSink> Worker<S> {
    fn new(config: DetectorConfig, num_threads: usize, proto: S) -> Self {
        Worker {
            config,
            num_threads,
            sections: Vec::new(),
            meta: Vec::new(),
            closed: Vec::new(),
            pairing: Vec::new(),
            locks: BTreeMap::new(),
            history: LastWriteIndex::default(),
            exited: vec![false; num_threads],
            proto,
            breakdown: UlcpBreakdown::default(),
            live: 0,
            peak_live: 0,
            peak_history: 0,
            peak_pairs: 0,
            retired_before_end: 0,
            ending: false,
            use_history: config.use_reversed_replay,
        }
    }

    fn ingest(&mut self, packet: Packet) {
        for t in &packet.exited {
            self.exited[t.index()] = true;
        }
        if self.use_history {
            for &(at, obj, value, is_write) in packet.mem.iter() {
                self.history.record(at, obj, value, is_write);
            }
        }
        for placeholder in packet.placeholders {
            self.push_placeholder(placeholder);
        }
        for (row, section) in packet.closed {
            self.close_section(row as usize, section);
        }
        self.sweep();
        self.retire_and_prune(packet.window_end, false);
        self.sample_peaks();
    }

    fn push_placeholder(&mut self, ph: CriticalSection) {
        debug_assert!(self.sections.last().is_none_or(|s| s.id < ph.id));
        let idx = self.sections.len() as u32;
        self.meta.push(SecMeta {
            key: PairKey::default(),
            id: ph.id,
            thread: ph.thread,
        });
        self.closed.push(false);
        self.pairing.push(None);
        self.live += 1;
        let (lock, ti) = (ph.lock, ph.thread.index());
        self.sections.push(ph);
        if !self.locks.contains_key(&lock) {
            let lane = LockLane::new(self.proto.fork(), self.num_threads);
            self.locks.insert(lock, lane);
        }
        self.locks
            .get_mut(&lock)
            .expect("lane just ensured")
            .delivery[ti]
            .push_back(idx);
    }

    /// Replaces the section's placeholder row with the closed section and
    /// delivers the head run of the creation queue, so candidates reach the
    /// searches strictly in id order even when re-entrant nesting closes
    /// sections out of order.
    fn close_section(&mut self, idx: usize, section: Option<CriticalSection>) {
        if let Some(section) = section {
            debug_assert_eq!(self.sections[idx].id, section.id);
            self.sections[idx] = section;
        }
        let section = &self.sections[idx];
        let (lock, ti) = (section.lock, section.thread.index());
        self.meta[idx].key = PairKey::of(section);
        self.closed[idx] = true;

        loop {
            let lane = self
                .locks
                .get_mut(&lock)
                .expect("lane exists for a closed section");
            let queue = &mut lane.delivery[ti];
            let Some(&front) = queue.front() else { break };
            if !self.closed[front as usize] {
                break;
            }
            queue.pop_front();
            self.deliver(lock, ti, front as usize);
        }
    }

    /// Registers one newly delivered section: it runs a fresh-*current* scan
    /// over already-delivered later candidates, then joins the candidate
    /// lists. Open currents consume it later, in the per-chunk [`sweep`]
    /// (Self::sweep) — a linear pass, not a per-delivery scatter.
    fn deliver(&mut self, lock: LockId, ti: usize, idx: usize) {
        self.peak_live = self.peak_live.max(self.live);
        let Worker {
            config,
            num_threads,
            sections,
            meta,
            pairing,
            locks,
            history,
            breakdown,
            live,
            retired_before_end,
            ending,
            ..
        } = self;
        let num_threads = *num_threads;
        let sections: &[CriticalSection] = sections;
        let meta: &[SecMeta] = meta;
        let history: &LastWriteIndex = history;
        let lane = locks
            .get_mut(&lock)
            .expect("lane exists for a delivered section");
        let LockLane {
            sink,
            candidates,
            live_list,
            ..
        } = lane;
        let mut out = PairKernel::new(*config, lock, sections, meta, history, sink, breakdown);
        let enter_time = sections[idx].enter_time;

        // The new current scans candidates already delivered. (Under lock
        // mutual exclusion every already-delivered same-lock section has a
        // smaller id, so this classifies nothing — but ties and re-entrant
        // nesting can produce larger-id candidates, and the batch engine
        // scans those too.)
        let mut searches: Box<[SearchV]> = vec![SearchV::default(); num_threads].into();
        for (u, list) in candidates.iter().enumerate() {
            if u == ti {
                continue;
            }
            let sv = &mut searches[u];
            sv.pos = list.len() as u32;
            // Under lock mutual exclusion every already-delivered candidate
            // has a smaller local index, so one tail compare short-circuits
            // the prefix search in the overwhelmingly common case.
            let start = if list.last().is_none_or(|&c| (c as usize) <= idx) {
                list.len()
            } else {
                list.partition_point(|&c| (c as usize) <= idx)
            };
            out.scan(idx, &list[start..], &mut sv.search);
        }
        let done_count = searches.iter().filter(|s| s.search.done).count() as u32;
        let complete = done_count as usize == num_threads.saturating_sub(1);
        if complete {
            *live -= 1;
            if !*ending {
                *retired_before_end += 1;
            }
        } else {
            pairing[idx] = Some(Box::new(CurrentV {
                thread: ti as u32,
                enter_time,
                done_count,
                searches,
            }));
            live_list.push(idx as u32);
        }

        // Become a candidate: the sweep offers this section to every current
        // whose search on this thread is still open.
        candidates[ti].push(idx as u32);
    }

    /// Consumes, for every live current of every lane, the candidates its
    /// searches have not yet seen: one linear pass per `(current, thread)`
    /// over the append-only candidate lists, instead of a scatter at every
    /// delivery. Each search consumes its candidate list strictly in
    /// delivery order from its own cursor, so the per-search classification
    /// sequence — and with it every cap cutoff, TLCP termination, retirement
    /// and the breakdown — is exactly the batch engine's. Only the
    /// interleaving of emissions *between* searches differs, which
    /// [`UlcpSink::seal`] canonicalizes.
    fn sweep(&mut self) {
        let Worker {
            config,
            num_threads,
            sections,
            meta,
            pairing,
            locks,
            history,
            breakdown,
            live,
            retired_before_end,
            ending,
            ..
        } = self;
        let num_threads = *num_threads;
        let sections: &[CriticalSection] = sections;
        let meta: &[SecMeta] = meta;
        let history: &LastWriteIndex = history;
        for (&lock, lane) in locks.iter_mut() {
            let LockLane {
                sink,
                candidates,
                live_list,
                ..
            } = lane;
            let mut out = PairKernel::new(*config, lock, sections, meta, history, sink, breakdown);
            for &fi32 in live_list.iter() {
                let fi = fi32 as usize;
                let mut retired = false;
                {
                    let Some(current) = pairing[fi].as_mut() else {
                        continue; // retired in an earlier sweep; removed lazily
                    };
                    let ti = current.thread as usize;
                    for (u, list) in candidates.iter().enumerate() {
                        if u == ti {
                            continue;
                        }
                        let sv = &mut current.searches[u];
                        if sv.search.done {
                            continue;
                        }
                        let list: &[u32] = list;
                        // Entries at or below `fi` are not candidates for
                        // this current (the batch engine's
                        // `candidate.id > current.id` filter); they are
                        // consumed unclassified. The list is ascending, so
                        // that prefix is contiguous — jump it in one binary
                        // search instead of walking it element by element
                        // (the walk is quadratic in the lane population).
                        if (sv.pos as usize) < list.len() && list[sv.pos as usize] <= fi32 {
                            sv.pos = list.partition_point(|&c| c <= fi32) as u32;
                        }
                        let taken = out.scan(fi, &list[sv.pos as usize..], &mut sv.search);
                        sv.pos += taken as u32;
                        if sv.search.done {
                            current.done_count += 1;
                            if current.done_count as usize == num_threads.saturating_sub(1) {
                                retired = true;
                                break;
                            }
                        }
                    }
                }
                if retired {
                    pairing[fi] = None;
                    *live -= 1;
                    if !*ending {
                        *retired_before_end += 1;
                    }
                }
            }
        }
    }

    /// Retires currents whose outcome no later section can change, then
    /// advances the history horizon and prunes the write logs. The horizon
    /// only needs this shard's live currents and queued sections: every
    /// future query of this worker's history comes from its own locks.
    fn retire_and_prune(&mut self, window_end: Time, at_end: bool) {
        let Worker {
            sections,
            pairing,
            locks,
            history,
            exited,
            live,
            retired_before_end,
            ..
        } = self;
        for lane in locks.values_mut() {
            let LockLane {
                live_list,
                delivery,
                ..
            } = lane;
            live_list.retain(|&fi32| {
                let fi = fi32 as usize;
                let retire = match pairing[fi].as_ref() {
                    None => return false, // retired in the candidate phase
                    Some(current) => (0..exited.len()).all(|u| {
                        u == current.thread as usize
                            || current.searches[u].search.done
                            || ((exited[u] || at_end) && delivery[u].is_empty())
                    }),
                };
                if retire {
                    pairing[fi] = None;
                    *live -= 1;
                    if !at_end {
                        *retired_before_end += 1;
                    }
                }
                !retire
            });
        }

        if !self.use_history {
            return;
        }
        let mut horizon: Option<Time> = None;
        let mut consider = |t: Time| {
            horizon = Some(horizon.map_or(t, |h: Time| h.min(t)));
        };
        for lane in locks.values() {
            for &fi in &lane.live_list {
                if let Some(current) = pairing[fi as usize].as_ref() {
                    consider(current.enter_time);
                }
            }
            for queue in &lane.delivery {
                for &idx in queue {
                    consider(sections[idx as usize].enter_time);
                }
            }
        }
        let horizon =
            horizon.unwrap_or_else(|| Time::from_nanos(window_end.as_nanos().saturating_add(1)));
        history.prune(horizon);
    }

    fn sample_peaks(&mut self) {
        self.peak_live = self.peak_live.max(self.live);
        self.peak_history = self.peak_history.max(self.history.num_entries());
        let resident: usize = self.locks.values().map(|l| l.sink.resident_entries()).sum();
        self.peak_pairs = self.peak_pairs.max(resident);
    }

    fn finish(mut self) -> WorkerResult<S> {
        self.ending = true;
        // Flush sections still awaiting delivery: their same-(lock, thread)
        // predecessors never closed, so those blockers will never deliver.
        // Deliver the closed remainder in id order (local index order);
        // never-closed placeholders are dropped.
        let mut leftovers: Vec<(LockId, usize, u32)> = Vec::new();
        for (&lock, lane) in &mut self.locks {
            for (ti, queue) in lane.delivery.iter_mut().enumerate() {
                while let Some(idx) = queue.pop_front() {
                    if self.closed[idx as usize] {
                        leftovers.push((lock, ti, idx));
                    }
                }
            }
        }
        leftovers.sort_unstable_by_key(|&(_, _, idx)| idx);
        for (lock, ti, idx) in leftovers {
            self.deliver(lock, ti, idx as usize);
        }
        self.sweep();
        self.retire_and_prune(Time::MAX, true);
        self.sample_peaks();
        WorkerResult {
            sections: self.sections,
            breakdown: self.breakdown,
            sinks: self
                .locks
                .into_iter()
                .map(|(lock, lane)| (lock, lane.sink))
                .collect(),
            peak_live: self.peak_live,
            peak_history: self.peak_history,
            peak_pairs: self.peak_pairs,
            retired_before_end: self.retired_before_end,
        }
    }
}

fn run_worker<S: UlcpSink>(
    config: DetectorConfig,
    num_threads: usize,
    rx: Receiver<Msg>,
    proto: S,
) -> Option<WorkerResult<S>> {
    let mut worker = Worker::new(config, num_threads, proto);
    loop {
        match rx.recv() {
            Ok(Msg::Chunk(packet)) => worker.ingest(packet),
            Ok(Msg::Finish) => return Some(worker.finish()),
            // Disconnect without Finish: the decoder aborted on an error;
            // this worker's partial state is meaningless.
            Err(_) => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder: chunk-contract validation, extraction, id assignment, routing.
// ---------------------------------------------------------------------------

/// The reader/decoder stage: checks each chunk against the chunk contract,
/// extracts sections, assigns ids in the global
/// `(enter_time, thread, acquire_index)` order, time-sorts the memory log,
/// and routes placeholders/closures to workers by `lock.index() % N`.
struct Decoder {
    use_history: bool,
    workers: usize,
    contract: ChunkContract,
    /// Per thread, its open sections, each tagged with its id once
    /// assigned, and whether it has exited.
    threads: Vec<(SectionBuilder<Option<SectionId>>, bool)>,
    next_id: u32,
    closed_global: Vec<bool>,
    /// By id: the worker its section was routed to, and its row there.
    routes: Vec<(u32, u32)>,
    /// Per worker, the rows routed to it so far.
    rows: Vec<u32>,
    lock_acquisitions: usize,
    stats: StreamingStats,
}

impl Decoder {
    fn new(config: DetectorConfig, num_threads: usize, workers: usize) -> Self {
        Decoder {
            use_history: config.use_reversed_replay,
            workers,
            contract: ChunkContract::new(Some(num_threads)),
            threads: (0..num_threads)
                .map(|t| (SectionBuilder::new(ThreadId::new(t as u32)), false))
                .collect(),
            next_id: 0,
            closed_global: Vec::new(),
            routes: Vec::new(),
            rows: vec![0; workers],
            lock_acquisitions: 0,
            stats: StreamingStats::default(),
        }
    }

    /// Notes a gap a recovering source reported. Workers never see gaps:
    /// losing events only lets the contract accept a forward jump in each
    /// thread's next span, and detection over the surviving chunks equals
    /// detection over the trace with the lost events removed.
    fn note_gap(&mut self, gap: &StreamGap) {
        self.stats.gaps += 1;
        // A trailer's event count is file input, so the sum may overflow.
        self.stats.events_lost = self.stats.events_lost.saturating_add(gap.events_lost);
        self.contract.note_gap();
    }

    /// Decodes one chunk into per-worker packets (same length as `workers`).
    fn ingest(&mut self, chunk: TraceChunk) -> Result<Vec<Packet>, StreamError> {
        self.contract.check(&chunk)?;
        self.contract.admit(&chunk);
        self.stats.chunks += 1;
        self.stats.peak_chunk_events = self.stats.peak_chunk_events.max(chunk.num_events());

        // Phase A: per-thread extraction through each thread's section
        // builder. Memory events are collected in thread-major order so the
        // stable time sort below reproduces the global tie order.
        let mut mem: Vec<MemEntry> = Vec::new();
        // This chunk's acquires, by `(enter_time, thread, acquire_index)`,
        // announced once their ids are assigned.
        let mut announced: Vec<(Time, ThreadId, usize)> = Vec::new();
        // Sections that closed this chunk live in one arena; every later
        // phase sorts `(key, arena index)` tuples instead of moving the
        // section rows.
        let mut closed_arena: Vec<Option<CriticalSection>> = Vec::new();
        let mut closed_now: Vec<(SectionId, Option<u32>)> = Vec::new();
        let key = |s: &CriticalSection| (s.enter_time, s.thread, s.acquire_index);
        let mut closed_unassigned: Vec<((Time, ThreadId, usize), u32)> = Vec::new();
        let mut newly_exited: Vec<ThreadId> = Vec::new();

        for span in &chunk.spans {
            let (sections, exited) = &mut self.threads[span.thread.index()];
            for (offset, te) in span.events.iter().enumerate() {
                let idx = span.base_index.saturating_add(offset);
                self.stats.events += 1;
                if let Some((section, id)) = sections.step(idx, te) {
                    let slot = closed_arena.len() as u32;
                    match id {
                        Some(id) => closed_now.push((id, Some(slot))),
                        None => closed_unassigned.push((key(&section), slot)),
                    }
                    closed_arena.push(Some(section));
                }
                match &te.event {
                    Event::LockAcquire { .. } => {
                        self.lock_acquisitions += 1;
                        announced.push((te.at, span.thread, idx));
                    }
                    Event::Read { obj, value } if self.use_history => {
                        mem.push((te.at, *obj, *value, false));
                    }
                    Event::Write { obj, value, .. } if self.use_history => {
                        mem.push((te.at, *obj, *value, true));
                    }
                    Event::ThreadExit if !*exited => {
                        *exited = true;
                        newly_exited.push(span.thread);
                    }
                    _ => {}
                }
            }
        }

        // Phase B.1: time-sort the memory log. Sorting only within the chunk
        // is sound because ties never straddle chunk boundaries.
        mem.sort_by_key(|&(at, ..)| at);
        let mem = Arc::new(mem);
        let mut packets: Vec<Packet> = (0..self.workers)
            .map(|_| Packet {
                window_end: chunk.window_end,
                mem: Arc::clone(&mem),
                exited: newly_exited.clone(),
                placeholders: Vec::new(),
                closed: Vec::new(),
            })
            .collect();

        // Phase B.2: assign section ids in the exact global order
        // `extract_critical_sections` produces, and route each placeholder
        // to its lock's worker. A walk alongside finds the sections that
        // closed before their ids were assigned: each is its own placeholder.
        announced.sort_unstable();
        closed_unassigned.sort_unstable();
        let mut closed_unassigned = closed_unassigned.into_iter().peekable();
        for k @ (_, thread, acquire_index) in announced {
            let id = SectionId::new(self.next_id);
            self.next_id += 1;
            self.closed_global.push(false);
            let row = match closed_unassigned.next_if(|&(closed, _)| closed == k) {
                Some((_, slot)) => {
                    closed_now.push((id, None));
                    let closed = closed_arena[slot as usize].take();
                    closed.expect("each closed section is routed exactly once")
                }
                None => {
                    let open = self.threads[thread.index()].0.open_mut(acquire_index);
                    let (row, tag) = open.expect("an acquire of this chunk is open or closed");
                    *tag = Some(id);
                    row.clone()
                }
            };
            let route = row.lock.index() % self.workers;
            self.routes.push((route as u32, self.rows[route]));
            self.rows[route] += 1;
            packets[route]
                .placeholders
                .push(CriticalSection { id, ..row });
        }

        // Phase B.3: route closed sections in id order. Within one lock the
        // worker sees the sections in ascending id order.
        closed_now.sort_unstable();
        for (id, slot) in closed_now {
            self.closed_global[id.index()] = true;
            self.stats.sections += 1;
            let section = slot.map(|slot| {
                let closed = closed_arena[slot as usize].take();
                let closed = closed.expect("each closed section is routed exactly once");
                CriticalSection { id, ..closed }
            });
            let (route, row) = self.routes[id.index()];
            packets[route as usize].closed.push((row, section));
        }

        Ok(packets)
    }
}

// ---------------------------------------------------------------------------
// The public detector: coordinator over decoder + workers.
// ---------------------------------------------------------------------------

/// PerfPlay's ULCP identification stage over a chunked event stream, fanned
/// out across sharded per-lock worker threads.
///
/// The reader/decoder stage runs on the calling thread; `workers` OS threads
/// (one or more) each own the locks with `lock.index() % workers == worker`
/// and run the incremental Algorithm 1 state machine over their shard.
/// Output is **bit-identical** to [`Detector::analyze`](crate::Detector::analyze)
/// for every worker count: ids, pair order after sealing, breakdown and
/// section table all match exactly.
///
/// Peak-state accounting ([`StreamingStats`]) reports worker peaks *summed*,
/// an upper bound on the true simultaneous peak; it remains bounded by the
/// chunk size.
#[derive(Debug, Clone)]
pub struct ParallelStreamingDetector {
    config: DetectorConfig,
    workers: usize,
}

impl ParallelStreamingDetector {
    /// Creates a streaming detector with an explicit worker count (clamped
    /// to at least 1). `config.parallel` is irrelevant here — the worker
    /// count comes from this constructor.
    pub fn with_workers(config: DetectorConfig, workers: usize) -> Self {
        ParallelStreamingDetector {
            config,
            workers: workers.max(1),
        }
    }

    /// The number of worker threads this detector fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Consumes the source to exhaustion and returns the analysis,
    /// bit-identical to [`Detector::analyze`] over the same events. The
    /// pairs are collected through [`CollectPairs`], whose
    /// [`seal`](UlcpSink::seal) restores the canonical order.
    ///
    /// # Errors
    ///
    /// Propagates source errors and rejects streams that violate the chunk
    /// contract or per-thread timestamp monotonicity, with the same error
    /// values for every worker count.
    ///
    /// [`Detector::analyze`]: crate::Detector::analyze
    pub fn analyze<Src: EventSource>(
        &self,
        source: &mut Src,
    ) -> Result<StreamingAnalysis, StreamError> {
        let result = self.analyze_with(source, CollectPairs::default())?;
        Ok(StreamingAnalysis {
            analysis: UlcpAnalysis {
                sections: result.sections,
                ulcps: result.sink.ulcps,
                edges: result.sink.edges,
                breakdown: result.breakdown,
            },
            stats: result.stats,
        })
    }

    /// Consumes the source to exhaustion, emitting every classified pair
    /// through per-lock forked shards of the caller's sink. Shards are
    /// absorbed back in ascending lock order and sealed once, so an
    /// order-preserving sink ends up with the exact batch-engine output.
    ///
    /// The sink must be `Send` because its forked shards live on the worker
    /// threads. With an aggregating sink the resident state — pairing
    /// cursors, pruned history *and* output — stays bounded by the chunk size
    /// and the code-site count, never by the pair count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    pub fn analyze_with<Src: EventSource, S: UlcpSink + Send>(
        &self,
        source: &mut Src,
        sink: S,
    ) -> Result<StreamingSinkAnalysis<S>, StreamError> {
        let workers = self.workers;
        let num_threads = source.num_threads();
        let config = self.config;
        let protos: Vec<S> = (0..workers).map(|_| sink.fork()).collect();
        let mut root = sink;
        let mut decoder = Decoder::new(config, num_threads, workers);

        let (outcome, joined) = std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for (i, proto) in protos.into_iter().enumerate() {
                let (tx, rx) = sync_channel::<Msg>(CHANNEL_DEPTH);
                senders.push(tx);
                let handle = std::thread::Builder::new()
                    .name(format!("pstream-w{i}"))
                    .spawn_scoped(scope, move || run_worker(config, num_threads, rx, proto))
                    .expect("worker thread spawns");
                handles.push(handle);
            }
            let outcome = (|| -> Result<(), StreamError> {
                while let Some(item) = source.next_item()? {
                    match item {
                        StreamItem::Chunk(chunk) => {
                            let packets = decoder.ingest(chunk)?;
                            for (tx, packet) in senders.iter().zip(packets) {
                                tx.send(Msg::Chunk(packet)).map_err(|_| worker_died())?;
                            }
                        }
                        StreamItem::Gap(gap) => decoder.note_gap(&gap),
                    }
                }
                for tx in &senders {
                    tx.send(Msg::Finish).map_err(|_| worker_died())?;
                }
                Ok(())
            })();
            // Dropping the senders disconnects the channels, so on the error
            // path workers wake up, discard their state and exit.
            drop(senders);
            let mut joined = Vec::with_capacity(workers);
            for handle in handles {
                match handle.join() {
                    Ok(result) => joined.push(result),
                    // Re-raise a worker panic as itself, not as a join error:
                    // the real cause must surface.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (outcome, joined)
        });
        outcome?;
        let results: Vec<WorkerResult<S>> = joined
            .into_iter()
            .map(|r| r.expect("workers receive Finish on the success path"))
            .collect();

        // Merge: assemble sections by global id (every id was routed to
        // exactly one worker), sum the worker-side accounting, and absorb
        // the per-lock sink shards in ascending lock order.
        let total = decoder.next_id as usize;
        let mut breakdown = UlcpBreakdown {
            lock_acquisitions: decoder.lock_acquisitions,
            ..UlcpBreakdown::default()
        };
        let mut stats = decoder.stats;
        let mut all_sinks: Vec<(LockId, S)> = Vec::new();
        let mut shard_sections: Vec<Vec<CriticalSection>> = Vec::with_capacity(results.len());
        for result in results {
            shard_sections.push(result.sections);
            breakdown.merge_pair_counts(&result.breakdown);
            stats.peak_live_sections += result.peak_live;
            stats.peak_history_entries += result.peak_history;
            stats.peak_live_pairs += result.peak_pairs;
            stats.retired_before_end += result.retired_before_end;
            all_sinks.extend(result.sinks);
        }
        // Assemble the global section table by route: each shard holds its
        // ids in ascending order, so id `i` is the next section of the shard
        // it was routed to, and every section moves once. Sections that
        // never closed are dropped and the rest renumbered densely.
        let routed = "every assigned id was routed to exactly one worker";
        let mut shards: Vec<_> = shard_sections.into_iter().map(Vec::into_iter).collect();
        let mut sections: Vec<CriticalSection> = Vec::with_capacity(total);
        let mut remap: Vec<Option<SectionId>> = Vec::with_capacity(total);
        for (&(route, _), &closed) in decoder.routes.iter().zip(&decoder.closed_global) {
            let section = shards[route as usize].next().expect(routed);
            assert_eq!(section.id.index(), remap.len(), "{routed}");
            let kept = closed.then(|| SectionId::new(sections.len() as u32));
            remap.push(kept);
            if let Some(id) = kept {
                sections.push(CriticalSection { id, ..section });
            }
        }
        assert!(shards.iter().all(|shard| shard.len() == 0), "{routed}");
        all_sinks.sort_unstable_by_key(|&(lock, _)| lock);
        for (_, shard) in all_sinks {
            root.absorb(shard);
        }
        stats.peak_live_pairs = stats.peak_live_pairs.max(root.resident_entries());
        if sections.len() < total {
            root.remap_sections(&remap);
        }
        root.seal(&sections);

        Ok(StreamingSinkAnalysis {
            sections,
            breakdown,
            sink: root,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fast_classify;
    use crate::sink::{BodyOverlapGain, SiteAggregator};
    use crate::Detector;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::{
        extract_critical_sections, CodeSiteId, Footprint, MemAccess, Trace, TraceChunks,
        TraceError, TraceMeta, TraceStats,
    };

    fn record(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new("pstream-test");
        build(&mut b);
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    fn assert_identical(
        trace: &Trace,
        config: DetectorConfig,
        chunk_events: usize,
        workers: usize,
    ) {
        let batch = Detector::new(config).analyze(trace);
        let parallel = ParallelStreamingDetector::with_workers(config, workers)
            .analyze(&mut TraceChunks::new(trace, chunk_events))
            .unwrap();
        let label = format!("chunk={chunk_events} workers={workers}");
        assert_eq!(batch.sections, parallel.analysis.sections, "{label}");
        assert_eq!(batch.ulcps, parallel.analysis.ulcps, "{label}");
        assert_eq!(batch.edges, parallel.analysis.edges, "{label}");
        assert_eq!(batch.breakdown, parallel.analysis.breakdown, "{label}");
        // The stream-level accounting is the decoder's, so it does not
        // depend on the worker count (peaks are summed per worker, but what
        // was consumed is not).
        let mut source = TraceChunks::new(trace, chunk_events);
        let (mut chunks, mut peak_chunk_events) = (0, 0);
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks += 1;
            peak_chunk_events = peak_chunk_events.max(chunk.num_events());
        }
        assert_eq!(parallel.stats.chunks, chunks, "{label}");
        assert_eq!(
            parallel.stats.peak_chunk_events, peak_chunk_events,
            "{label}"
        );
        assert_eq!(parallel.stats.events, trace.num_events(), "{label}");
        assert_eq!(parallel.stats.sections, batch.sections.len(), "{label}");
        assert_eq!(parallel.stats.gaps, 0, "{label}");
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
        // enter time — long before the pair is classified — through each
        // worker's own pruned history.
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
        let parallel = ParallelStreamingDetector::with_workers(DetectorConfig::default(), 2)
            .analyze(&mut TraceChunks::new(&trace, 2))
            .unwrap();
        assert_eq!(parallel.analysis.breakdown.benign, 1);
    }

    #[test]
    fn site_aggregator_shards_merge_identically() {
        // fork-of-fork: the engine forks per-lock lanes from per-worker
        // prototypes that were themselves forked from the root.
        let trace = mixed_trace();
        let config = DetectorConfig::default();
        let batch =
            Detector::new(config).analyze_with(&trace, SiteAggregator::new(BodyOverlapGain));
        let table = batch.sink.finish();
        for workers in [1, 3] {
            let parallel = ParallelStreamingDetector::with_workers(config, workers)
                .analyze_with(
                    &mut TraceChunks::new(&trace, 16),
                    SiteAggregator::new(BodyOverlapGain),
                )
                .unwrap();
            assert_eq!(table, parallel.sink.finish());
            assert_eq!(batch.breakdown, parallel.breakdown);
            assert_eq!(batch.sections, parallel.sections);
        }
    }

    #[test]
    fn resident_state_stays_bounded_with_a_scan_cap() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("rr.c", "reader", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(60, |l| {
                        l.locked(lock, site, |cs| {
                            cs.read(x);
                            cs.compute_ns(100);
                        });
                        l.compute_ns(50);
                    });
                });
            }
        });
        let config = DetectorConfig {
            max_scan_per_thread: Some(2),
            ..DetectorConfig::default()
        };
        let parallel = ParallelStreamingDetector::with_workers(config, 2)
            .analyze(&mut TraceChunks::new(&trace, 16))
            .unwrap();
        let total = parallel.analysis.sections.len();
        assert_eq!(total, 120);
        assert!(
            parallel.stats.peak_live_sections < total / 2,
            "peak live {} should be far below {total}",
            parallel.stats.peak_live_sections
        );
        assert!(parallel.stats.retired_before_end > 0);
        assert_eq!(parallel.stats.events, trace.num_events());
        assert_eq!(parallel.stats.sections, total);
        assert_identical(&trace, config, 16, 2);
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
        let parallel = ParallelStreamingDetector::with_workers(DetectorConfig::default(), 3)
            .analyze(&mut TraceChunks::new(&trace, 8))
            .unwrap();
        assert!(parallel.analysis.ulcps.is_empty());
        assert_eq!(parallel.analysis.sections.len(), 50);
        // Sections retire immediately, so the pruned write log never
        // accumulates the full 50-write history.
        assert!(
            parallel.stats.peak_history_entries < 20,
            "peak history {}",
            parallel.stats.peak_history_entries
        );
    }

    /// Source adapter yielding the first chunk twice: base indices no longer
    /// line up, which must be rejected with the same error at every worker
    /// count.
    struct DupFirst<'a> {
        inner: TraceChunks<'a>,
        dup: Option<TraceChunk>,
        state: u8,
    }

    impl<'a> DupFirst<'a> {
        fn new(trace: &'a Trace, chunk_events: usize) -> Self {
            DupFirst {
                inner: TraceChunks::new(trace, chunk_events),
                dup: None,
                state: 0,
            }
        }
    }

    impl EventSource for DupFirst<'_> {
        fn meta(&self) -> &TraceMeta {
            self.inner.meta()
        }

        fn num_threads(&self) -> usize {
            self.inner.num_threads()
        }

        fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
            match self.state {
                0 => {
                    let first = self.inner.next_chunk()?;
                    self.dup.clone_from(&first);
                    self.state = 1;
                    Ok(first.map(StreamItem::Chunk))
                }
                1 => {
                    self.state = 2;
                    Ok(self.dup.take().map(StreamItem::Chunk))
                }
                _ => self.inner.next_item(),
            }
        }
    }

    #[test]
    fn malformed_stream_is_rejected() {
        let trace = mixed_trace();
        let one = ParallelStreamingDetector::with_workers(DetectorConfig::default(), 1)
            .analyze(&mut DupFirst::new(&trace, 8))
            .unwrap_err();
        let parallel = ParallelStreamingDetector::with_workers(DetectorConfig::default(), 2)
            .analyze(&mut DupFirst::new(&trace, 8))
            .unwrap_err();
        assert_eq!(one, parallel);
        assert!(matches!(parallel, StreamError::Format(_)));
    }

    #[test]
    fn non_monotonic_thread_times_are_reported() {
        // T1's second-to-last timestamp regressed, streamed in one chunk;
        // and T0's last zeroed, which once held every 64-event window at 0.
        let zeroed = |thread: usize, from_end: usize| {
            let mut trace = mixed_trace();
            let n = trace.threads[thread].events.len();
            trace.threads[thread].events[n - from_end].at = Time::ZERO;
            trace
        };
        let cases = [(zeroed(1, 2), 1, 1_000_000), (zeroed(0, 1), 0, 64)];
        for (trace, thread, chunk_events) in &cases {
            for workers in [1, 2] {
                let err =
                    ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
                        .analyze(&mut TraceChunks::new(trace, *chunk_events))
                        .unwrap_err();
                match err {
                    StreamError::Trace(TraceError::NonMonotonicTime { thread: t, .. }) => {
                        assert_eq!(t, ThreadId::new(*thread as u32));
                    }
                    other => panic!("expected NonMonotonicTime, got {other:?}"),
                }
            }
        }
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

    /// The section rule, pinned by a table recorded before extraction and
    /// the streaming decoder shared one builder: batch extraction, the
    /// streaming detector at every worker count and chunk size, the trace
    /// statistics and validation all agree with it.
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
                let streamed =
                    ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
                        .analyze(&mut TraceChunks::new(&trace, chunk_events))
                        .unwrap();
                let streamed: Vec<String> =
                    streamed.analysis.sections.iter().map(section_row).collect();
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

    #[test]
    fn summary_fast_path_agrees_with_classify_by_sets() {
        // Pairs drawn from a trace with overlapping and disjoint footprints:
        // whenever the fast path answers, the full classifier must agree.
        let trace = mixed_trace();
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
