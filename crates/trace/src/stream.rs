//! Streaming trace ingestion: time-windowed event chunks.
//!
//! The detection pass of the paper (Algorithm 1) assumes the whole event log
//! is resident. This module defines the abstraction that lifts that
//! assumption: an [`EventSource`] hands out [`TraceChunk`]s — per-thread runs
//! of events covering one window of original-execution time, plus the lock
//! grants of that window — so a consumer can analyze a trace far larger than
//! memory while holding only one window (and whatever incremental state it
//! keeps) resident.
//!
//! The chunk contract, which every source must honour and consumers may rely
//! on:
//!
//! 1. chunks arrive in ascending `window_end` order (a chunk with events
//!    ends strictly past every earlier window; an empty one lowers nothing);
//! 2. chunk `k` contains **every** event with `prev_window_end < at <=
//!    window_end`, for every thread — equal-timestamp ties never straddle a
//!    chunk boundary;
//! 3. within a chunk, each thread's events are a contiguous run of that
//!    thread's stream (the [`ThreadSpan::base_index`] makes the absolute
//!    event indices recoverable), and spans are listed in ascending thread
//!    order;
//! 4. each thread's timestamps never decrease, across chunks too.
//!
//! One checker, [`ChunkContract`], serves the chunk-file readers,
//! [`load_trace`] and `perfplay-lint`, so every chunk a reader admits, the
//! loader accepts.
//!
//! The contract is only satisfiable because [`ThreadTrace`] timestamps are
//! non-decreasing. [`ThreadTrace::push`] only debug-asserts that; in every
//! build the chunk readers, [`Trace::validate`], [`TraceChunks`] and
//! `perfplay-record`'s spill reject a thread whose timestamps go backwards
//! (the last three through [`Trace::check_order`]).
//!
//! Two sources are provided: [`TraceChunks`], which adapts an in-memory
//! [`Trace`] (the executable spec and the bridge for already-recorded
//! traces) and is the one place windows are cut, and [`ChunkFileReader`],
//! which streams a chunked trace file written by `perfplay-record`'s
//! `spill_trace` (the chunks of [`TraceChunks`], framed). `ChunkFileReader`
//! scans on the caller's thread and is the zero-thread reference for
//! [`PipelinedChunkReader`](crate::PipelinedChunkReader), through which every
//! library entry point reads. [`load_trace`] is the one place a source
//! becomes a [`Trace`] again: detection runs on the loaded trace, while the
//! linter and the converter hold one chunk at a time.
//!
//! Chunk files come in two on-disk formats carrying the identical record
//! stream — JSON-lines (one [`ChunkFileRecord`] per line) and the compact
//! PBIN binary framing (see [`crate::pbin`]) — discriminated by
//! [`ChunkFormat`]. Readers autodetect by magic bytes and accept an explicit
//! override; all location reporting is format-agnostic: `line` is the
//! 1-based record ordinal (the line number for JSON) and `offset` the byte
//! offset of the record's start.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::contract::ChunkContract;
use crate::event::{LockGrant, TimedEvent};
use crate::frame::{decode_frame, ends_scan, Framer};
use crate::ids::ThreadId;
use crate::pbin::ChunkFormat;
use crate::pipelined::PipelinedScanner;
use crate::site::SiteTable;
use crate::time::Time;
use crate::trace::{Trace, TraceError, TraceMeta};

/// A contiguous run of one thread's events inside a [`TraceChunk`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadSpan {
    /// Thread the events belong to.
    pub thread: ThreadId,
    /// Absolute index (into the thread's full event stream) of `events[0]`.
    pub base_index: usize,
    /// The events of this thread falling in the chunk's time window, in
    /// program order.
    pub events: Vec<TimedEvent>,
}

/// One time window of a recorded execution: every thread's events with
/// `prev_window_end < at <= window_end`, plus the lock grants of the window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceChunk {
    /// Dense chunk sequence number (0-based).
    pub seq: u64,
    /// Inclusive upper bound of the window; all events of later chunks are
    /// strictly later than this.
    pub window_end: Time,
    /// Per-thread event runs, ascending thread order. Threads with no events
    /// in the window are omitted.
    pub spans: Vec<ThreadSpan>,
    /// Lock grants whose timestamps fall inside the window.
    pub grants: Vec<LockGrant>,
}

impl TraceChunk {
    /// Total number of events carried by this chunk.
    pub fn num_events(&self) -> usize {
        self.spans.iter().map(|s| s.events.len()).sum()
    }
}

/// Errors produced while producing or consuming an event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An underlying I/O operation failed.
    Io(String),
    /// A line of a chunked trace file did not parse.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The stream violated the chunk contract (out-of-order windows,
    /// non-contiguous spans, missing header, …).
    Format(String),
    /// The streamed events violated a trace invariant.
    Trace(TraceError),
    /// An error located in a specific file: the path and byte offset make
    /// failures attributable when a daemon ingests many streams at once.
    At {
        /// Path of the chunk file the error occurred in.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// Byte offset of the start of the offending line.
        offset: u64,
        /// The underlying error.
        source: Box<StreamError>,
    },
}

impl StreamError {
    /// Unwraps [`StreamError::At`] location layers down to the underlying
    /// error.
    pub fn root_cause(&self) -> &StreamError {
        match self {
            StreamError::At { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Parse { line, message } => {
                write!(f, "chunk file line {line} does not parse: {message}")
            }
            StreamError::Format(msg) => write!(f, "malformed event stream: {msg}"),
            StreamError::Trace(e) => write!(f, "streamed trace is invalid: {e}"),
            StreamError::At {
                path,
                line,
                offset,
                source,
            } => write!(f, "{path}:{line} (byte {offset}): {source}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// How a chunk-file reader responds to a corrupt or contract-violating
/// record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Surface the first failure as a [`StreamError`] and stop (the
    /// historical behavior).
    #[default]
    Fail,
    /// Skip the offending record, emit a [`StreamGap`], resynchronize on the
    /// next record boundary and keep going.
    SkipChunk,
    /// Emit a [`StreamGap`] for the first failure and end the stream cleanly
    /// with whatever valid prefix was read.
    SkipStream,
}

/// One hole a recovering reader left in the event stream: the consumer saw
/// every chunk around the gap but none of the events inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamGap {
    /// Number of chunks successfully delivered before the gap.
    pub chunk_index: u64,
    /// 1-based line number of the skipped record (or of end-of-file for a
    /// truncation gap).
    pub line: usize,
    /// Byte offset of the start of the skipped record.
    pub offset: u64,
    /// Events known to be lost in this gap. `0` when the record was
    /// unreadable and the loss is unknown until trailer reconciliation.
    pub events_lost: u64,
    /// The failure that opened the gap.
    pub cause: Box<StreamError>,
}

impl std::fmt::Display for StreamGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gap after chunk {} at line {} (byte {}), {} events lost: {}",
            self.chunk_index, self.line, self.offset, self.events_lost, self.cause
        )
    }
}

/// One item of a recoverable event stream: a chunk, or a gap where a chunk
/// could not be delivered.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// The next chunk of events.
    Chunk(TraceChunk),
    /// A hole: events were lost here and the consumer should resynchronize.
    Gap(StreamGap),
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e.to_string())
    }
}

/// A producer of [`TraceChunk`]s honouring the chunk contract.
pub trait EventSource {
    /// Metadata of the recorded execution.
    fn meta(&self) -> &TraceMeta;

    /// Number of threads in the recorded execution (dense ids `0..n`).
    fn num_threads(&self) -> usize;

    /// Pulls the next stream item — a chunk, or a [`StreamGap`] where a
    /// recovering source skipped unreadable input — or `Ok(None)` at end of
    /// stream. Gap-aware consumers pull items, so losses reach them instead
    /// of being skipped silently.
    ///
    /// # Errors
    ///
    /// Sources backed by files report I/O and parse failures.
    fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError>;

    /// Pulls the next chunk, skipping gaps, or `Ok(None)` at end of stream.
    /// A recovering source still records what the skipped gaps lost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`next_item`](Self::next_item).
    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, StreamError> {
        while let Some(item) = self.next_item()? {
            if let StreamItem::Chunk(chunk) = item {
                return Ok(Some(chunk));
            }
        }
        Ok(None)
    }
}

/// `events.partition_point(pred)`, searched from the front in doubling
/// steps: cheap when the answer is near the start.
fn gallop(events: &[TimedEvent], pred: impl Fn(&TimedEvent) -> bool) -> usize {
    let mut end = 1;
    while end <= events.len() && pred(&events[end - 1]) {
        end *= 2;
    }
    let start = end / 2;
    start + events[start..(end - 1).min(events.len())].partition_point(pred)
}

/// [`EventSource`] adapter over an in-memory [`Trace`]: the one place
/// where a trace is cut into time windows. `perfplay-record`'s
/// `spill_trace` writes exactly these chunks, so a stream and its spill
/// file carry the same chunk sequence.
///
/// Windows are cut in one pass over the trace:
///
/// * Events are visited smallest timestamp first, ties to the lower thread
///   index.
/// * Once at least `chunk_events` (minimum 1) visited events are unwritten,
///   a window may close. It ends 1 ns before the earliest last-visited
///   timestamp among the threads that still have events to visit, counting
///   the thread just visited; when that timestamp is 0, it ends at 0 once
///   no event at 0 is left to visit. If one of those threads has not been
///   visited yet, no window closes. A window must end after the previous
///   one, and a window holding no event and no grant is skipped.
/// * A window carries every unwritten event up to its end, and the
///   unwritten lock grants in schedule order up to the first one past it.
/// * Whatever is unwritten at the end forms one last chunk, ending at the
///   latest unwritten event (`Time::MAX` if none) or grant, whichever is
///   later.
///
/// A window never ends on a timestamp some thread has yet to reach, so
/// equal-timestamp ties never straddle a boundary, and a thread that has
/// not started holds every window back.
///
/// Each window's closing visit is found without visiting events one by
/// one: it is the latest of the budget's visit and, per thread, the visit
/// of its first event that can end a window, each a binary search.
///
/// The windows need each thread at its own index and its timestamps never
/// decreasing ([`Trace::check_order`]); on a trace without that order,
/// [`next_chunk`](EventSource::next_chunk) returns the
/// [`StreamError::Trace`] error instead of a chunk.
#[derive(Debug)]
pub struct TraceChunks<'a> {
    trace: &'a Trace,
    chunk_events: usize,
    /// [`Trace::check_order`]'s verdict; an error is every `next_chunk`'s
    /// answer.
    order: Result<(), TraceError>,
    /// Events visited, per thread, once the last window's closing visit is.
    visited: Vec<usize>,
    /// Events written into chunks, per thread: exactly those up to the last
    /// window's end.
    written: Vec<usize>,
    /// Visited events not yet written.
    unwritten: usize,
    /// Lock grants written into chunks.
    written_grants: usize,
    /// End of the last window cut.
    last_window_end: Option<Time>,
    /// Sequence number of the next chunk.
    seq: u64,
}

/// A visit of thread `.1`'s event `.2`, at `.0`: events are visited in
/// this tuple's order.
type Visit = (Time, usize, usize);

impl<'a> TraceChunks<'a> {
    /// Creates a chunked view over `trace` targeting `chunk_events` events
    /// per chunk (clamped to at least 1).
    pub fn new(trace: &'a Trace, chunk_events: usize) -> Self {
        TraceChunks {
            trace,
            chunk_events: chunk_events.max(1),
            order: trace.check_order(),
            visited: vec![0; trace.num_threads()],
            written: vec![0; trace.num_threads()],
            unwritten: 0,
            written_grants: 0,
            last_window_end: None,
            seq: 0,
        }
    }

    /// The index past thread `ti`'s events from `from` on that come before
    /// `at`, or at it too if `inclusive`.
    fn count(&self, ti: usize, from: usize, at: Time, inclusive: bool) -> usize {
        let events = &self.trace.threads[ti].events[from..];
        from + gallop(events, |e| e.at < at || (inclusive && e.at == at))
    }

    /// How many of thread `ti`'s events are visited once `visit`, no
    /// earlier than the last closing visit, is.
    fn visited(&self, ti: usize, (at, thread, index): Visit) -> usize {
        if ti == thread {
            index + 1
        } else {
            self.count(ti, self.visited[ti], at, ti < thread)
        }
    }

    /// The first visit after `visit` (after the last closing visit for
    /// `None`), if an event is left.
    fn next_visit(&self, visit: Option<Visit>) -> Option<Visit> {
        let threads = self.trace.threads.iter().enumerate();
        let next = threads.filter_map(|(ti, t)| {
            let i = visit.map_or(self.visited[ti], |v| self.visited(ti, v));
            t.events.get(i).map(|e| (e.at, ti, i))
        });
        next.min()
    }

    /// The visit of the `k`-th unwritten event, if there are `k`.
    fn kth_unwritten(&self, k: usize) -> Option<Visit> {
        let threads = || self.trace.threads.iter().zip(&self.written).enumerate();
        let through = |at: Time, inclusive: bool| -> usize {
            let counts = threads().map(|(ti, (_, &w))| self.count(ti, w, at, inclusive) - w);
            counts.sum()
        };
        // It is at the earliest time by which `k` are: no earlier than the
        // first unwritten event, no later than any one thread's k-th.
        let first = threads().filter_map(|(_, (t, &w))| t.events.get(w));
        let mut lo = first.map(|e| e.at).min()?;
        let kth = threads().filter_map(|(_, (t, &w))| t.events.get(w + k - 1));
        let mut hi = kth.map(|e| e.at).min().unwrap_or(Time::MAX);
        if through(hi, true) < k {
            return None;
        }
        while lo < hi {
            let mid = Time::from_nanos(lo.as_nanos() + (hi.as_nanos() - lo.as_nanos()) / 2);
            if through(mid, true) >= k {
                hi = mid;
            } else {
                lo = Time::from_nanos(mid.as_nanos() + 1);
            }
        }
        // Among the events at `lo`, in thread order, the one of this rank.
        let mut rank = k - through(lo, false);
        for (ti, (_, &w)) in threads() {
            let (before, through) = (self.count(ti, w, lo, false), self.count(ti, w, lo, true));
            if rank <= through - before {
                return Some((lo, ti, before + rank - 1));
            }
            rank -= through - before;
        }
        None
    }

    /// The first visit from `from` at which a window can close: each
    /// thread with events left, or just visited, has visited an event that
    /// ends a window after the last one.
    fn closing_visit(&self, from: Visit) -> Option<Visit> {
        let mut close = from;
        for (ti, (t, &w)) in self.trace.threads.iter().zip(&self.written).enumerate() {
            let i = match self.last_window_end {
                // No time precedes 0: the first window also waits for the
                // last event at 0.
                None => self.count(ti, 0, Time::ZERO, true).saturating_sub(1),
                Some(end) => match end.as_nanos().checked_add(2) {
                    Some(reach) => self.count(ti, w, Time::from_nanos(reach), false),
                    None => t.events.len(),
                },
            };
            match (t.events.get(i), t.events.len().checked_sub(1)) {
                (Some(e), _) => close = close.max((e.at, ti, i)),
                // Without one, the thread holds the window until it is done.
                (None, Some(last)) if (t.events[last].at, ti, last) >= close => {
                    close = self.next_visit(Some((t.events[last].at, ti, last)))?;
                }
                (None, _) => {}
            }
        }
        Some(close)
    }

    /// Visits every event up to `close` and returns the end of the window
    /// that closes there: 1 ns before the earliest last-visited timestamp
    /// among the threads with events left and the one just visited, or 0.
    fn close_at(&mut self, close: Visit) -> Time {
        let mut earliest = Time::MAX;
        for ti in 0..self.visited.len() {
            let v = self.visited(ti, close);
            self.unwritten += v - self.visited[ti];
            self.visited[ti] = v;
            let events = &self.trace.threads[ti].events;
            if v > 0 && (v < events.len() || ti == close.1) {
                earliest = earliest.min(events[v - 1].at);
            }
        }
        Time::from_nanos(earliest.as_nanos().saturating_sub(1))
    }

    /// Cuts every unwritten event and grant up to `window_end` into the
    /// next chunk; `None` if there is none.
    fn cut(&mut self, window_end: Time) -> Option<TraceChunk> {
        let mut spans = Vec::new();
        for (ti, t) in self.trace.threads.iter().enumerate() {
            let from = self.written[ti];
            let events = &t.events[from..];
            let take = gallop(events, |e| e.at <= window_end);
            if take == 0 {
                continue;
            }
            self.written[ti] += take;
            self.unwritten = self.unwritten.saturating_sub(take);
            spans.push(ThreadSpan {
                thread: t.thread,
                base_index: from,
                events: events[..take].to_vec(),
            });
        }
        let late = &self.trace.lock_schedule[self.written_grants..];
        let take = late.iter().take_while(|g| g.at <= window_end).count();
        if spans.is_empty() && take == 0 {
            return None;
        }
        let chunk = TraceChunk {
            seq: self.seq,
            window_end,
            spans,
            grants: late[..take].to_vec(),
        };
        self.written_grants += take;
        self.seq += 1;
        self.last_window_end = Some(window_end);
        Some(chunk)
    }
}

impl EventSource for TraceChunks<'_> {
    fn meta(&self) -> &TraceMeta {
        &self.trace.meta
    }

    fn num_threads(&self) -> usize {
        self.trace.threads.len()
    }

    fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        self.order.clone()?;
        // The budget fills at the `chunk_events`-th unwritten visit, or at
        // the next visit if enough are visited already.
        loop {
            let budget = if self.unwritten >= self.chunk_events {
                self.next_visit(None)
            } else {
                self.kth_unwritten(self.chunk_events)
            };
            let Some(close) = budget.and_then(|budget| self.closing_visit(budget)) else {
                break;
            };
            let window_end = self.close_at(close);
            if let Some(chunk) = self.cut(window_end) {
                return Ok(Some(StreamItem::Chunk(chunk)));
            }
        }
        let last_event = self
            .trace
            .threads
            .iter()
            .zip(&self.written)
            .filter_map(|(t, &written)| t.events[written..].last().map(|e| e.at))
            .max();
        let late_grants = &self.trace.lock_schedule[self.written_grants..];
        let last_grant = late_grants.iter().map(|g| g.at).max();
        if last_event.is_none() && last_grant.is_none() {
            return Ok(None);
        }
        let window_end = last_event
            .unwrap_or(Time::MAX)
            .max(last_grant.unwrap_or(Time::ZERO));
        Ok(self.cut(window_end).map(StreamItem::Chunk))
    }
}

/// First record of a chunked trace file: everything a consumer needs before
/// the first event arrives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkFileHeader {
    /// Execution metadata.
    pub meta: TraceMeta,
    /// Number of threads (dense ids `0..n`).
    pub num_threads: usize,
    /// Interned code sites of the recorded execution.
    pub sites: SiteTable,
}

/// Last record of a chunked trace file: the whole-execution quantities that
/// are only known once recording ends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkFileTrailer {
    /// Makespan of the original execution.
    pub total_time: Time,
    /// Per-thread finish times, indexed by thread id.
    pub finish_times: Vec<Time>,
    /// Number of chunk records written (for integrity checking).
    pub chunks: u64,
    /// Total events written across all chunks.
    pub events: u64,
}

/// One line of a chunked trace file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkFileRecord {
    /// File header; always the first line.
    Header(ChunkFileHeader),
    /// One time-window of events.
    Chunk(TraceChunk),
    /// File trailer; always the last line.
    Trailer(ChunkFileTrailer),
}

/// Streaming reader of a chunked trace file, in either [`ChunkFormat`],
/// that frames and decodes on the caller's thread.
///
/// Only one record is resident at a time; the file can be arbitrarily
/// larger than memory. Binary records are decoded from a reused frame
/// buffer with no intermediate `String`/JSON value allocations. This is the
/// zero-thread reference: library entry points read through
/// [`PipelinedChunkReader`](crate::PipelinedChunkReader), which shares this
/// type's state machine and yields the identical stream.
///
/// Every error the reader produces is wrapped in [`StreamError::At`] with
/// the file path, record ordinal (`line`) and byte offset, so multi-stream
/// logs are attributable. Each chunk is checked by a [`ChunkContract`]
/// before it is delivered. Under a non-[`Fail`](RecoveryPolicy::Fail) policy
/// the reader converts failures into [`StreamGap`]s instead: it skips bad
/// records, resynchronizes on the next record boundary (the next line, or
/// the next binary frame marker), and reconciles the total event loss
/// against the trailer when one is present.
pub struct ChunkFileReader {
    scanner: RecordScanner,
    format: ChunkFormat,
    path: String,
    policy: RecoveryPolicy,
    header: ChunkFileHeader,
    trailer: Option<ChunkFileTrailer>,
    line_no: usize,
    /// Byte offset of the start of the next unread record.
    offset: u64,
    chunks_seen: u64,
    events_seen: u64,
    /// What the delivered chunks and gaps admit next.
    contract: ChunkContract,
    gaps: Vec<StreamGap>,
    done: bool,
}

impl std::fmt::Debug for ChunkFileReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkFileReader")
            .field("path", &self.path)
            .field("format", &self.format)
            .field("policy", &self.policy)
            .field("header", &self.header)
            .field("chunks_seen", &self.chunks_seen)
            .field("events_seen", &self.events_seen)
            .field("gaps", &self.gaps.len())
            .finish_non_exhaustive()
    }
}

impl ChunkFileReader {
    /// Opens a chunked trace file (format autodetected by magic bytes) and
    /// reads its header, failing on the first malformed record
    /// ([`RecoveryPolicy::Fail`]).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened, the first record does not parse,
    /// or it is not a [`ChunkFileRecord::Header`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StreamError> {
        Self::with_policy(path, RecoveryPolicy::Fail)
    }

    /// Opens a chunked trace file with an explicit [`RecoveryPolicy`]
    /// (format autodetected).
    ///
    /// The header must be readable under every policy — without it the
    /// stream has no thread count or site table and nothing downstream can
    /// run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](Self::open).
    pub fn with_policy(
        path: impl AsRef<Path>,
        policy: RecoveryPolicy,
    ) -> Result<Self, StreamError> {
        Self::with_policy_and_format(path, policy, None)
    }

    /// Opens a chunked trace file with an explicit [`RecoveryPolicy`] and an
    /// optional format override (`None` autodetects by magic bytes).
    pub(crate) fn with_policy_and_format(
        path: impl AsRef<Path>,
        policy: RecoveryPolicy,
        format: Option<ChunkFormat>,
    ) -> Result<Self, StreamError> {
        Self::open_scanner(path.as_ref(), policy, format, None)
    }

    /// Opens a chunked trace file through the pipelined scanner, the state
    /// machine behind [`crate::PipelinedChunkReader`]: a framing thread plus
    /// `decode_workers` decode workers (`0` sizes the pool from
    /// [`crate::default_decode_workers`]). Thread-spawn failures are reported
    /// as [`StreamError::Io`].
    pub(crate) fn open_pipelined(
        path: impl AsRef<Path>,
        policy: RecoveryPolicy,
        format: Option<ChunkFormat>,
        decode_workers: usize,
    ) -> Result<Self, StreamError> {
        Self::open_scanner(path.as_ref(), policy, format, Some(decode_workers))
    }

    /// Shared constructor: opens the record scanner (see
    /// [`RecordScanner::open`]), reads the header record (required under
    /// every policy) and seeds the reader state.
    fn open_scanner(
        path: &Path,
        policy: RecoveryPolicy,
        format: Option<ChunkFormat>,
        decode_workers: Option<usize>,
    ) -> Result<Self, StreamError> {
        let path_str = path.display().to_string();
        let at = |line: usize, offset: u64, source: StreamError| StreamError::At {
            path: path_str.clone(),
            line,
            offset,
            source: Box::new(source),
        };
        let (format, mut scanner) =
            RecordScanner::open(path, format, decode_workers).map_err(|e| at(0, 0, e))?;
        let first = scanner
            .next_record()
            .ok_or_else(|| at(1, 0, StreamError::Format("empty chunk file".into())))?;
        let record = first.record.map_err(|e| at(first.line, first.offset, e))?;
        let ChunkFileRecord::Header(header) = record else {
            return Err(at(
                first.line,
                first.offset,
                StreamError::Format("chunk file does not start with a header record".into()),
            ));
        };
        let num_threads = header.num_threads;
        Ok(ChunkFileReader {
            scanner,
            format,
            path: path_str,
            policy,
            header,
            trailer: None,
            line_no: first.line,
            offset: first.offset + first.bytes,
            chunks_seen: 0,
            events_seen: 0,
            contract: ChunkContract::new(Some(num_threads)),
            gaps: Vec::new(),
            done: false,
        })
    }

    /// The path of the file being read.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The on-disk format of the file being read.
    pub fn format(&self) -> ChunkFormat {
        self.format
    }

    /// The recovery policy in effect.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// The interned code sites from the file header.
    pub fn sites(&self) -> &SiteTable {
        &self.header.sites
    }

    /// The file trailer; available once the stream has been fully consumed.
    pub fn trailer(&self) -> Option<&ChunkFileTrailer> {
        self.trailer.as_ref()
    }

    /// Every gap recorded so far (non-empty only under a recovering policy).
    pub fn gaps(&self) -> &[StreamGap] {
        &self.gaps
    }

    /// Total events known lost across all recorded gaps, saturating at
    /// `u64::MAX`: a trailer's event count is file input.
    pub fn events_lost(&self) -> u64 {
        self.gaps
            .iter()
            .map(|g| g.events_lost)
            .fold(0, u64::saturating_add)
    }

    /// Wraps an error with this file's path and the given location.
    fn locate(&self, line: usize, offset: u64, source: StreamError) -> StreamError {
        StreamError::At {
            path: self.path.clone(),
            line,
            offset,
            source: Box::new(source),
        }
    }

    /// Records a gap at the given location; the contract lets every
    /// thread's next span jump forward.
    fn record_gap(
        &mut self,
        line: usize,
        offset: u64,
        events_lost: u64,
        cause: StreamError,
    ) -> StreamGap {
        let gap = StreamGap {
            chunk_index: self.chunks_seen,
            line,
            offset,
            events_lost,
            cause: Box::new(cause),
        };
        self.gaps.push(gap.clone());
        self.contract.note_gap();
        gap
    }

    /// Reads one record, applying the recovery policy. Returns `Ok(None)`
    /// only at a clean end of stream.
    fn read_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        if self.done {
            return Ok(None);
        }
        let Some(raw) = self.scanner.next_record() else {
            if self.trailer.is_some() {
                self.done = true;
                return Ok(None);
            }
            let cause = StreamError::Format("chunk file ended without a trailer record".into());
            return self.refuse(self.line_no + 1, self.offset, 0, cause, true);
        };
        let line_no = raw.line;
        let line_offset = raw.offset;
        self.line_no = raw.line;
        self.offset = raw.offset + raw.bytes;
        let (cause, events_lost) = match raw.record {
            // The stream position is unknowable after a read error, so even
            // recovering policies end the stream on I/O failures; parse
            // failures resynchronize on the next record boundary.
            Err(cause) => {
                let io = matches!(cause.root_cause(), StreamError::Io(_));
                return self.refuse(line_no, line_offset, 0, cause, io);
            }
            // Nothing may follow the trailer: a chunk there loses its events.
            Ok(record) if self.trailer.is_some() => (
                StreamError::Format(format!("record after the trailer at line {line_no}")),
                match record {
                    ChunkFileRecord::Chunk(chunk) => chunk.num_events() as u64,
                    _ => 0,
                },
            ),
            Ok(ChunkFileRecord::Header(_)) => (
                StreamError::Format(format!("unexpected second header at line {line_no}")),
                0u64,
            ),
            Ok(ChunkFileRecord::Chunk(chunk)) => match self.contract.check(&chunk) {
                Ok(()) => {
                    self.contract.admit(&chunk);
                    self.chunks_seen += 1;
                    self.events_seen += chunk.num_events() as u64;
                    return Ok(Some(StreamItem::Chunk(chunk)));
                }
                Err(violation) => (violation.into(), chunk.num_events() as u64),
            },
            Ok(ChunkFileRecord::Trailer(trailer)) => {
                return self.finish_at_trailer(trailer, line_no, line_offset);
            }
        };
        self.refuse(line_no, line_offset, events_lost, cause, false)
    }

    /// Applies the recovery policy to a record the reader cannot deliver:
    /// `Fail` returns the located error; the other policies record a gap,
    /// and end the stream under `SkipStream` or when `ends_stream`.
    fn refuse(
        &mut self,
        line: usize,
        offset: u64,
        events_lost: u64,
        cause: StreamError,
        ends_stream: bool,
    ) -> Result<Option<StreamItem>, StreamError> {
        if self.policy == RecoveryPolicy::Fail {
            return Err(self.locate(line, offset, cause));
        }
        self.done = ends_stream || self.policy == RecoveryPolicy::SkipStream;
        Ok(Some(StreamItem::Gap(self.record_gap(
            line,
            offset,
            events_lost,
            cause,
        ))))
    }

    /// Handles the trailer record: verifies the integrity counts, and under
    /// a recovering policy reconciles the true event loss (the trailer is
    /// the writer's ground truth) into one accounting gap. Reading goes on
    /// to the end of the file, refusing any record after the trailer.
    fn finish_at_trailer(
        &mut self,
        trailer: ChunkFileTrailer,
        line_no: usize,
        line_offset: u64,
    ) -> Result<Option<StreamItem>, StreamError> {
        let counts_match = trailer.chunks == self.chunks_seen && trailer.events == self.events_seen;
        if counts_match {
            self.trailer = Some(trailer);
            return self.read_item();
        }
        let cause = StreamError::Format(format!(
            "trailer claims {} chunks / {} events but {} / {} were read",
            trailer.chunks, trailer.events, self.chunks_seen, self.events_seen
        ));
        if matches!(self.policy, RecoveryPolicy::Fail) {
            return Err(self.locate(line_no, line_offset, cause));
        }
        let counted: u64 = self.events_lost();
        let residual = trailer
            .events
            .saturating_sub(self.events_seen)
            .saturating_sub(counted);
        self.trailer = Some(trailer);
        if residual > 0 || self.gaps.is_empty() {
            return Ok(Some(StreamItem::Gap(self.record_gap(
                line_no,
                line_offset,
                residual,
                cause,
            ))));
        }
        self.read_item()
    }
}

impl EventSource for ChunkFileReader {
    fn meta(&self) -> &TraceMeta {
        &self.header.meta
    }

    fn num_threads(&self) -> usize {
        self.header.num_threads
    }

    fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        self.read_item()
    }
}

/// One record scanned by [`RawChunkRecords`]: its exact file coordinates
/// plus the parse outcome. Parse failures are data, not stream terminators —
/// the scanner keeps going on the next record boundary.
#[derive(Debug)]
pub struct RawRecord {
    /// 1-based record ordinal (the line number for JSON-lines files).
    pub line: usize,
    /// Byte offset of the start of the record.
    pub offset: u64,
    /// Bytes consumed by the record (including the newline for JSON-lines;
    /// including the file prelude for the first binary record, so a clean
    /// file's record extents tile the whole file).
    pub bytes: u64,
    /// The parsed record, or why it did not parse.
    pub record: Result<ChunkFileRecord, StreamError>,
}

/// The record scanner behind both readers. Both variants make the same two
/// calls per record, [`Framer::next_frame`] then [`decode_frame`], and so
/// yield the identical record stream.
#[derive(Debug)]
enum RecordScanner {
    /// The zero-thread reference: both calls on the caller's thread, out of
    /// one reused payload buffer.
    Inline {
        framer: Framer,
        payload: Vec<u8>,
        done: bool,
    },
    /// Framing on a thread of its own and decoding in a pool
    /// ([`PipelinedScanner`]).
    Pipelined(PipelinedScanner),
}

impl RecordScanner {
    /// Opens `path` for record scanning in `format` (`None` autodetects by
    /// magic bytes): inline when `decode_workers` is `None`, otherwise
    /// pipelined with that many decode workers (`0` sizes the pool from
    /// [`crate::default_decode_workers`]).
    fn open(
        path: &Path,
        format: Option<ChunkFormat>,
        decode_workers: Option<usize>,
    ) -> Result<(ChunkFormat, Self), StreamError> {
        let format = match format {
            Some(f) => f,
            None => ChunkFormat::detect(path)?,
        };
        let scanner = match decode_workers {
            None => RecordScanner::Inline {
                framer: Framer::open(path, format)?,
                payload: Vec::new(),
                done: false,
            },
            Some(workers) => {
                RecordScanner::Pipelined(PipelinedScanner::spawn(path, format, workers)?)
            }
        };
        Ok((format, scanner))
    }

    fn next_record(&mut self) -> Option<RawRecord> {
        match self {
            RecordScanner::Inline {
                framer,
                payload,
                done,
            } => {
                if *done {
                    return None;
                }
                let record = decode_frame(framer.next_frame(payload)?, payload);
                *done = ends_scan(&record);
                Some(record)
            }
            RecordScanner::Pipelined(scanner) => scanner.next_record(),
        }
    }
}

/// Low-level record-by-record scanner of a chunked trace file, in either
/// [`ChunkFormat`].
///
/// Unlike [`ChunkFileReader`] this performs **no** contract validation and
/// **no** recovery bookkeeping: every record is surfaced verbatim with its
/// 1-based ordinal and byte offset, parse failures included, so a consumer
/// (e.g. a lint pass) can attribute each finding to exact file coordinates
/// and keep scanning past malformed records. Only one record is resident at
/// a time.
///
/// An unreadable record (an I/O error mid-file) is reported as one final
/// [`RawRecord`] carrying [`StreamError::Io`], after which the scanner ends:
/// the stream position is unknowable past a failed read.
///
/// [`open`](Self::open) scans on the caller's thread and is the zero-thread
/// reference; library entry points scan through
/// [`open_pipelined`](Self::open_pipelined), which yields the identical
/// record sequence.
#[derive(Debug)]
pub struct RawChunkRecords {
    scanner: RecordScanner,
    format: ChunkFormat,
}

impl RawChunkRecords {
    /// Opens a chunk file for raw scanning, autodetecting the format by
    /// magic bytes.
    ///
    /// # Errors
    ///
    /// Fails only if the file cannot be opened; everything else — including
    /// an empty file — is reported through the iterator.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StreamError> {
        Self::open_with_format(path, None)
    }

    /// Opens a chunk file for raw scanning with an optional format override
    /// (`None` autodetects by magic bytes).
    pub(crate) fn open_with_format(
        path: impl AsRef<Path>,
        format: Option<ChunkFormat>,
    ) -> Result<Self, StreamError> {
        let (format, scanner) = RecordScanner::open(path.as_ref(), format, None)?;
        Ok(RawChunkRecords { scanner, format })
    }

    /// Opens a chunk file for raw scanning through the three-stage pipelined
    /// scanner: a framing thread walks record boundaries while a pool of
    /// `decode_workers` threads deserializes payloads (`0` sizes the pool
    /// from [`crate::default_decode_workers`]). Yields the identical record
    /// sequence as [`open`](Self::open).
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](Self::open), plus thread-spawn failures.
    pub fn open_pipelined(
        path: impl AsRef<Path>,
        format: Option<ChunkFormat>,
        decode_workers: usize,
    ) -> Result<Self, StreamError> {
        let (format, scanner) = RecordScanner::open(path.as_ref(), format, Some(decode_workers))?;
        Ok(RawChunkRecords { scanner, format })
    }

    /// The on-disk format being scanned.
    pub fn format(&self) -> ChunkFormat {
        self.format
    }
}

impl Iterator for RawChunkRecords {
    type Item = RawRecord;

    fn next(&mut self) -> Option<RawRecord> {
        self.scanner.next_record()
    }
}

/// What [`load_trace`] read from an [`EventSource`]: the surviving events
/// and grants as one [`Trace`], and what the stream delivered and lost.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// The source's metadata and threads, each thread's admitted events in
    /// stream order (its finish time the last of them), and the admitted
    /// lock grants. The source carries no code-site table or makespan, so
    /// `sites` is empty and `total_time` is the latest finish time.
    pub trace: Trace,
    /// Chunks admitted.
    pub chunks: usize,
    /// Events of the largest chunk admitted.
    pub peak_chunk_events: usize,
    /// Gaps the source reported (0 on a clean stream).
    pub gaps: usize,
    /// Events known lost across those gaps, saturating at `u64::MAX`: a
    /// trailer's event count is file input.
    pub events_lost: u64,
}

/// Loads an event stream into memory: the one place an [`EventSource`]
/// becomes a [`Trace`].
///
/// Each chunk is checked with a [`ChunkContract`] before its events and
/// grants are appended. A [`StreamGap`] only lets the contract accept a
/// forward jump in each thread's next span, so the trace holds exactly the
/// surviving events, renumbered densely: after a gap, an event's index
/// points into the loaded trace, not into the recorded one.
///
/// # Errors
///
/// Propagates source errors and rejects the first chunk that breaks the
/// chunk contract, with the [`StreamError`] the chunk-file readers report
/// for it.
pub fn load_trace(source: &mut impl EventSource) -> Result<LoadedTrace, StreamError> {
    let num_threads = source.num_threads();
    let mut contract = ChunkContract::new(Some(num_threads));
    let mut loaded = LoadedTrace {
        trace: Trace::new(source.meta().clone(), num_threads),
        chunks: 0,
        peak_chunk_events: 0,
        gaps: 0,
        events_lost: 0,
    };
    while let Some(item) = source.next_item()? {
        match item {
            StreamItem::Chunk(chunk) => {
                contract.check(&chunk)?;
                contract.admit(&chunk);
                loaded.chunks += 1;
                loaded.peak_chunk_events = loaded.peak_chunk_events.max(chunk.num_events());
                // Admitted: each span continues its thread, in time order.
                for span in chunk.spans {
                    let thread = &mut loaded.trace.threads[span.thread.index()];
                    if let Some(last) = span.events.last() {
                        thread.finish_time = last.at;
                    }
                    thread.events.extend(span.events);
                }
                loaded.trace.lock_schedule.extend(chunk.grants);
            }
            StreamItem::Gap(gap) => {
                loaded.gaps += 1;
                loaded.events_lost = loaded.events_lost.saturating_add(gap.events_lost);
                contract.note_gap();
            }
        }
    }
    let finish_times = loaded.trace.threads.iter().map(|t| t.finish_time);
    loaded.trace.total_time = finish_times.max().unwrap_or(Time::ZERO);
    Ok(loaded)
}

/// Reads a chunked trace file back into a full in-memory [`Trace`]: the
/// file's events and grants through [`load_trace`] over a
/// [`PipelinedChunkReader`](crate::PipelinedChunkReader), then its code
/// sites and the trailer's makespan and finish times.
///
/// This is the inverse of `perfplay-record`'s `spill_trace`.
///
/// # Errors
///
/// Propagates reader errors, the first chunk that breaks the chunk contract
/// ([`ChunkContract`]) included, located at its record, and the reader's
/// thread-spawn failures.
pub fn read_chunked_trace(path: impl AsRef<Path>) -> Result<Trace, StreamError> {
    let mut reader = crate::PipelinedChunkReader::open(path)?;
    let mut trace = load_trace(&mut reader)?.trace;
    trace.sites = reader.sites().clone();
    let trailer = reader
        .trailer()
        .ok_or_else(|| StreamError::Format("missing trailer".into()))?;
    trace.total_time = trailer.total_time;
    for (tt, finish) in trace.threads.iter_mut().zip(&trailer.finish_times) {
        tt.finish_time = *finish;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::{CodeSiteId, LockId, ObjectId};

    fn two_thread_trace() -> Trace {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        for (ti, base) in [(0usize, 0u64), (1, 5)] {
            let t = &mut trace.threads[ti];
            t.push(
                Time::from_nanos(base + 1),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(0),
                },
            );
            t.push(
                Time::from_nanos(base + 2),
                Event::Read {
                    obj: ObjectId::new(0),
                    value: 0,
                },
            );
            t.push(
                Time::from_nanos(base + 3),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
            t.push(Time::from_nanos(base + 4), Event::ThreadExit);
        }
        trace.lock_schedule = vec![
            LockGrant {
                seq: 0,
                lock: LockId::new(0),
                thread: ThreadId::new(0),
                event_index: 0,
                at: Time::from_nanos(1),
            },
            LockGrant {
                seq: 1,
                lock: LockId::new(0),
                thread: ThreadId::new(1),
                event_index: 0,
                at: Time::from_nanos(6),
            },
        ];
        trace.total_time = Time::from_nanos(9);
        trace
    }

    fn collect_chunks(source: &mut impl EventSource) -> Vec<TraceChunk> {
        let mut chunks = Vec::new();
        while let Some(c) = source.next_chunk().unwrap() {
            chunks.push(c);
        }
        chunks
    }

    #[test]
    fn trace_chunks_cover_every_event_once_in_order() {
        let trace = two_thread_trace();
        for chunk_events in 1..=10 {
            let mut source = TraceChunks::new(&trace, chunk_events);
            let chunks = collect_chunks(&mut source);
            // Contract 1: windows strictly ascend (ignoring the grant-flush
            // tail chunk, which carries no events).
            let mut prev: Option<Time> = None;
            let mut total_events = 0;
            let mut total_grants = 0;
            for chunk in &chunks {
                if let Some(p) = prev {
                    assert!(chunk.window_end > p, "chunk_events={chunk_events}");
                }
                for span in &chunk.spans {
                    for te in &span.events {
                        assert!(te.at <= chunk.window_end);
                        if let Some(p) = prev {
                            assert!(te.at > p, "tie straddled a boundary");
                        }
                    }
                    total_events += span.events.len();
                }
                total_grants += chunk.grants.len();
                prev = Some(chunk.window_end);
            }
            assert_eq!(total_events, trace.num_events());
            assert_eq!(total_grants, trace.lock_schedule.len());
        }
    }

    #[test]
    fn trace_chunks_spans_are_contiguous_per_thread() {
        let trace = two_thread_trace();
        let mut source = TraceChunks::new(&trace, 3);
        let chunks = collect_chunks(&mut source);
        let mut next_index = vec![0usize; trace.num_threads()];
        for chunk in &chunks {
            let mut prev_thread: Option<ThreadId> = None;
            for span in &chunk.spans {
                if let Some(p) = prev_thread {
                    assert!(span.thread > p, "spans not in ascending thread order");
                }
                prev_thread = Some(span.thread);
                assert_eq!(span.base_index, next_index[span.thread.index()]);
                next_index[span.thread.index()] += span.events.len();
            }
        }
        assert_eq!(next_index[0], trace.threads[0].len());
        assert_eq!(next_index[1], trace.threads[1].len());
    }

    #[test]
    fn empty_trace_produces_no_chunks() {
        let trace = Trace::new(TraceMeta::default(), 2);
        let mut source = TraceChunks::new(&trace, 4);
        assert_eq!(source.next_chunk().unwrap(), None);
    }

    #[test]
    fn trace_chunks_refuse_time_running_backwards() {
        let mut trace = Trace::new(TraceMeta::default(), 1);
        for at in [5, 3] {
            let read = Event::Read {
                obj: ObjectId::new(0),
                value: 0,
            };
            trace.threads[0]
                .events
                .push(TimedEvent::new(Time::from_nanos(at), read));
        }
        let mut source = TraceChunks::new(&trace, 2);
        assert!(matches!(
            source.next_chunk(),
            Err(StreamError::Trace(TraceError::NonMonotonicTime {
                event_index: 1,
                ..
            }))
        ));
    }

    #[test]
    fn chunk_records_roundtrip_through_serde() {
        let trace = two_thread_trace();
        let mut source = TraceChunks::new(&trace, 2);
        let chunk = source.next_chunk().unwrap().unwrap();
        let json = serde_json::to_string(&ChunkFileRecord::Chunk(chunk.clone())).unwrap();
        let back: ChunkFileRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ChunkFileRecord::Chunk(chunk));
    }

    /// A source that yields a fixed list of chunks.
    struct Chunks {
        meta: TraceMeta,
        num_threads: usize,
        chunks: std::vec::IntoIter<TraceChunk>,
    }

    impl Chunks {
        fn new(trace: &Trace, chunks: Vec<TraceChunk>) -> Self {
            Chunks {
                meta: trace.meta.clone(),
                num_threads: trace.num_threads(),
                chunks: chunks.into_iter(),
            }
        }
    }

    impl EventSource for Chunks {
        fn meta(&self) -> &TraceMeta {
            &self.meta
        }

        fn num_threads(&self) -> usize {
            self.num_threads
        }

        fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
            Ok(self.chunks.next().map(StreamItem::Chunk))
        }
    }

    /// The first chunk twice: base indices no longer line up, and the
    /// window does not advance.
    #[test]
    fn malformed_stream_is_rejected() {
        let trace = two_thread_trace();
        let mut chunks = collect_chunks(&mut TraceChunks::new(&trace, 3));
        chunks.insert(1, chunks[0].clone());
        let err = load_trace(&mut Chunks::new(&trace, chunks)).unwrap_err();
        assert!(matches!(err, StreamError::Format(_)), "{err}");
        assert!(err.to_string().contains("does not advance"), "{err}");
    }

    #[test]
    fn non_monotonic_thread_times_are_reported() {
        let trace = two_thread_trace();
        // T1's second-to-last timestamp regressed, and T0's last zeroed:
        // `TraceChunks` refuses the trace, and a source that streams such a
        // chunk anyway is refused by the contract check.
        let zeroed = |thread: usize, from_end: usize| {
            let mut trace = trace.clone();
            let n = trace.threads[thread].events.len();
            trace.threads[thread].events[n - from_end].at = Time::ZERO;
            (trace, ThreadId::new(thread as u32), n - from_end)
        };
        for (bad, thread, index) in [zeroed(1, 2), zeroed(0, 1)] {
            let expected = StreamError::Trace(TraceError::NonMonotonicTime {
                thread,
                event_index: index,
            });
            for chunk_events in [1, 64] {
                let err = load_trace(&mut TraceChunks::new(&bad, chunk_events)).unwrap_err();
                assert_eq!(err, expected, "chunk_events={chunk_events}");
            }
            // The clean trace in one chunk, then the regression written
            // into it.
            let mut chunks = collect_chunks(&mut TraceChunks::new(&trace, 100));
            let span = &mut chunks[0].spans[thread.index()];
            span.events[index].at = Time::ZERO;
            let err = load_trace(&mut Chunks::new(&trace, chunks)).unwrap_err();
            assert_eq!(err, expected);
        }
    }

    #[test]
    fn stream_error_display_is_informative() {
        let e = StreamError::Parse {
            line: 7,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e: StreamError = TraceError::MisnumberedThread { index: 2 }.into();
        assert!(matches!(e, StreamError::Trace(_)));
    }
}
