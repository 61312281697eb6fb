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
//! 1. chunks arrive in ascending `window_end` order;
//! 2. chunk `k` contains **every** event with `prev_window_end < at <=
//!    window_end`, for every thread — equal-timestamp ties never straddle a
//!    chunk boundary;
//! 3. within a chunk, each thread's events are a contiguous run of that
//!    thread's stream (the [`ThreadSpan::base_index`] makes the absolute
//!    event indices recoverable), and spans are listed in ascending thread
//!    order.
//!
//! The contract is only satisfiable because [`ThreadTrace`] timestamps are
//! non-decreasing. [`ThreadTrace::push`] only debug-asserts that; in every
//! build the chunk readers, [`Trace::validate`] and `perfplay-record`'s
//! spill reject a thread whose timestamps go backwards.
//!
//! Two sources are provided: [`TraceChunks`], which adapts an in-memory
//! [`Trace`] (the executable spec and the bridge for already-recorded
//! traces), and [`ChunkFileReader`], which streams a chunked trace file
//! written by `perfplay-record`'s `spill_trace`, so detection never needs
//! the full log in memory at all. `ChunkFileReader` scans on the caller's
//! thread and is the zero-thread reference for
//! [`PipelinedChunkReader`](crate::PipelinedChunkReader), through which every
//! library entry point reads.
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

    /// Pulls the next chunk, or `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Sources backed by files report I/O and parse failures.
    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, StreamError>;

    /// Pulls the next stream item — a chunk, or a [`StreamGap`] where a
    /// recovering source skipped unreadable input.
    ///
    /// The default forwards to [`next_chunk`](Self::next_chunk) and never
    /// produces gaps; recovering sources override it. Gap-aware consumers
    /// should prefer this over `next_chunk` so losses reach them instead of
    /// being skipped silently.
    ///
    /// # Errors
    ///
    /// Same conditions as [`next_chunk`](Self::next_chunk).
    fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        Ok(self.next_chunk()?.map(StreamItem::Chunk))
    }
}

/// [`EventSource`] adapter over an in-memory [`Trace`].
///
/// Windows are chosen so each chunk carries roughly `chunk_events` events
/// (exactly honouring the chunk contract: a window always closes on a
/// timestamp boundary, so dense windows may exceed the target).
#[derive(Debug)]
pub struct TraceChunks<'a> {
    trace: &'a Trace,
    chunk_events: usize,
    cursors: Vec<usize>,
    grant_cursor: usize,
    seq: u64,
}

impl<'a> TraceChunks<'a> {
    /// Creates a chunked view over `trace` targeting `chunk_events` events
    /// per chunk (clamped to at least 1).
    pub fn new(trace: &'a Trace, chunk_events: usize) -> Self {
        TraceChunks {
            trace,
            chunk_events: chunk_events.max(1),
            cursors: vec![0; trace.threads.len()],
            grant_cursor: 0,
            seq: 0,
        }
    }
}

impl EventSource for TraceChunks<'_> {
    fn meta(&self) -> &TraceMeta {
        &self.trace.meta
    }

    fn num_threads(&self) -> usize {
        self.trace.threads.len()
    }

    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, StreamError> {
        let active: Vec<usize> = self
            .trace
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| self.cursors[*i] < t.events.len())
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            // All events emitted; flush any stray grants in a final empty
            // chunk so a reassembled trace is complete.
            if self.grant_cursor < self.trace.lock_schedule.len() {
                let grants = self.trace.lock_schedule[self.grant_cursor..].to_vec();
                self.grant_cursor = self.trace.lock_schedule.len();
                let chunk = TraceChunk {
                    seq: self.seq,
                    window_end: Time::MAX,
                    spans: Vec::new(),
                    grants,
                };
                self.seq += 1;
                return Ok(Some(chunk));
            }
            return Ok(None);
        }

        // Aim the window so each active thread contributes about its share of
        // the per-chunk budget: the boundary is the earliest of the threads'
        // budget-th upcoming timestamps, which guarantees at least one
        // thread's whole budget fits while every thread stays within the
        // same time window.
        let budget = (self.chunk_events / active.len()).max(1);
        let mut window_end = Time::MAX;
        for &i in &active {
            let events = &self.trace.threads[i].events;
            let probe = (self.cursors[i] + budget - 1).min(events.len() - 1);
            window_end = window_end.min(events[probe].at);
        }

        let mut spans = Vec::new();
        for &i in &active {
            let events = &self.trace.threads[i].events;
            let start = self.cursors[i];
            let mut end = start;
            while end < events.len() && events[end].at <= window_end {
                end += 1;
            }
            self.cursors[i] = end;
            if end > start {
                spans.push(ThreadSpan {
                    thread: self.trace.threads[i].thread,
                    base_index: start,
                    events: events[start..end].to_vec(),
                });
            }
        }

        let grant_start = self.grant_cursor;
        while self.grant_cursor < self.trace.lock_schedule.len()
            && self.trace.lock_schedule[self.grant_cursor].at <= window_end
        {
            self.grant_cursor += 1;
        }
        let grants = self.trace.lock_schedule[grant_start..self.grant_cursor].to_vec();

        let chunk = TraceChunk {
            seq: self.seq,
            window_end,
            spans,
            grants,
        };
        self.seq += 1;
        Ok(Some(chunk))
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
/// logs are attributable. Under a non-[`Fail`](RecoveryPolicy::Fail) policy
/// the reader converts failures into [`StreamGap`]s instead: it validates
/// each chunk against the chunk contract before delivering it, skips bad
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
    /// Per-thread count of events delivered, for contiguity validation.
    next_index: Vec<usize>,
    /// Threads whose next span may jump forward (set after a gap).
    resync: Vec<bool>,
    /// Window of the last delivered non-empty chunk.
    last_window_end: Option<Time>,
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
            next_index: vec![0; num_threads],
            resync: vec![false; num_threads],
            last_window_end: None,
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

    /// Total events known lost across all recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.gaps.iter().map(|g| g.events_lost).sum()
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

    /// Records a gap at the given location and marks every thread for
    /// forward resynchronization.
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
        for flag in &mut self.resync {
            *flag = true;
        }
        gap
    }

    /// Checks one parsed chunk against the chunk contract: advancing window,
    /// ascending in-range spans, per-thread contiguity (allowing a forward
    /// jump right after a gap), and every event inside the window in
    /// non-decreasing order. Read-only; [`admit_chunk`](Self::admit_chunk)
    /// commits the state updates once the chunk is accepted.
    fn validate_chunk(&self, chunk: &TraceChunk) -> Result<(), StreamError> {
        if let Some(prev) = self.last_window_end {
            if chunk.window_end <= prev && chunk.num_events() > 0 {
                return Err(StreamError::Format(format!(
                    "chunk {} window {} does not advance past {}",
                    chunk.seq, chunk.window_end, prev
                )));
            }
        }
        let mut prev_thread: Option<ThreadId> = None;
        for span in &chunk.spans {
            if prev_thread.is_some_and(|p| span.thread <= p) {
                return Err(StreamError::Format(format!(
                    "chunk {} spans not in ascending thread order",
                    chunk.seq
                )));
            }
            prev_thread = Some(span.thread);
            let ti = span.thread.index();
            if ti >= self.header.num_threads {
                return Err(StreamError::Format(format!(
                    "span for out-of-range thread {}",
                    span.thread
                )));
            }
            if self.resync[ti] {
                if span.base_index < self.next_index[ti] {
                    return Err(StreamError::Format(format!(
                        "span for {} rewinds across a gap: base {} but {} events seen",
                        span.thread, span.base_index, self.next_index[ti]
                    )));
                }
            } else if span.base_index != self.next_index[ti] {
                return Err(StreamError::Format(format!(
                    "non-contiguous span for {}: base {} but {} events seen",
                    span.thread, span.base_index, self.next_index[ti]
                )));
            }
            let mut last = self.last_window_end;
            for (offset, te) in span.events.iter().enumerate() {
                if te.at > chunk.window_end {
                    return Err(StreamError::Format(format!(
                        "event {} of {} at {} is outside chunk {}'s window",
                        span.base_index + offset,
                        span.thread,
                        te.at,
                        chunk.seq
                    )));
                }
                if last.is_some_and(|p| te.at < p) {
                    return Err(StreamError::Trace(TraceError::NonMonotonicTime {
                        thread: span.thread,
                        event_index: span.base_index + offset,
                    }));
                }
                // Events of the first span position must additionally clear
                // the previous window: `last` starts at the window boundary
                // (inclusive is fine — the strict check lives in the
                // detector, which knows the exact previous window).
                last = Some(te.at);
            }
        }
        Ok(())
    }

    /// Commits the reader-side bookkeeping for an accepted chunk.
    fn admit_chunk(&mut self, chunk: &TraceChunk) {
        for span in &chunk.spans {
            let ti = span.thread.index();
            self.next_index[ti] = span.base_index + span.events.len();
            self.resync[ti] = false;
        }
        self.last_window_end = Some(chunk.window_end);
        self.chunks_seen += 1;
        self.events_seen += chunk.num_events() as u64;
    }

    /// Reads one record, applying the recovery policy. Returns `Ok(None)`
    /// only at a clean end of stream.
    fn read_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        if self.done {
            return Ok(None);
        }
        {
            let Some(raw) = self.scanner.next_record() else {
                let line_no = self.line_no + 1;
                let line_offset = self.offset;
                let cause = StreamError::Format("chunk file ended without a trailer record".into());
                return match self.policy {
                    RecoveryPolicy::Fail => Err(self.locate(line_no, line_offset, cause)),
                    _ => {
                        self.done = true;
                        Ok(Some(StreamItem::Gap(self.record_gap(
                            line_no,
                            line_offset,
                            0,
                            cause,
                        ))))
                    }
                };
            };
            let line_no = raw.line;
            let line_offset = raw.offset;
            self.line_no = raw.line;
            self.offset = raw.offset + raw.bytes;
            let record = match raw.record {
                Ok(r) => r,
                Err(cause) => {
                    // The stream position is unknowable after a read error,
                    // so even recovering policies end the stream on I/O
                    // failures; parse failures resynchronize on the next
                    // record boundary under SkipChunk.
                    let ends_stream = matches!(cause.root_cause(), StreamError::Io(_))
                        || !matches!(self.policy, RecoveryPolicy::SkipChunk);
                    match self.policy {
                        RecoveryPolicy::Fail => {
                            return Err(self.locate(line_no, line_offset, cause));
                        }
                        RecoveryPolicy::SkipChunk | RecoveryPolicy::SkipStream => {
                            if ends_stream {
                                self.done = true;
                            }
                            return Ok(Some(StreamItem::Gap(self.record_gap(
                                line_no,
                                line_offset,
                                0,
                                cause,
                            ))));
                        }
                    }
                }
            };
            let (cause, events_lost) = match record {
                ChunkFileRecord::Header(_) => (
                    StreamError::Format(format!("unexpected second header at line {line_no}")),
                    0u64,
                ),
                ChunkFileRecord::Chunk(chunk) => match self.validate_chunk(&chunk) {
                    Ok(()) => {
                        self.admit_chunk(&chunk);
                        return Ok(Some(StreamItem::Chunk(chunk)));
                    }
                    Err(cause) => {
                        let lost = chunk.num_events() as u64;
                        (cause, lost)
                    }
                },
                ChunkFileRecord::Trailer(trailer) => {
                    return self.finish_at_trailer(trailer, line_no, line_offset);
                }
            };
            match self.policy {
                RecoveryPolicy::Fail => Err(self.locate(line_no, line_offset, cause)),
                RecoveryPolicy::SkipChunk => Ok(Some(StreamItem::Gap(self.record_gap(
                    line_no,
                    line_offset,
                    events_lost,
                    cause,
                )))),
                RecoveryPolicy::SkipStream => {
                    self.done = true;
                    Ok(Some(StreamItem::Gap(self.record_gap(
                        line_no,
                        line_offset,
                        events_lost,
                        cause,
                    ))))
                }
            }
        }
    }

    /// Handles the trailer record: verifies the integrity counts, and under
    /// a recovering policy reconciles the true event loss (the trailer is
    /// the writer's ground truth) into one final accounting gap.
    fn finish_at_trailer(
        &mut self,
        trailer: ChunkFileTrailer,
        line_no: usize,
        line_offset: u64,
    ) -> Result<Option<StreamItem>, StreamError> {
        let counts_match = trailer.chunks == self.chunks_seen && trailer.events == self.events_seen;
        if counts_match {
            self.trailer = Some(trailer);
            self.done = true;
            return Ok(None);
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
        self.done = true;
        if residual > 0 || self.gaps.is_empty() {
            return Ok(Some(StreamItem::Gap(self.record_gap(
                line_no,
                line_offset,
                residual,
                cause,
            ))));
        }
        Ok(None)
    }
}

impl EventSource for ChunkFileReader {
    fn meta(&self) -> &TraceMeta {
        &self.header.meta
    }

    fn num_threads(&self) -> usize {
        self.header.num_threads
    }

    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, StreamError> {
        // Gap-unaware consumers skip over gaps; the losses stay queryable
        // through [`gaps`](Self::gaps).
        loop {
            match self.read_item()? {
                Some(StreamItem::Chunk(chunk)) => return Ok(Some(chunk)),
                Some(StreamItem::Gap(_)) => continue,
                None => return Ok(None),
            }
        }
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

/// Reads a chunked trace file back into a full in-memory [`Trace`].
///
/// This is the inverse of `perfplay-record`'s `spill_trace`: useful for
/// tests and for feeding spilled traces to consumers that have not been
/// converted to streaming yet.
///
/// # Errors
///
/// Propagates reader errors and reports spans that are not contiguous.
pub fn read_chunked_trace(path: impl AsRef<Path>) -> Result<Trace, StreamError> {
    let mut reader = ChunkFileReader::open(path)?;
    let mut trace = Trace::new(reader.meta().clone(), reader.num_threads());
    trace.sites = reader.sites().clone();
    while let Some(chunk) = reader.next_chunk()? {
        for span in chunk.spans {
            let Some(tt) = trace.threads.get_mut(span.thread.index()) else {
                return Err(StreamError::Format(format!(
                    "span for out-of-range thread {}",
                    span.thread
                )));
            };
            if span.base_index != tt.events.len() {
                return Err(StreamError::Format(format!(
                    "non-contiguous span for {}: base {} but {} events seen",
                    span.thread,
                    span.base_index,
                    tt.events.len()
                )));
            }
            for te in span.events {
                // Pre-check monotonicity: `ThreadTrace::push` debug-asserts
                // it, and an untrusted file must yield a typed error in every
                // build profile, not a panic.
                if tt.events.last().is_some_and(|prev| te.at < prev.at) {
                    return Err(StreamError::Trace(TraceError::NonMonotonicTime {
                        thread: span.thread,
                        event_index: tt.events.len(),
                    }));
                }
                tt.push(te.at, te.event);
            }
        }
        trace.lock_schedule.extend(chunk.grants);
    }
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
    fn chunk_records_roundtrip_through_serde() {
        let trace = two_thread_trace();
        let mut source = TraceChunks::new(&trace, 2);
        let chunk = source.next_chunk().unwrap().unwrap();
        let json = serde_json::to_string(&ChunkFileRecord::Chunk(chunk.clone())).unwrap();
        let back: ChunkFileRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ChunkFileRecord::Chunk(chunk));
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
