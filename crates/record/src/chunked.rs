//! Chunked trace spilling: writing a recording to disk as time-windowed
//! chunks while it happens.
//!
//! [`ChunkedWriter`] is the producing half of the streaming ingestion path:
//! it accepts events thread by thread (in per-thread program order, the only
//! order a recorder naturally has) and emits [`TraceChunk`]s to a chunk file
//! — JSON-lines or binary PBIN, selected per [`ChunkFormat`] — as soon as a
//! time window is *complete*, i.e. once every still-active thread has
//! progressed past the window, so no earlier event can arrive. The resulting
//! file honours the chunk contract documented in `perfplay_trace::stream`
//! and is consumed by [`ChunkFileReader`](perfplay_trace::ChunkFileReader)
//! or reassembled with
//! [`read_chunked_trace`](perfplay_trace::read_chunked_trace).
//!
//! The writer's resident state is the set of events of the currently
//! incomplete window — bounded as long as threads make roughly comparable
//! time progress, independent of total trace length.
//!
//! [`convert_chunk_file`] translates an existing chunk file between the two
//! formats record by record, reading it through the pipelined scanner and
//! holding only the records in flight in memory.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;

use perfplay_trace::{
    ChunkFileHeader, ChunkFileRecord, ChunkFileTrailer, ChunkFormat, Event, LockGrant,
    RawChunkRecords, SiteTable, StreamError, ThreadId, ThreadSpan, Time, TimedEvent, Trace,
    TraceChunk, TraceMeta,
};

/// Summary of one finished chunked spill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedWriteSummary {
    /// Chunks written.
    pub chunks: u64,
    /// Events written.
    pub events: u64,
    /// Bytes written to the file.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct ThreadBuffer {
    /// Index (in the thread's full stream) of `events.front()`.
    base_index: usize,
    events: VecDeque<TimedEvent>,
    /// Timestamp of the latest pushed event.
    latest: Option<Time>,
    finished: bool,
}

/// Incremental writer of a chunked trace file.
///
/// Events must be pushed in per-thread program order (non-decreasing
/// timestamps); grants in ascending grant time. Call
/// [`finish`](Self::finish) to flush the final window and write the trailer
/// — dropping the writer without finishing leaves a truncated file that the
/// reader will reject.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    out: W,
    format: ChunkFormat,
    /// Reused encode buffer: one record's bytes, whichever the format.
    scratch: Vec<u8>,
    chunk_events: usize,
    threads: Vec<ThreadBuffer>,
    grants: VecDeque<LockGrant>,
    buffered: usize,
    seq: u64,
    events_written: u64,
    bytes_written: u64,
    last_window_end: Option<Time>,
}

impl ChunkedWriter<std::io::BufWriter<std::fs::File>> {
    /// Creates a chunked trace file at `path` and writes its header. The
    /// format is picked by the path's extension (`.pbin` → binary, anything
    /// else → JSON-lines).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created or the header cannot be written.
    pub fn create(
        path: impl AsRef<Path>,
        meta: TraceMeta,
        num_threads: usize,
        sites: SiteTable,
        chunk_events: usize,
    ) -> std::io::Result<Self> {
        let format = ChunkFormat::for_path(&path);
        Self::create_with_format(path, meta, num_threads, sites, chunk_events, format)
    }

    /// Creates a chunked trace file at `path` in an explicit [`ChunkFormat`]
    /// and writes its header.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created or the header cannot be written.
    pub fn create_with_format(
        path: impl AsRef<Path>,
        meta: TraceMeta,
        num_threads: usize,
        sites: SiteTable,
        chunk_events: usize,
        format: ChunkFormat,
    ) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        ChunkedWriter::with_format(
            std::io::BufWriter::new(file),
            meta,
            num_threads,
            sites,
            chunk_events,
            format,
        )
    }
}

impl<W: Write> ChunkedWriter<W> {
    /// Wraps an arbitrary writer, emitting the header record immediately in
    /// JSON-lines (the historical default for raw writers; use
    /// [`with_format`](Self::with_format) to pick).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn new(
        out: W,
        meta: TraceMeta,
        num_threads: usize,
        sites: SiteTable,
        chunk_events: usize,
    ) -> std::io::Result<Self> {
        Self::with_format(
            out,
            meta,
            num_threads,
            sites,
            chunk_events,
            ChunkFormat::Json,
        )
    }

    /// Wraps an arbitrary writer with an explicit [`ChunkFormat`], emitting
    /// the file prelude (binary only) and header record immediately.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn with_format(
        out: W,
        meta: TraceMeta,
        num_threads: usize,
        sites: SiteTable,
        chunk_events: usize,
        format: ChunkFormat,
    ) -> std::io::Result<Self> {
        let mut writer = ChunkedWriter {
            out,
            format,
            scratch: Vec::new(),
            chunk_events: chunk_events.max(1),
            threads: (0..num_threads).map(|_| ThreadBuffer::default()).collect(),
            grants: VecDeque::new(),
            buffered: 0,
            seq: 0,
            events_written: 0,
            bytes_written: 0,
            last_window_end: None,
        };
        let prelude = format.prelude();
        if !prelude.is_empty() {
            writer.bytes_written += prelude.len() as u64;
            writer.out.write_all(&prelude)?;
        }
        writer.write_record(&ChunkFileRecord::Header(ChunkFileHeader {
            meta,
            num_threads,
            sites,
        }))?;
        Ok(writer)
    }

    /// The on-disk format being written.
    pub fn format(&self) -> ChunkFormat {
        self.format
    }

    fn write_record(&mut self, record: &ChunkFileRecord) -> std::io::Result<()> {
        self.scratch.clear();
        self.format
            .encode_record(record, &mut self.scratch)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.bytes_written += self.scratch.len() as u64;
        self.out.write_all(&self.scratch)
    }

    /// Appends one event of a thread. Timestamps must be non-decreasing per
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates write failures from window flushes.
    pub fn push_event(&mut self, thread: ThreadId, at: Time, event: Event) -> std::io::Result<()> {
        let buffer = &mut self.threads[thread.index()];
        assert!(
            buffer.latest.is_none_or(|l| at >= l),
            "non-monotonic push on {thread}: {at} after {:?}",
            buffer.latest
        );
        assert!(!buffer.finished, "push after finish_thread on {thread}");
        buffer.latest = Some(at);
        buffer.events.push_back(TimedEvent::new(at, event));
        self.buffered += 1;
        if self.buffered >= self.chunk_events {
            self.flush_complete_window()?;
        }
        Ok(())
    }

    /// Appends a lock grant (ascending grant-time order).
    pub fn push_grant(&mut self, grant: LockGrant) {
        self.grants.push_back(grant);
    }

    /// Marks a thread as finished: it will push no more events and stops
    /// constraining window completion.
    pub fn finish_thread(&mut self, thread: ThreadId) {
        self.threads[thread.index()].finished = true;
    }

    /// Flushes the largest window that can no longer receive events: every
    /// unfinished thread has advanced past it. Returns without writing when
    /// no such window exists yet.
    fn flush_complete_window(&mut self) -> std::io::Result<()> {
        // The window must end strictly before the slowest active thread's
        // latest timestamp: that thread may still push more events *at* its
        // latest time (ties are allowed), and ties must never straddle a
        // chunk boundary.
        let mut bound: Option<Time> = None;
        for buffer in &self.threads {
            if buffer.finished {
                continue;
            }
            let Some(latest) = buffer.latest else {
                return Ok(()); // an active thread has not started yet
            };
            bound = Some(bound.map_or(latest, |b: Time| b.min(latest)));
        }
        let window_end = match bound {
            // All threads finished: flush everything that remains.
            None => self
                .threads
                .iter()
                .filter_map(|b| b.events.back().map(|e| e.at))
                .max(),
            Some(latest) => Some(Time::from_nanos(latest.as_nanos().saturating_sub(1))),
        };
        let Some(window_end) = window_end else {
            return Ok(()); // nothing buffered at all
        };
        if self.last_window_end.is_some_and(|prev| window_end <= prev) {
            return Ok(());
        }
        self.emit_window(window_end)
    }

    fn emit_window(&mut self, window_end: Time) -> std::io::Result<()> {
        let mut spans = Vec::new();
        for (ti, buffer) in self.threads.iter_mut().enumerate() {
            let take = buffer
                .events
                .iter()
                .take_while(|e| e.at <= window_end)
                .count();
            if take == 0 {
                continue;
            }
            let events: Vec<TimedEvent> = buffer.events.drain(..take).collect();
            let base_index = buffer.base_index;
            buffer.base_index += take;
            self.buffered -= take;
            spans.push(ThreadSpan {
                thread: ThreadId::new(ti as u32),
                base_index,
                events,
            });
        }
        let mut grants = Vec::new();
        while let Some(g) = self.grants.front() {
            if g.at > window_end {
                break;
            }
            grants.extend(self.grants.pop_front());
        }
        if spans.is_empty() && grants.is_empty() {
            return Ok(());
        }
        let chunk = TraceChunk {
            seq: self.seq,
            window_end,
            spans,
            grants,
        };
        self.seq += 1;
        self.events_written += chunk.num_events() as u64;
        self.last_window_end = Some(window_end);
        self.write_record(&ChunkFileRecord::Chunk(chunk))
    }

    /// Flushes everything still buffered, writes the trailer and returns the
    /// spill summary.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(
        mut self,
        total_time: Time,
        finish_times: Vec<Time>,
    ) -> std::io::Result<ChunkedWriteSummary> {
        for buffer in &mut self.threads {
            buffer.finished = true;
        }
        if self.buffered > 0 || !self.grants.is_empty() {
            let window_end = self
                .threads
                .iter()
                .filter_map(|b| b.events.back().map(|e| e.at))
                .max()
                .unwrap_or(Time::MAX)
                .max(self.grants.back().map(|g| g.at).unwrap_or(Time::ZERO));
            self.emit_window(window_end)?;
        }
        let trailer = ChunkFileTrailer {
            total_time,
            finish_times,
            chunks: self.seq,
            events: self.events_written,
        };
        self.write_record(&ChunkFileRecord::Trailer(trailer))?;
        self.out.flush()?;
        Ok(ChunkedWriteSummary {
            chunks: self.seq,
            events: self.events_written,
            bytes: self.bytes_written,
        })
    }
}

/// Spills a complete in-memory trace to `path` as a chunked trace file,
/// streaming it through the windowing logic (events interleaved across
/// threads in time order, so windows flush as they complete). The format is
/// picked by the path's extension.
///
/// # Errors
///
/// Propagates write failures.
pub fn spill_trace(
    trace: &Trace,
    path: impl AsRef<Path>,
    chunk_events: usize,
) -> std::io::Result<ChunkedWriteSummary> {
    let format = ChunkFormat::for_path(&path);
    spill_trace_with_format(trace, path, chunk_events, format)
}

/// [`spill_trace`] with an explicit [`ChunkFormat`] instead of the
/// extension-based pick.
///
/// # Errors
///
/// Propagates write failures.
pub fn spill_trace_with_format(
    trace: &Trace,
    path: impl AsRef<Path>,
    chunk_events: usize,
    format: ChunkFormat,
) -> std::io::Result<ChunkedWriteSummary> {
    let mut writer = ChunkedWriter::create_with_format(
        path,
        trace.meta.clone(),
        trace.num_threads(),
        trace.sites.clone(),
        chunk_events,
        format,
    )?;
    // Threads with no events would otherwise block window completion
    // forever (their next timestamp is unknowable), degrading the writer to
    // one trace-sized window at finish().
    for tt in &trace.threads {
        if tt.events.is_empty() {
            writer.finish_thread(tt.thread);
        }
    }
    // Feed events in global time order (k-way merge over the per-thread
    // streams) so complete windows flush incrementally instead of
    // accumulating whole threads. Grants are interleaved at their own
    // timestamps so each lands in the chunk whose window covers it, exactly
    // like the in-memory `TraceChunks` adapter.
    let mut cursors = vec![0usize; trace.num_threads()];
    let mut grant_cursor = 0usize;
    loop {
        let mut next: Option<(Time, usize)> = None;
        for (ti, tt) in trace.threads.iter().enumerate() {
            if let Some(te) = tt.events.get(cursors[ti]) {
                if next.is_none_or(|(t, _)| te.at < t) {
                    next = Some((te.at, ti));
                }
            }
        }
        let Some((at, ti)) = next else { break };
        while grant_cursor < trace.lock_schedule.len() && trace.lock_schedule[grant_cursor].at <= at
        {
            writer.push_grant(trace.lock_schedule[grant_cursor]);
            grant_cursor += 1;
        }
        let te = &trace.threads[ti].events[cursors[ti]];
        writer.push_event(trace.threads[ti].thread, te.at, te.event.clone())?;
        cursors[ti] += 1;
        if cursors[ti] == trace.threads[ti].events.len() {
            writer.finish_thread(trace.threads[ti].thread);
        }
    }
    for grant in &trace.lock_schedule[grant_cursor..] {
        writer.push_grant(*grant);
    }
    writer.finish(
        trace.total_time,
        trace.threads.iter().map(|t| t.finish_time).collect(),
    )
}

/// Summary of one chunk-file format conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertSummary {
    /// Source format (autodetected by magic bytes).
    pub from: ChunkFormat,
    /// Destination format.
    pub to: ChunkFormat,
    /// Records translated (header + chunks + trailer).
    pub records: u64,
    /// Chunk records among them.
    pub chunks: u64,
    /// Events carried by the translated chunks.
    pub events: u64,
    /// Bytes read from the source file.
    pub bytes_in: u64,
    /// Bytes written to the destination file.
    pub bytes_out: u64,
}

/// Translates a chunk file between formats, record by record, so the
/// conversion is chunk-bounded no matter how large the file. The source is
/// read through the pipelined scanner
/// ([`RawChunkRecords::open_pipelined`], decode pool sized by
/// [`perfplay_trace::default_decode_workers`]): source framing and decoding
/// overlap with re-encoding and writing. The source format is autodetected
/// by magic bytes; `to` picks the destination format (`None` → by `dst`'s
/// extension). Records pass through verbatim — a converted file carries the
/// identical record stream.
///
/// # Errors
///
/// Fails on the first unreadable or unparseable source record (conversion
/// must not silently drop data; recover a corrupt file through
/// [`PipelinedChunkReader`](perfplay_trace::PipelinedChunkReader) first), on
/// any write failure and if a scanner thread cannot be spawned.
pub fn convert_chunk_file(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    to: Option<ChunkFormat>,
) -> Result<ConvertSummary, StreamError> {
    let src_path = src.as_ref().display().to_string();
    let records = RawChunkRecords::open_pipelined(&src, None, 0)?;
    let from = records.format();
    let to = to.unwrap_or_else(|| ChunkFormat::for_path(&dst));
    let file = std::fs::File::create(&dst).map_err(StreamError::from)?;
    let mut out = std::io::BufWriter::new(file);
    let mut summary = ConvertSummary {
        from,
        to,
        records: 0,
        chunks: 0,
        events: 0,
        bytes_in: 0,
        bytes_out: 0,
    };
    let prelude = to.prelude();
    out.write_all(&prelude).map_err(StreamError::from)?;
    summary.bytes_out += prelude.len() as u64;
    let mut scratch = Vec::new();
    for raw in records {
        let record = raw.record.map_err(|e| StreamError::At {
            path: src_path.clone(),
            line: raw.line,
            offset: raw.offset,
            source: Box::new(e),
        })?;
        if let ChunkFileRecord::Chunk(chunk) = &record {
            summary.chunks += 1;
            summary.events += chunk.num_events() as u64;
        }
        summary.records += 1;
        summary.bytes_in += raw.bytes;
        scratch.clear();
        to.encode_record(&record, &mut scratch)?;
        out.write_all(&scratch).map_err(StreamError::from)?;
        summary.bytes_out += scratch.len() as u64;
    }
    out.flush().map_err(StreamError::from)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use perfplay_program::ProgramBuilder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::{read_chunked_trace, ChunkFileReader, EventSource};

    fn demo_trace() -> Trace {
        let mut b = ProgramBuilder::new("chunked-demo");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("c.c", "work", 3);
        for i in 0..3 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(5, |l| {
                    l.compute_ns(100);
                    l.locked(lock, site, |cs| {
                        cs.write_add(x, 1);
                    });
                    l.compute_ns(60);
                });
            });
        }
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("perfplay-chunked-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn spill_and_reassemble_roundtrips_the_trace() {
        let trace = demo_trace();
        let path = temp_path("roundtrip");
        for chunk_events in [1, 7, 64, 100_000] {
            let summary = spill_trace(&trace, &path, chunk_events).unwrap();
            assert_eq!(summary.events as usize, trace.num_events());
            assert!(summary.chunks >= 1);
            assert!(summary.bytes > 0);
            let back = read_chunked_trace(&path).unwrap();
            assert_eq!(back, trace);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_spill_flushes_before_finish() {
        let trace = demo_trace();
        let path = temp_path("incremental");
        // Tiny windows: chunks must be written while events are still being
        // pushed, not hoarded until finish().
        let summary = spill_trace(&trace, &path, 8).unwrap();
        assert!(
            summary.chunks > 3,
            "expected multiple windows, got {}",
            summary.chunks
        );
        let mut reader = ChunkFileReader::open(&path).unwrap();
        let mut prev: Option<Time> = None;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            if let Some(p) = prev {
                assert!(chunk.window_end > p);
            }
            for span in &chunk.spans {
                for te in &span.events {
                    assert!(te.at <= chunk.window_end);
                    if let Some(p) = prev {
                        assert!(te.at > p, "tie straddled a window boundary");
                    }
                }
            }
            prev = Some(chunk.window_end);
        }
        assert_eq!(
            reader.trailer().unwrap().events as usize,
            trace.num_events()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grants_land_in_their_own_windows() {
        // Regression: grants used to be queued only after every event, so
        // intermediate chunks carried none and the final chunk carried the
        // whole schedule — diverging from the TraceChunks adapter.
        let trace = demo_trace();
        assert!(trace.lock_schedule.len() > 4);
        let path = temp_path("grants");
        let summary = spill_trace(&trace, &path, 16).unwrap();
        assert!(summary.chunks > 2);
        let mut reader = ChunkFileReader::open(&path).unwrap();
        let mut chunks_with_grants = 0;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            for g in &chunk.grants {
                assert!(g.at <= chunk.window_end, "grant after its window");
            }
            if !chunk.grants.is_empty() {
                chunks_with_grants += 1;
            }
        }
        assert!(
            chunks_with_grants > 1,
            "grants must be spread across windows, not hoarded in the last"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_threads_do_not_block_window_flushing() {
        // Regression: a thread with zero events kept `latest == None`
        // forever, so no window could complete and the writer buffered the
        // whole trace until finish().
        let mut trace = demo_trace();
        let idle = perfplay_trace::ThreadTrace::new(ThreadId::new(trace.num_threads() as u32));
        trace.threads.push(idle);
        trace.meta.num_threads += 1;
        let path = temp_path("idlethread");
        let summary = spill_trace(&trace, &path, 8).unwrap();
        assert!(
            summary.chunks > 3,
            "windows must flush incrementally despite the idle thread, got {} chunks",
            summary.chunks
        );
        let back = read_chunked_trace(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pbin_spill_and_reassemble_roundtrips_the_trace() {
        let trace = demo_trace();
        let path = temp_path("pbin-roundtrip").with_extension("pbin");
        for chunk_events in [1, 7, 64, 100_000] {
            let summary =
                spill_trace_with_format(&trace, &path, chunk_events, ChunkFormat::Pbin).unwrap();
            assert_eq!(summary.events as usize, trace.num_events());
            assert_eq!(
                summary.bytes,
                std::fs::metadata(&path).unwrap().len(),
                "summary bytes must equal the file size"
            );
            let reader = ChunkFileReader::open(&path).unwrap();
            assert_eq!(reader.format(), ChunkFormat::Pbin);
            let back = read_chunked_trace(&path).unwrap();
            assert_eq!(back, trace);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn extension_picks_the_format_and_magic_detection_overrides_it() {
        let trace = demo_trace();
        // A `.pbin` extension selects the binary writer...
        let pbin_path = temp_path("ext").with_extension("pbin");
        spill_trace(&trace, &pbin_path, 32).unwrap();
        let head = std::fs::read(&pbin_path).unwrap();
        assert_eq!(&head[0..4], b"PBIN");
        // ...and a binary file with a misleading extension is still read
        // correctly, because readers detect by magic, not name.
        let disguised = temp_path("disguised").with_extension("jsonl");
        std::fs::copy(&pbin_path, &disguised).unwrap();
        let back = read_chunked_trace(&disguised).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&pbin_path).ok();
        std::fs::remove_file(&disguised).ok();
    }

    #[test]
    fn converted_files_carry_the_identical_record_stream() {
        let trace = demo_trace();
        let json_path = temp_path("convert-src").with_extension("jsonl");
        spill_trace(&trace, &json_path, 16).unwrap();
        let golden: Vec<ChunkFileRecord> = RawChunkRecords::open(&json_path)
            .unwrap()
            .map(|r| r.record.unwrap())
            .collect();

        // json -> pbin -> json: every hop preserves the record stream.
        let pbin_path = temp_path("convert-mid").with_extension("pbin");
        let s1 = convert_chunk_file(&json_path, &pbin_path, None).unwrap();
        assert_eq!((s1.from, s1.to), (ChunkFormat::Json, ChunkFormat::Pbin));
        assert_eq!(s1.events as usize, trace.num_events());
        assert_eq!(s1.bytes_out, std::fs::metadata(&pbin_path).unwrap().len());
        let mid: Vec<ChunkFileRecord> = RawChunkRecords::open(&pbin_path)
            .unwrap()
            .map(|r| r.record.unwrap())
            .collect();
        assert_eq!(mid, golden);

        let back_path = temp_path("convert-back").with_extension("jsonl");
        let s2 = convert_chunk_file(&pbin_path, &back_path, None).unwrap();
        assert_eq!((s2.from, s2.to), (ChunkFormat::Pbin, ChunkFormat::Json));
        let back: Vec<ChunkFileRecord> = RawChunkRecords::open(&back_path)
            .unwrap()
            .map(|r| r.record.unwrap())
            .collect();
        assert_eq!(back, golden);
        assert_eq!(read_chunked_trace(&back_path).unwrap(), trace);

        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&pbin_path).ok();
        std::fs::remove_file(&back_path).ok();
    }

    #[test]
    fn convert_fails_on_corrupt_source_with_located_error() {
        let trace = demo_trace();
        let path = temp_path("convert-corrupt").with_extension("jsonl");
        spill_trace(&trace, &path, 16).unwrap();
        let mut content = std::fs::read_to_string(&path).unwrap();
        let mid = content.len() / 2;
        content.replace_range(mid..mid + 1, "\u{1}");
        std::fs::write(&path, content).unwrap();
        let out = temp_path("convert-corrupt-out").with_extension("pbin");
        let err = convert_chunk_file(&path, &out, None).unwrap_err();
        assert!(
            matches!(err, StreamError::At { .. }),
            "conversion error must carry file coordinates, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn pbin_reader_rejects_truncated_files() {
        let trace = demo_trace();
        let path = temp_path("pbin-truncated").with_extension("pbin");
        spill_trace(&trace, &path, 16).unwrap();
        let content = std::fs::read(&path).unwrap();
        // Drop the final frame (the trailer) entirely.
        let marker = [0xF7u8, 0x50, 0x42, 0xF7];
        let last_frame = (0..content.len() - 3)
            .rev()
            .find(|&i| content[i..i + 4] == marker)
            .unwrap();
        std::fs::write(&path, &content[..last_frame]).unwrap();
        let mut reader = ChunkFileReader::open(&path).unwrap();
        let result = loop {
            match reader.next_chunk() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err(), "truncated pbin file must not end cleanly");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_truncated_files() {
        let trace = demo_trace();
        let path = temp_path("truncated");
        spill_trace(&trace, &path, 16).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let truncated: Vec<&str> = content.lines().collect();
        let without_trailer = truncated[..truncated.len() - 1].join("\n");
        std::fs::write(&path, without_trailer).unwrap();
        let mut reader = ChunkFileReader::open(&path).unwrap();
        let result = loop {
            match reader.next_chunk() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err(), "truncated file must not end cleanly");
        std::fs::remove_file(&path).ok();
    }
}
