//! Chunked trace spilling: writing a recording to disk as time-windowed
//! chunks.
//!
//! [`spill_trace`] is the producing half of the streaming ingestion path:
//! it writes the chunks [`TraceChunks`] cuts from an in-memory [`Trace`]
//! to a chunk file — JSON-lines or binary PBIN, selected per
//! [`ChunkFormat`] — so a file carries the same chunk sequence as the
//! in-memory stream of its trace. The resulting file honours the chunk
//! contract documented in `perfplay_trace::stream` and is consumed by
//! [`PipelinedChunkReader`](perfplay_trace::PipelinedChunkReader) or
//! reassembled with
//! [`read_chunked_trace`](perfplay_trace::read_chunked_trace).
//!
//! [`convert_chunk_file`] translates an existing chunk file between the two
//! formats record by record, reading it through the pipelined scanner and
//! holding only the records in flight in memory.

use std::io::Write;
use std::path::Path;

use perfplay_trace::{
    ChunkFileHeader, ChunkFileRecord, ChunkFileTrailer, ChunkFormat, EventSource, RawChunkRecords,
    StreamError, Trace, TraceChunks,
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

/// Spills a complete in-memory trace to `path` as a chunked trace file. The
/// format is picked by the path's extension; the chunks are those of
/// [`TraceChunks`], as in [`spill_trace_with_format`].
///
/// # Errors
///
/// As [`spill_trace_with_format`].
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
/// The file holds the format's prelude, the header, the chunks of
/// [`TraceChunks::new(trace, chunk_events)`](TraceChunks::new) (whose
/// documentation states where windows end) and the trailer.
///
/// # Errors
///
/// Fails with [`std::io::ErrorKind::InvalidData`], before creating the
/// file, if [`Trace::check_order`] rejects the trace (a thread at the wrong
/// index, or timestamps going backwards): no window could honour the chunk
/// contract then. Unbalanced locking and schedule mismatches are left to
/// `perfplay lint`, which reports them on the spilled file. Propagates
/// write failures.
pub fn spill_trace_with_format(
    trace: &Trace,
    path: impl AsRef<Path>,
    chunk_events: usize,
    format: ChunkFormat,
) -> std::io::Result<ChunkedWriteSummary> {
    trace.check_order().map_err(invalid_data)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // One record's bytes at a time; the prelude goes out with the header.
    let mut scratch = format.prelude();
    let mut bytes = 0;
    let mut write = |record: &ChunkFileRecord| -> std::io::Result<()> {
        format
            .encode_record(record, &mut scratch)
            .map_err(invalid_data)?;
        out.write_all(&scratch)?;
        bytes += scratch.len() as u64;
        scratch.clear();
        Ok(())
    };
    write(&ChunkFileRecord::Header(ChunkFileHeader {
        meta: trace.meta.clone(),
        num_threads: trace.num_threads(),
        sites: trace.sites.clone(),
    }))?;
    let (mut chunks, mut events) = (0, 0);
    let mut source = TraceChunks::new(trace, chunk_events);
    while let Some(chunk) = source.next_chunk().map_err(invalid_data)? {
        chunks += 1;
        events += chunk.num_events() as u64;
        write(&ChunkFileRecord::Chunk(chunk))?;
    }
    write(&ChunkFileRecord::Trailer(ChunkFileTrailer {
        total_time: trace.total_time,
        finish_times: trace.threads.iter().map(|t| t.finish_time).collect(),
        chunks,
        events,
    }))?;
    out.flush()?;
    Ok(ChunkedWriteSummary {
        chunks,
        events,
        bytes,
    })
}

fn invalid_data(e: impl std::error::Error + Send + Sync + 'static) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
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
    use perfplay_trace::{read_chunked_trace, ChunkFileReader, ThreadId, Time, TraceError};

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
        // Tiny windows: the spill must cut many windows rather than one
        // trace-sized final chunk, and no tie may straddle a boundary.
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
        // Regression: a thread with zero events has no last-visited
        // timestamp, and once blocked every window, so the whole trace
        // landed in the final chunk.
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
    fn malformed_traces_are_rejected_without_panicking() {
        let path = temp_path("malformed");
        let rejection = |trace: &Trace| {
            let err = spill_trace(trace, &path, 4).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            err.into_inner()
                .and_then(|e| e.downcast::<TraceError>().ok())
                .map(|e| *e)
        };

        let mut backwards = demo_trace();
        let events = &mut backwards.threads[0].events;
        events[3].at = Time::from_nanos(events[2].at.as_nanos() - 1);
        assert_eq!(
            rejection(&backwards),
            Some(TraceError::NonMonotonicTime {
                thread: ThreadId::new(0),
                event_index: 3,
            })
        );

        let mut misnumbered = demo_trace();
        misnumbered.threads[1].thread = ThreadId::new(5);
        assert_eq!(
            rejection(&misnumbered),
            Some(TraceError::MisnumberedThread { index: 1 })
        );
        assert!(!path.exists(), "a rejected trace creates no file");
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
