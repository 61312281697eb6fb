//! Pipelined chunk-file ingestion: overlapped framing, decode, and delivery.
//!
//! The inline scanner behind [`ChunkFileReader`] interleaves three kinds of
//! work on the caller's thread: reading bytes, finding record boundaries,
//! and deserializing payloads. On large traces the deserialization
//! dominates, so this module splits the work across threads:
//!
//! 1. a **framing** thread runs the shared framer
//!    ([`Framer::next_frame`]): frame marker and length for PBIN, line
//!    splitting for JSON-lines;
//! 2. a pool of **decode workers** runs the shared decode step
//!    ([`decode_frame`]) out of order, recycling payload buffers through an
//!    allocation-free round-trip channel;
//! 3. the consumer restores record order by sequence number over bounded
//!    channels and feeds the shared [`ChunkFileReader`] state machine, so
//!    gap accounting, recovery policies, and error locations are literally
//!    the same code as the inline path.
//!
//! The public face is [`PipelinedChunkReader`], the reader every library
//! entry point uses. It yields a bit-identical stream to
//! [`ChunkFileReader`] on well-formed, gapped, and fault-injected files.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::available_threads;
use crate::frame::{decode_frame, ends_scan, Frame, Framer};
use crate::pbin::ChunkFormat;
use crate::site::SiteTable;
use crate::stream::{
    ChunkFileReader, ChunkFileTrailer, EventSource, RawRecord, RecoveryPolicy, StreamError,
    StreamGap, StreamItem,
};
use crate::trace::TraceMeta;

/// Default size of the decode-worker pool: [`available_threads`], clamped
/// to `1..=8` — past that the workers contend on the ordered hand-off
/// instead of decoding.
pub fn default_decode_workers() -> usize {
    available_threads().clamp(1, 8)
}

/// One framed, undecoded record handed from the framing thread to a decode
/// worker.
#[derive(Debug)]
struct WorkItem {
    /// Dense stream sequence number assigned by the framing thread; the
    /// consumer restores delivery order by it.
    seq: u64,
    frame: Frame,
    /// The frame's payload, in a buffer the decode worker recycles back to
    /// the framing thread.
    buf: Vec<u8>,
}

/// One decoded record tagged with its stream position.
#[derive(Debug)]
struct Decoded {
    seq: u64,
    record: RawRecord,
}

/// Framing loop: walks the file with the shared framer and ships every
/// frame, framing failures included, to the decode pool in stream order.
/// Past a record that ends the scan (a JSON line that is not UTF-8 is only
/// found by a decode worker) the consumer drops whatever this loop read
/// ahead, so those records are never observable.
fn run_framer(mut framer: Framer, work: SyncSender<WorkItem>, recycle: Receiver<Vec<u8>>) {
    for seq in 0.. {
        let mut buf = recycle.try_recv().unwrap_or_default();
        let Some(frame) = framer.next_frame(&mut buf) else {
            return;
        };
        if work.send(WorkItem { seq, frame, buf }).is_err() {
            return;
        }
    }
}

/// Decode-worker loop: pulls framed records off the shared work channel,
/// runs the shared decode step, recycles the payload buffer back to the
/// framing thread, and ships the decoded record to the consumer. Exits when
/// either side of the pipeline disconnects.
fn run_decoder(
    work: Arc<Mutex<Receiver<WorkItem>>>,
    results: SyncSender<Decoded>,
    recycle: Sender<Vec<u8>>,
) {
    loop {
        let WorkItem { seq, frame, buf } = {
            let Ok(guard) = work.lock() else { return };
            match guard.recv() {
                Ok(item) => item,
                Err(_) => return,
            }
        };
        let record = decode_frame(frame, &buf);
        let _ = recycle.send(buf);
        if results.send(Decoded { seq, record }).is_err() {
            return;
        }
    }
}

/// Record scanner that overlaps framing and decoding across threads while
/// presenting the same pull-based interface as the inline scanner: same
/// records, same order, same errors, same end-of-stream.
///
/// Shutdown is disconnect-driven: dropping the results receiver unblocks
/// the workers, whose exit drops the work receiver and unblocks the framing
/// thread. [`Drop`] joins every thread, so no scan outlives its scanner.
#[derive(Debug)]
pub(crate) struct PipelinedScanner {
    /// `None` once the stream is exhausted (disconnecting the pipeline).
    results: Option<Receiver<Decoded>>,
    /// Out-of-order arrivals waiting for their turn. Bounded by the channel
    /// capacities plus the number of in-flight workers.
    pending: BTreeMap<u64, Decoded>,
    next_seq: u64,
    exhausted: bool,
    handles: Vec<JoinHandle<()>>,
}

impl PipelinedScanner {
    /// Opens `path` and spawns the framing thread plus `decode_workers`
    /// decode threads (`0` sizes the pool from [`default_decode_workers`]).
    ///
    /// File-open failures are reported synchronously, like the inline
    /// scanner; thread-spawn failures surface as [`StreamError::Io`].
    pub(crate) fn spawn(
        path: &Path,
        format: ChunkFormat,
        decode_workers: usize,
    ) -> Result<Self, StreamError> {
        let workers = if decode_workers == 0 {
            default_decode_workers()
        } else {
            decode_workers
        };
        let (work_tx, work_rx) = sync_channel::<WorkItem>(workers * 2);
        let (res_tx, res_rx) = sync_channel::<Decoded>(workers * 2 + 2);
        let (rec_tx, rec_rx) = channel::<Vec<u8>>();
        let spawn_err = |e: std::io::Error| StreamError::Io(e.to_string());
        let framer = Framer::open(path, format)?;
        let mut handles = Vec::with_capacity(workers + 1);
        let handle = std::thread::Builder::new()
            .name("pingest-frame".into())
            .spawn(move || run_framer(framer, work_tx, rec_rx))
            .map_err(spawn_err)?;
        handles.push(handle);
        let work_rx = Arc::new(Mutex::new(work_rx));
        for i in 0..workers {
            let work = Arc::clone(&work_rx);
            let results = res_tx.clone();
            let recycle = rec_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pingest-d{i}"))
                .spawn(move || run_decoder(work, results, recycle))
                .map_err(spawn_err)?;
            handles.push(handle);
        }
        drop(res_tx);
        drop(rec_tx);
        Ok(PipelinedScanner {
            results: Some(res_rx),
            pending: BTreeMap::new(),
            next_seq: 0,
            exhausted: false,
            handles,
        })
    }

    /// Pulls the next record in stream order, blocking on the pipeline as
    /// needed. Mirrors the inline scanner's contract exactly: yields every
    /// record (parse failures included) and returns `None` after a record
    /// that ends the scan or at a clean end of file.
    pub(crate) fn next_record(&mut self) -> Option<RawRecord> {
        if self.exhausted {
            return None;
        }
        loop {
            if let Some(d) = self.pending.remove(&self.next_seq) {
                self.next_seq += 1;
                if ends_scan(&d.record) {
                    // The inline scanner stops here; drop whatever the
                    // pipeline read ahead so the streams stay identical.
                    self.exhausted = true;
                    self.results = None;
                    self.pending.clear();
                }
                return Some(d.record);
            }
            let arrival = match &self.results {
                Some(rx) => rx.recv().ok(),
                None => None,
            };
            match arrival {
                Some(d) => {
                    self.pending.insert(d.seq, d);
                }
                None => {
                    // Every sender hung up: clean end of stream.
                    self.exhausted = true;
                    self.results = None;
                    return None;
                }
            }
        }
    }
}

impl Drop for PipelinedScanner {
    fn drop(&mut self) {
        // Disconnect first so blocked senders unwind, then reap the threads.
        self.results = None;
        self.pending.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pipelined [`EventSource`] over a chunked trace file, in either
/// [`ChunkFormat`]: the reader every library entry point uses.
///
/// It overlaps file reading, record decoding, and the caller's detection
/// work across threads. The chunk/gap stream it yields is bit-identical to
/// [`ChunkFileReader`]'s, the zero-thread reference, under every
/// [`RecoveryPolicy`]: both share the same validation, gap-accounting, and
/// trailer-reconciliation state machine and differ only in the record
/// scanner underneath.
pub struct PipelinedChunkReader {
    inner: ChunkFileReader,
}

impl PipelinedChunkReader {
    /// Opens a chunked trace file for pipelined reading with the default
    /// [`RecoveryPolicy::Fail`] policy, autodetected format, and an
    /// auto-sized decode pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChunkFileReader::open`], plus thread-spawn
    /// failures reported as [`StreamError::Io`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StreamError> {
        Self::with_options(path, RecoveryPolicy::Fail, None, 0)
    }

    /// Opens a chunked trace file for pipelined reading under `policy`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](Self::open).
    pub fn with_policy(
        path: impl AsRef<Path>,
        policy: RecoveryPolicy,
    ) -> Result<Self, StreamError> {
        Self::with_options(path, policy, None, 0)
    }

    /// Opens a chunked trace file for pipelined reading with every knob
    /// exposed: recovery `policy`, an optional `format` override (`None`
    /// autodetects by magic bytes), and the decode-pool size (`0` sizes it
    /// from [`default_decode_workers`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](Self::open).
    pub fn with_options(
        path: impl AsRef<Path>,
        policy: RecoveryPolicy,
        format: Option<ChunkFormat>,
        decode_workers: usize,
    ) -> Result<Self, StreamError> {
        Ok(PipelinedChunkReader {
            inner: ChunkFileReader::open_pipelined(path, policy, format, decode_workers)?,
        })
    }

    /// The path of the file being read.
    pub fn path(&self) -> &str {
        self.inner.path()
    }

    /// The on-disk format of the file being read.
    pub fn format(&self) -> ChunkFormat {
        self.inner.format()
    }

    /// The recovery policy in effect.
    pub fn policy(&self) -> RecoveryPolicy {
        self.inner.policy()
    }

    /// The interned code sites from the file header.
    pub fn sites(&self) -> &SiteTable {
        self.inner.sites()
    }

    /// The file trailer, once the end of the stream has been reached.
    pub fn trailer(&self) -> Option<&ChunkFileTrailer> {
        self.inner.trailer()
    }

    /// Every gap recorded so far (non-empty only under a recovering policy).
    pub fn gaps(&self) -> &[StreamGap] {
        self.inner.gaps()
    }

    /// Total events known lost across all recorded gaps.
    pub fn events_lost(&self) -> u64 {
        self.inner.events_lost()
    }
}

impl EventSource for PipelinedChunkReader {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        self.inner.next_item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, LockGrant};
    use crate::frame::UTF8_ERROR;
    use crate::ids::{CodeSiteId, LockId, ObjectId, ThreadId};
    use crate::stream::{ChunkFileHeader, ChunkFileRecord, RawChunkRecords, TraceChunks};
    use crate::time::Time;
    use crate::trace::Trace;

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

    fn encode_chunk_file(trace: &Trace, format: ChunkFormat, chunk_events: usize) -> Vec<u8> {
        let mut out = format.prelude();
        let mut buf = Vec::new();
        let header = ChunkFileRecord::Header(ChunkFileHeader {
            meta: TraceMeta::default(),
            num_threads: trace.num_threads(),
            sites: trace.sites.clone(),
        });
        format.encode_record(&header, &mut buf).unwrap();
        out.extend_from_slice(&buf);
        let mut source = TraceChunks::new(trace, chunk_events);
        let mut chunks = 0u64;
        let mut events = 0u64;
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks += 1;
            events += chunk.num_events() as u64;
            buf.clear();
            format
                .encode_record(&ChunkFileRecord::Chunk(chunk), &mut buf)
                .unwrap();
            out.extend_from_slice(&buf);
        }
        buf.clear();
        let trailer = ChunkFileRecord::Trailer(ChunkFileTrailer {
            total_time: trace.total_time,
            finish_times: vec![trace.total_time; trace.num_threads()],
            chunks,
            events,
        });
        format.encode_record(&trailer, &mut buf).unwrap();
        out.extend_from_slice(&buf);
        out
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfplay-pipelined-{}-{tag}", std::process::id()))
    }

    fn raw_drain(
        records: RawChunkRecords,
    ) -> Vec<(usize, u64, u64, Result<ChunkFileRecord, StreamError>)> {
        records
            .map(|r| (r.line, r.offset, r.bytes, r.record))
            .collect()
    }

    fn item_drain(source: &mut dyn EventSource) -> (Vec<StreamItem>, Option<StreamError>) {
        let mut items = Vec::new();
        loop {
            match source.next_item() {
                Ok(Some(item)) => items.push(item),
                Ok(None) => return (items, None),
                Err(e) => return (items, Some(e)),
            }
        }
    }

    #[test]
    fn pipelined_records_match_sequential_on_clean_files() {
        let trace = two_thread_trace();
        for format in [ChunkFormat::Json, ChunkFormat::Pbin] {
            for chunk_events in [1, 3, 100] {
                let path = temp_path(&format!("clean-{format:?}-{chunk_events}"));
                std::fs::write(&path, encode_chunk_file(&trace, format, chunk_events)).unwrap();
                let sequential = raw_drain(RawChunkRecords::open(&path).unwrap());
                for workers in [1usize, 2, 4] {
                    let pipelined =
                        raw_drain(RawChunkRecords::open_pipelined(&path, None, workers).unwrap());
                    assert_eq!(sequential, pipelined, "{format:?} workers={workers}");
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn pipelined_records_match_sequential_on_corrupt_files() {
        let trace = two_thread_trace();
        for format in [ChunkFormat::Json, ChunkFormat::Pbin] {
            let clean = encode_chunk_file(&trace, format, 2);
            // Corrupt one byte at a stride of positions across the file —
            // record interiors, frame heads, and boundaries all get hit.
            for pos in (0..clean.len()).step_by(17) {
                let mut bad = clean.clone();
                bad[pos] ^= 0x20;
                let path = temp_path(&format!("corrupt-{format:?}-{pos}"));
                std::fs::write(&path, &bad).unwrap();
                let sequential =
                    raw_drain(RawChunkRecords::open_with_format(&path, Some(format)).unwrap());
                let pipelined =
                    raw_drain(RawChunkRecords::open_pipelined(&path, Some(format), 2).unwrap());
                assert_eq!(sequential, pipelined, "{format:?} corrupt byte {pos}");
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn pipelined_records_match_sequential_on_truncated_files() {
        let trace = two_thread_trace();
        for format in [ChunkFormat::Json, ChunkFormat::Pbin] {
            let clean = encode_chunk_file(&trace, format, 2);
            for cut in (0..clean.len()).step_by(13) {
                let path = temp_path(&format!("trunc-{format:?}-{cut}"));
                std::fs::write(&path, &clean[..cut]).unwrap();
                let sequential =
                    raw_drain(RawChunkRecords::open_with_format(&path, Some(format)).unwrap());
                let pipelined =
                    raw_drain(RawChunkRecords::open_pipelined(&path, Some(format), 3).unwrap());
                assert_eq!(sequential, pipelined, "{format:?} truncated at {cut}");
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn pipelined_reader_streams_match_sequential_under_every_policy() {
        let trace = two_thread_trace();
        for format in [ChunkFormat::Json, ChunkFormat::Pbin] {
            let clean = encode_chunk_file(&trace, format, 2);
            let mut bad = clean.clone();
            let mid = clean.len() / 2;
            bad[mid] ^= 0xFF;
            for (tag, bytes) in [("clean", &clean), ("bad", &bad)] {
                let path = temp_path(&format!("reader-{format:?}-{tag}"));
                std::fs::write(&path, bytes).unwrap();
                for policy in [
                    RecoveryPolicy::Fail,
                    RecoveryPolicy::SkipChunk,
                    RecoveryPolicy::SkipStream,
                ] {
                    let mut seq =
                        ChunkFileReader::with_policy_and_format(&path, policy, Some(format))
                            .unwrap();
                    let mut pip =
                        PipelinedChunkReader::with_options(&path, policy, Some(format), 2).unwrap();
                    let (seq_items, seq_err) = item_drain(&mut seq);
                    let (pip_items, pip_err) = item_drain(&mut pip);
                    assert_eq!(seq_items, pip_items, "{format:?} {tag} {policy:?}");
                    assert_eq!(seq_err, pip_err, "{format:?} {tag} {policy:?}");
                    assert_eq!(seq.gaps(), pip.gaps(), "{format:?} {tag} {policy:?}");
                    assert_eq!(seq.events_lost(), pip.events_lost());
                    assert_eq!(seq.trailer(), pip.trailer());
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn pipelined_jsonl_bad_utf8_matches_sequential() {
        let trace = two_thread_trace();
        let mut bytes = encode_chunk_file(&trace, ChunkFormat::Json, 2);
        // Splice an invalid UTF-8 byte into the middle of the second line.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes.insert(first_nl + 10, 0xFF);
        let path = temp_path("bad-utf8");
        std::fs::write(&path, &bytes).unwrap();
        let sequential = raw_drain(RawChunkRecords::open(&path).unwrap());
        let pipelined = raw_drain(RawChunkRecords::open_pipelined(&path, None, 2).unwrap());
        assert_eq!(sequential, pipelined);
        let last = pipelined.last().unwrap();
        assert!(matches!(last.3, Err(StreamError::Io(ref m)) if m == UTF8_ERROR));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_fails_synchronously() {
        let path = temp_path("does-not-exist");
        assert!(PipelinedChunkReader::open(&path).is_err());
        assert!(RawChunkRecords::open_pipelined(&path, Some(ChunkFormat::Pbin), 1).is_err());
    }

    #[test]
    fn dropping_reader_mid_stream_joins_cleanly() {
        let trace = two_thread_trace();
        let path = temp_path("early-drop");
        std::fs::write(&path, encode_chunk_file(&trace, ChunkFormat::Pbin, 1)).unwrap();
        let mut reader = PipelinedChunkReader::open(&path).unwrap();
        let first = reader.next_chunk().unwrap();
        assert!(first.is_some());
        drop(reader); // must not hang or panic
        std::fs::remove_file(&path).unwrap();
    }
}
