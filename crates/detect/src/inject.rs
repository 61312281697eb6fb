//! Deterministic fault injection for chaos-testing the ingestion pipeline.
//!
//! Two layers, both driven by a seeded RNG so every failure reproduces from
//! its seed:
//!
//! * [`FaultInjector`] wraps any [`EventSource`] and perturbs the chunk
//!   stream in flight — dropped, duplicated or truncated chunks, duplicated
//!   or reordered events, timestamp regressions. It exercises the detector's
//!   contract validation without touching a file.
//! * [`corrupt_chunk_file`] realizes the same faults (plus the byte-level
//!   ones a crashed or buggy writer produces: mid-record truncation,
//!   bit-flips, trailer-count mismatches) by rewriting an on-disk chunk
//!   file, so the whole reader/recovery path is exercised end to end.
//!
//! The invariant the chaos suite pins with these tools: **no injected fault
//! makes the pipeline panic** — every run ends in a bit-identical report, a
//! gap-annotated report, or a structured [`StreamError`].

use std::path::Path;

use perfplay_trace::{
    ChunkFileRecord, ChunkFormat, EventSource, RawChunkRecords, StreamError, StreamItem, Time,
    TraceChunk, TraceMeta,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Remove one chunk from the stream (events vanish mid-stream).
    DropChunk,
    /// Deliver one chunk twice (violates window and contiguity contracts).
    DuplicateChunk,
    /// Duplicate one event inside a chunk (span lengths stop matching the
    /// per-thread contiguity accounting).
    DuplicateEvent,
    /// Swap two adjacent events of one thread span.
    ReorderEvents,
    /// Regress one event's timestamp to zero.
    TimestampRegression,
    /// End the stream at a chunk boundary (no trailer ever arrives).
    TruncateAtBoundary,
    /// Cut one record line in half (the shape a killed writer leaves).
    /// File-level only.
    TruncateMidRecord,
    /// Flip one bit of one record line. File-level only.
    BitFlip,
    /// Rewrite the trailer with wrong integrity counts. File-level only.
    TrailerMismatch,
}

impl FaultKind {
    /// Every fault kind, in a stable order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::DropChunk,
        FaultKind::DuplicateChunk,
        FaultKind::DuplicateEvent,
        FaultKind::ReorderEvents,
        FaultKind::TimestampRegression,
        FaultKind::TruncateAtBoundary,
        FaultKind::TruncateMidRecord,
        FaultKind::BitFlip,
        FaultKind::TrailerMismatch,
    ];

    /// Stable spec name, accepted back by [`parse`](Self::parse).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DropChunk => "drop-chunk",
            FaultKind::DuplicateChunk => "dup-chunk",
            FaultKind::DuplicateEvent => "dup-event",
            FaultKind::ReorderEvents => "reorder",
            FaultKind::TimestampRegression => "time-regress",
            FaultKind::TruncateAtBoundary => "truncate",
            FaultKind::TruncateMidRecord => "truncate-mid",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::TrailerMismatch => "trailer-mismatch",
        }
    }

    /// Parses a spec name produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// True for faults an in-flight [`FaultInjector`] can apply; the rest
    /// are byte-level and only realizable by [`corrupt_chunk_file`].
    pub fn stream_applicable(self) -> bool {
        !matches!(
            self,
            FaultKind::TruncateMidRecord | FaultKind::BitFlip | FaultKind::TrailerMismatch
        )
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where and what to inject: fully determined by `(seed, kind)` plus the
/// stream length, so a failing corpus entry reproduces from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Index of the chunk (or record) the fault lands on.
    pub target: u64,
    /// The seed that chose the target (and drives intra-chunk choices).
    pub seed: u64,
}

impl FaultPlan {
    /// Picks a deterministic target among `num_chunks` chunks.
    pub fn seeded(seed: u64, kind: FaultKind, num_chunks: u64) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let target = if num_chunks == 0 {
            0
        } else {
            rng.gen_range(0..num_chunks)
        };
        FaultPlan { kind, target, seed }
    }
}

/// An [`EventSource`] adapter that perturbs the chunk stream according to a
/// [`FaultPlan`]. The wrapped source is consumed unchanged except at the
/// plan's target chunk; file-only fault kinds pass everything through.
#[derive(Debug)]
pub struct FaultInjector<R> {
    inner: R,
    plan: FaultPlan,
    rng: ChaCha8Rng,
    index: u64,
    /// Second delivery of a duplicated chunk, pending.
    replay: Option<TraceChunk>,
    done: bool,
}

impl<R: EventSource> FaultInjector<R> {
    /// Wraps a source with the given fault plan.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        // Offset the seed so intra-chunk choices are independent of the
        // target-picking draw in `FaultPlan::seeded`.
        let rng = ChaCha8Rng::seed_from_u64(plan.seed.wrapping_add(0x9e37_79b9));
        FaultInjector {
            inner,
            plan,
            rng,
            index: 0,
            replay: None,
            done: false,
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Unwraps the inner source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: EventSource> EventSource for FaultInjector<R> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
        if self.done {
            return Ok(None);
        }
        if let Some(dup) = self.replay.take() {
            return Ok(Some(StreamItem::Chunk(dup)));
        }
        // Faults apply to the chunk stream; gaps from a recovering inner
        // source are forwarded untouched.
        while let Some(item) = self.inner.next_item()? {
            let StreamItem::Chunk(chunk) = item else {
                return Ok(Some(item));
            };
            match self.apply(chunk)? {
                Some(chunk) => return Ok(Some(StreamItem::Chunk(chunk))),
                None if self.done => return Ok(None),
                None => continue, // chunk dropped; pull the next one
            }
        }
        Ok(None)
    }
}

impl<R: EventSource> FaultInjector<R> {
    /// Applies the plan to one pulled chunk; `Ok(None)` means the chunk was
    /// consumed by the fault (dropped, or the stream truncated).
    fn apply(&mut self, mut chunk: TraceChunk) -> Result<Option<TraceChunk>, StreamError> {
        let idx = self.index;
        self.index += 1;
        if idx != self.plan.target {
            return Ok(Some(chunk));
        }
        match self.plan.kind {
            FaultKind::TruncateAtBoundary => {
                self.done = true;
                Ok(None)
            }
            FaultKind::DropChunk => Ok(None),
            FaultKind::DuplicateChunk => {
                self.replay = Some(chunk.clone());
                Ok(Some(chunk))
            }
            FaultKind::DuplicateEvent => {
                duplicate_event(&mut chunk, &mut self.rng);
                Ok(Some(chunk))
            }
            FaultKind::ReorderEvents => {
                reorder_events(&mut chunk, &mut self.rng);
                Ok(Some(chunk))
            }
            FaultKind::TimestampRegression => {
                regress_timestamp(&mut chunk, &mut self.rng);
                Ok(Some(chunk))
            }
            _ => Ok(Some(chunk)),
        }
    }
}

/// Picks a random `(span, event)` position in a non-empty chunk.
fn pick_event(chunk: &TraceChunk, rng: &mut ChaCha8Rng) -> Option<(usize, usize)> {
    let populated: Vec<usize> = (0..chunk.spans.len())
        .filter(|&i| !chunk.spans[i].events.is_empty())
        .collect();
    if populated.is_empty() {
        return None;
    }
    let si = populated[rng.gen_range(0..populated.len())];
    let ei = rng.gen_range(0..chunk.spans[si].events.len());
    Some((si, ei))
}

fn duplicate_event(chunk: &mut TraceChunk, rng: &mut ChaCha8Rng) {
    if let Some((si, ei)) = pick_event(chunk, rng) {
        let dup = chunk.spans[si].events[ei].clone();
        chunk.spans[si].events.insert(ei + 1, dup);
    }
}

fn reorder_events(chunk: &mut TraceChunk, rng: &mut ChaCha8Rng) {
    let candidates: Vec<usize> = (0..chunk.spans.len())
        .filter(|&i| chunk.spans[i].events.len() >= 2)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let si = candidates[rng.gen_range(0..candidates.len())];
    let ei = rng.gen_range(0..chunk.spans[si].events.len() - 1);
    chunk.spans[si].events.swap(ei, ei + 1);
}

fn regress_timestamp(chunk: &mut TraceChunk, rng: &mut ChaCha8Rng) {
    if let Some((si, ei)) = pick_event(chunk, rng) {
        chunk.spans[si].events[ei].at = Time::ZERO;
    }
}

/// Rewrites `src` into `dst` with one deterministic byte- or record-level
/// corruption applied, returning a description of what was done.
///
/// Format-agnostic: the source's [`ChunkFormat`] is autodetected and the
/// corrupted file stays in the same format, so both JSON-lines and PBIN
/// recovery paths are exercised by the same call. Supports every
/// [`FaultKind`]; the chunk-shaped kinds are applied by parsing one record,
/// mutating it exactly as [`FaultInjector`] would, and re-encoding it. The
/// output file is what a buggy or crashed writer could plausibly have
/// produced — feed it to a
/// [`ChunkFileReader`](perfplay_trace::ChunkFileReader) under each
/// [`RecoveryPolicy`](perfplay_trace::RecoveryPolicy) to exercise recovery.
///
/// # Errors
///
/// I/O failures, and `InvalidData` if `src` is not a valid chunk file.
pub fn corrupt_chunk_file(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    kind: FaultKind,
    seed: u64,
) -> std::io::Result<String> {
    use std::io::{Error, ErrorKind};
    let invalid = |msg: String| Error::new(ErrorKind::InvalidData, msg);

    let bytes = std::fs::read(&src)?;
    // Segment the file into per-record byte extents (for JSON a line plus
    // its newline; for PBIN a frame, the prelude folded into the first).
    let scanner =
        RawChunkRecords::open(&src).map_err(|e| invalid(format!("unreadable chunk file: {e}")))?;
    let format = scanner.format();
    let mut records: Vec<(std::ops::Range<usize>, ChunkFileRecord)> = Vec::new();
    for raw in scanner {
        let record = raw
            .record
            .map_err(|e| invalid(format!("source record {} is not clean: {e}", raw.line)))?;
        let start = raw.offset as usize;
        let end = (start + raw.bytes as usize).min(bytes.len());
        records.push((start..end, record));
    }
    if records.len() < 3 {
        return Err(invalid(
            "chunk file needs header + chunk(s) + trailer".into(),
        ));
    }
    // Working copy: the raw bytes of each record, in order.
    let mut segments: Vec<Vec<u8>> = records
        .iter()
        .map(|(range, _)| bytes[range.clone()].to_vec())
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Records that are fair game: everything between header and trailer.
    let chunk_range = 1..records.len() - 1;
    let pick = |rng: &mut ChaCha8Rng| rng.gen_range(chunk_range.start..chunk_range.end);

    let reencode = |record: &ChunkFileRecord| -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        format
            .encode_record(record, &mut out)
            .map_err(|e| invalid(e.to_string()))?;
        Ok(out)
    };
    let as_chunk = |record: &ChunkFileRecord| -> std::io::Result<TraceChunk> {
        match record {
            ChunkFileRecord::Chunk(chunk) => Ok(chunk.clone()),
            _ => Err(invalid("not a chunk record".into())),
        }
    };

    let mut truncate_after: Option<usize> = None; // drop records past this index
    let description = match kind {
        FaultKind::DropChunk => {
            let i = pick(&mut rng);
            segments.remove(i);
            format!("dropped record {}", i + 1)
        }
        FaultKind::DuplicateChunk => {
            let i = pick(&mut rng);
            let copy = segments[i].clone();
            segments.insert(i + 1, copy);
            format!("duplicated record {}", i + 1)
        }
        FaultKind::DuplicateEvent => {
            let i = pick(&mut rng);
            let mut chunk = as_chunk(&records[i].1)?;
            duplicate_event(&mut chunk, &mut rng);
            segments[i] = reencode(&ChunkFileRecord::Chunk(chunk))?;
            format!("duplicated one event in record {}", i + 1)
        }
        FaultKind::ReorderEvents => {
            let i = pick(&mut rng);
            let mut chunk = as_chunk(&records[i].1)?;
            reorder_events(&mut chunk, &mut rng);
            segments[i] = reencode(&ChunkFileRecord::Chunk(chunk))?;
            format!("swapped adjacent events in record {}", i + 1)
        }
        FaultKind::TimestampRegression => {
            let i = pick(&mut rng);
            let mut chunk = as_chunk(&records[i].1)?;
            regress_timestamp(&mut chunk, &mut rng);
            segments[i] = reencode(&ChunkFileRecord::Chunk(chunk))?;
            format!("regressed one timestamp in record {}", i + 1)
        }
        FaultKind::TruncateAtBoundary => {
            let i = pick(&mut rng);
            truncate_after = Some(i);
            format!("truncated file after record {}", i)
        }
        FaultKind::TruncateMidRecord => {
            let i = pick(&mut rng);
            // Cut strictly inside the record's encoding (for JSON, short of
            // the newline too) so the remnant can never parse as a complete
            // record — this fault is "the writer died mid-write", not a
            // boundary truncation.
            let payload = match format {
                ChunkFormat::Json => segments[i].len().saturating_sub(1),
                ChunkFormat::Pbin => segments[i].len(),
            };
            let keep = if payload > 1 {
                rng.gen_range(1..payload)
            } else {
                0
            };
            segments[i].truncate(keep);
            truncate_after = Some(i + 1);
            format!("cut record {} at byte {keep}", i + 1)
        }
        FaultKind::BitFlip => {
            let i = pick(&mut rng);
            // For JSON, spare the trailing newline: flipping it would merge
            // two records, which is a different fault shape.
            let span = match format {
                ChunkFormat::Json => segments[i].len().saturating_sub(1),
                ChunkFormat::Pbin => segments[i].len(),
            };
            let pos = rng.gen_range(0..span.max(1));
            let bit = rng.gen_range(0u32..8);
            if let Some(byte) = segments[i].get_mut(pos) {
                *byte ^= 1 << bit;
                // A flip into a newline would split a JSON record in two;
                // nudge it so the fault stays "one corrupt record".
                if matches!(format, ChunkFormat::Json) && *byte == b'\n' {
                    *byte ^= 1;
                }
            }
            format!("flipped bit {bit} of byte {pos} in record {}", i + 1)
        }
        FaultKind::TrailerMismatch => {
            let last = records.len() - 1;
            let ChunkFileRecord::Trailer(mut trailer) = records[last].1.clone() else {
                return Err(invalid("last record is not a trailer".into()));
            };
            let extra = rng.gen_range(1u64..=100);
            trailer.events = trailer.events.wrapping_add(extra);
            segments[last] = reencode(&ChunkFileRecord::Trailer(trailer))?;
            format!("inflated trailer event count by {extra}")
        }
    };

    let kept = truncate_after.unwrap_or(segments.len()).max(1);
    let mut out = Vec::new();
    for segment in segments.iter().take(kept) {
        out.extend_from_slice(segment);
    }
    std::fs::write(&dst, out)?;
    Ok(description)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_trace::{TraceChunks, TraceMeta};

    fn tiny_trace() -> perfplay_trace::Trace {
        use perfplay_trace::{Event, LockId, ObjectId, Time, Trace};
        let mut trace = Trace::new(TraceMeta::default(), 2);
        for (ti, base) in [(0usize, 0u64), (1, 10)] {
            let t = &mut trace.threads[ti];
            t.push(
                Time::from_nanos(base + 1),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: perfplay_trace::CodeSiteId::new(0),
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
        }
        trace.total_time = Time::from_nanos(20);
        trace
    }

    #[test]
    fn fault_kind_names_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("no-such-fault"), None);
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::seeded(7, FaultKind::DropChunk, 10);
        let b = FaultPlan::seeded(7, FaultKind::DropChunk, 10);
        assert_eq!(a, b);
        assert!(a.target < 10);
    }

    #[test]
    fn drop_chunk_removes_exactly_one_chunk() {
        let trace = tiny_trace();
        let count = |plan: Option<FaultPlan>| -> usize {
            let chunks = TraceChunks::new(&trace, 2);
            let mut n = 0;
            match plan {
                Some(plan) => {
                    let mut src = FaultInjector::new(chunks, plan);
                    while let Some(_c) = src.next_chunk().unwrap() {
                        n += 1;
                    }
                }
                None => {
                    let mut src = chunks;
                    while let Some(_c) = src.next_chunk().unwrap() {
                        n += 1;
                    }
                }
            }
            n
        };
        let clean = count(None);
        assert!(clean >= 2);
        let dropped = count(Some(FaultPlan {
            kind: FaultKind::DropChunk,
            target: 1,
            seed: 0,
        }));
        assert_eq!(dropped, clean - 1);
        let duplicated = count(Some(FaultPlan {
            kind: FaultKind::DuplicateChunk,
            target: 0,
            seed: 0,
        }));
        assert_eq!(duplicated, clean + 1);
        let truncated = count(Some(FaultPlan {
            kind: FaultKind::TruncateAtBoundary,
            target: 1,
            seed: 0,
        }));
        assert_eq!(truncated, 1);
    }

    #[test]
    fn event_mutations_are_deterministic() {
        let trace = tiny_trace();
        let run = |kind: FaultKind| -> Vec<TraceChunk> {
            let chunks = TraceChunks::new(&trace, 2);
            let mut src = FaultInjector::new(
                chunks,
                FaultPlan {
                    kind,
                    target: 0,
                    seed: 42,
                },
            );
            let mut out = Vec::new();
            while let Some(c) = src.next_chunk().unwrap() {
                out.push(c);
            }
            out
        };
        for kind in [
            FaultKind::DuplicateEvent,
            FaultKind::ReorderEvents,
            FaultKind::TimestampRegression,
        ] {
            assert_eq!(run(kind), run(kind), "{kind} must be deterministic");
        }
        let dup = run(FaultKind::DuplicateEvent);
        let clean: usize = trace.num_events();
        let mutated: usize = dup.iter().map(TraceChunk::num_events).sum();
        assert_eq!(mutated, clean + 1);
    }
}
