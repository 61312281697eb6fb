//! Streaming well-formedness lint over traces and chunk files.
//!
//! [`StreamLinter`] lints raw files record by record (via
//! [`perfplay_trace::RawChunkRecords`]) and reports *every* finding with
//! exact coordinates instead of stopping at the first failure: it asks the
//! readers' [`ChunkContract`] for every violation, and adds its own checks
//! of sequence numbers, lock discipline, condvars and barriers. Releases
//! pair through [`OpenLocks`], detection's rule: a re-entrant acquire is
//! [`DiagnosticCode::ReentrantAcquire`] but stays open, so the held locks
//! are exactly the sections detection has open. Memory stays
//! chunk-bounded: per-thread cursors, held-lock stacks, the condvar/barrier
//! pairing state and the lock-order graph are all O(threads + locks), never
//! O(events), so a 12M-event file lints without materializing a `Trace`.
//!
//! Three entry points share the linter:
//!
//! * [`lint_chunk_file`] — raw record-by-record scan of a chunk file through
//!   the pipelined scanner; parse failures become
//!   [`DiagnosticCode::RecordParse`] findings with the exact line and byte
//!   offset, and the scan continues on the next record;
//! * [`lint_source`] — lints any [`EventSource`] (including a
//!   `FaultInjector`-wrapped one) with chunk/event-index locations;
//! * [`lint_trace`] — lints an in-memory [`Trace`] through [`TraceChunks`],
//!   with the expected totals derived from the trace itself.

use std::collections::BTreeMap;
use std::path::Path;

use perfplay_trace::{
    BarrierId, ChunkContract, ChunkFileRecord, ChunkFileTrailer, CondId, ContractViolation, Event,
    EventSource, OpenLocks, RawChunkRecords, SiteTable, StreamError, StreamItem, ThreadId, Time,
    Trace, TraceChunk, TraceChunks, TraceError,
};

use crate::diag::{Diagnostic, DiagnosticCode, LintReport, LintStats, Location};
use crate::lockorder::LockOrderGraph;

/// Caller-side expectations and limits of one lint pass.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Total events the stream is expected to carry; a mismatch at end of
    /// stream is [`DiagnosticCode::CountMismatch`]. Chunk files carry their
    /// own expectation in the trailer, so this is mainly for in-flight
    /// sources.
    pub expected_events: Option<u64>,
    /// Total lock grants the stream is expected to carry.
    pub expected_grants: Option<u64>,
    /// Findings cap: diagnostics beyond this are counted in
    /// [`LintStats::suppressed`] instead of accumulated, bounding memory on
    /// pathological inputs.
    pub max_diagnostics: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            expected_events: None,
            expected_grants: None,
            max_diagnostics: 1000,
        }
    }
}

#[derive(Debug, Clone)]
struct PendingWait {
    cond: CondId,
    at: Time,
    location: Location,
}

/// Streaming well-formedness linter. Feed it [`StreamItem`]s via
/// [`check_chunk`](Self::check_chunk) / [`note_gap`](Self::note_gap), then
/// call [`finish`](Self::finish).
#[derive(Debug)]
pub struct StreamLinter {
    config: LintConfig,
    /// Declared thread count; `None` when no header was available, in which
    /// case per-thread state grows on demand and range checks are skipped.
    num_threads: Option<usize>,
    sites: Option<SiteTable>,
    path: Option<String>,
    diagnostics: Vec<Diagnostic>,
    stats: LintStats,
    /// The chunk contract's state; its violations are findings here.
    contract: ChunkContract,
    last_seq: Option<u64>,
    seq_resync: bool,
    /// Per thread, the acquires still open with where each was made:
    /// exactly the sections detection has open.
    held: Vec<OpenLocks<String>>,
    last_grant_seq: Option<u64>,
    gap_seen: bool,
    pending_waits: Vec<PendingWait>,
    max_signal: BTreeMap<CondId, Time>,
    barrier_sizes: BTreeMap<BarrierId, usize>,
    graph: LockOrderGraph,
}

/// Soft cap on retained unmatched condvar waits; beyond it the oldest are
/// dropped so adversarial wait-only streams stay memory-bounded.
const MAX_PENDING_WAITS: usize = 4096;

impl StreamLinter {
    /// Creates a linter. `num_threads` comes from the stream header when one
    /// exists; `path` attaches a file path to every location.
    pub fn new(config: LintConfig, num_threads: Option<usize>, path: Option<String>) -> Self {
        let n = num_threads.unwrap_or(0);
        StreamLinter {
            config,
            num_threads,
            sites: None,
            path,
            diagnostics: Vec::new(),
            stats: LintStats {
                threads: num_threads.map_or(0, |n| n as u32),
                ..LintStats::default()
            },
            contract: ChunkContract::new(num_threads),
            last_seq: None,
            seq_resync: false,
            held: vec![OpenLocks::default(); n],
            last_grant_seq: None,
            gap_seen: false,
            pending_waits: Vec::new(),
            max_signal: BTreeMap::new(),
            barrier_sizes: BTreeMap::new(),
            graph: LockOrderGraph::new(),
        }
    }

    /// Attaches a site table so witness lines carry source locations instead
    /// of bare site ids.
    pub fn with_sites(mut self, sites: SiteTable) -> Self {
        self.sites = Some(sites);
        self
    }

    fn emit(&mut self, diagnostic: Diagnostic) {
        if self.diagnostics.len() < self.config.max_diagnostics {
            self.diagnostics.push(diagnostic);
        } else {
            self.stats.suppressed += 1;
        }
    }

    /// Builds a location, attaching the file coordinates when known.
    fn locate(&self, base: Location, file: Option<(usize, u64)>) -> Location {
        match (&self.path, file) {
            (Some(path), Some((line, offset))) => base.in_file(path, line, offset),
            _ => base,
        }
    }

    fn site_name(&self, site: perfplay_trace::CodeSiteId) -> String {
        match self.sites.as_ref().and_then(|t| t.get(site)) {
            Some(s) => s.to_string(),
            None => site.to_string(),
        }
    }

    fn ensure_thread(&mut self, ti: usize) {
        if self.held.len() <= ti {
            self.held.resize_with(ti + 1, OpenLocks::default);
        }
        if self.num_threads.is_none() {
            self.stats.threads = self.stats.threads.max(ti as u32 + 1);
        }
    }

    /// Registers a gap: lost events make per-thread lock state, contiguity
    /// and pairing expectations unreliable, so they are reset and the
    /// loss-explainable warnings are suppressed from here on.
    pub fn note_gap(&mut self) {
        self.stats.gaps += 1;
        self.gap_seen = true;
        self.seq_resync = true;
        self.contract.note_gap();
        self.held.fill(OpenLocks::default());
        self.pending_waits.clear();
    }

    /// Lints one chunk. `file` carries the (line, offset) of the chunk's
    /// record when linting a file.
    pub fn check_chunk(&mut self, chunk: &TraceChunk, file: Option<(usize, u64)>) {
        self.stats.chunks += 1;

        // Chunk sequence numbers are dense: a jump means a lost chunk, a
        // repeat means a duplicated one. No seq follows `u64::MAX`.
        if let Some(prev) = self.last_seq {
            let follows = prev.checked_add(1) == Some(chunk.seq);
            let jump_ok = self.seq_resync && chunk.seq > prev;
            if !follows && !jump_ok {
                self.emit(Diagnostic::new(
                    DiagnosticCode::WindowNotAdvancing,
                    self.locate(Location::stream(chunk.seq), file),
                    format!("chunk seq {} does not follow {}", chunk.seq, prev),
                ));
            }
        }
        self.seq_resync = false;
        self.last_seq = Some(chunk.seq);

        for violation in self.contract.violations(chunk) {
            let diagnostic = self.contract_diagnostic(chunk.seq, violation, file);
            self.emit(diagnostic);
        }
        self.contract.admit(chunk);

        let mut barrier_groups: BTreeMap<(BarrierId, Time), (usize, Location)> = BTreeMap::new();
        for span in &chunk.spans {
            let ti = span.thread.index();
            if self.num_threads.is_some_and(|n| ti >= n) {
                continue;
            }
            self.ensure_thread(ti);
            for (k, te) in span.events.iter().enumerate() {
                let index = span.base_index.saturating_add(k) as u64;
                let loc = || Location::event(chunk.seq, span.thread.raw(), index);
                self.stats.events += 1;
                match &te.event {
                    Event::LockAcquire { lock, site } => {
                        let detail = format!(
                            "{} acquired {} at {} (chunk {}, event {})",
                            span.thread,
                            lock,
                            self.site_name(*site),
                            chunk.seq,
                            index
                        );
                        // A re-entrant acquire opens a section as any other
                        // does, but orders nothing against the locks held.
                        if self.held[ti].holds(*lock) {
                            let witness: Vec<String> =
                                self.held[ti].iter().map(|(_, d)| d.clone()).collect();
                            self.emit(
                                Diagnostic::new(
                                    DiagnosticCode::ReentrantAcquire,
                                    self.locate(loc(), file),
                                    format!(
                                        "{} re-acquires {} while holding it",
                                        span.thread, lock
                                    ),
                                )
                                .with_witness(witness),
                            );
                        } else {
                            for (held, _) in self.held[ti].iter() {
                                self.graph.record(held, *lock, span.thread, &detail);
                            }
                        }
                        self.held[ti].acquire(*lock, detail);
                    }
                    Event::LockRelease { lock } => match self.held[ti].release(*lock) {
                        // The acquires still open from its position on were
                        // made after it.
                        Some((pos, _)) => {
                            let over: Vec<String> = self.held[ti]
                                .iter()
                                .skip(pos)
                                .map(|(_, d)| d.clone())
                                .collect();
                            if !over.is_empty() {
                                self.emit(
                                    Diagnostic::new(
                                        DiagnosticCode::NonLifoRelease,
                                        self.locate(loc(), file),
                                        format!(
                                            "{} releases {} before locks acquired after it",
                                            span.thread, lock
                                        ),
                                    )
                                    .with_witness(over),
                                );
                            }
                        }
                        None if !self.gap_seen => {
                            self.emit(Diagnostic::new(
                                DiagnosticCode::UnbalancedRelease,
                                self.locate(loc(), file),
                                format!("{} releases {} without holding it", span.thread, lock),
                            ));
                        }
                        None => {}
                    },
                    Event::CondWait { cond, lock } => {
                        if !self.held[ti].holds(*lock) && !self.gap_seen {
                            self.emit(Diagnostic::new(
                                DiagnosticCode::UnbalancedRelease,
                                self.locate(loc(), file),
                                format!("{} waits on {} with {} not held", span.thread, cond, lock),
                            ));
                        }
                        if self.pending_waits.len() >= MAX_PENDING_WAITS {
                            self.pending_waits.remove(0);
                        }
                        self.pending_waits.push(PendingWait {
                            cond: *cond,
                            at: te.at,
                            location: self.locate(loc(), file),
                        });
                    }
                    Event::CondSignal { cond, .. } => {
                        let entry = self.max_signal.entry(*cond).or_insert(te.at);
                        *entry = (*entry).max(te.at);
                    }
                    Event::BarrierWait { barrier } => {
                        let entry = barrier_groups
                            .entry((*barrier, te.at))
                            .or_insert_with(|| (0, self.locate(loc(), file)));
                        entry.0 += 1;
                    }
                    _ => {}
                }
            }
        }

        for g in &chunk.grants {
            self.stats.grants += 1;
            if let Some(prev) = self.last_grant_seq {
                if g.seq <= prev {
                    self.emit(Diagnostic::new(
                        DiagnosticCode::WindowNotAdvancing,
                        self.locate(Location::stream(chunk.seq), file),
                        format!("grant seq {} does not exceed {}", g.seq, prev),
                    ));
                    continue; // keep the high-water mark
                }
            }
            self.last_grant_seq = Some(g.seq);
        }

        // Barrier groups never straddle a chunk boundary (equal timestamps
        // never do), so they can be finalized here. Sizes must be consistent
        // per barrier across the whole stream.
        for ((barrier, at), (size, location)) in barrier_groups {
            match self.barrier_sizes.get(&barrier) {
                None => {
                    self.barrier_sizes.insert(barrier, size);
                }
                Some(&expected) if expected != size && !self.gap_seen => {
                    self.emit(Diagnostic::new(
                        DiagnosticCode::BarrierGroupMismatch,
                        location,
                        format!(
                            "{barrier} group at {at} has {size} waiters; earlier groups had {expected}"
                        ),
                    ));
                }
                Some(_) => {}
            }
        }

        // Prune condvar waits answered by a signal at-or-after their time.
        let signals = &self.max_signal;
        self.pending_waits
            .retain(|w| signals.get(&w.cond).is_none_or(|&s| s < w.at));
    }

    /// The finding for one violation of the chunk contract, with the
    /// violation's own text.
    fn contract_diagnostic(
        &self,
        seq: u64,
        violation: ContractViolation,
        file: Option<(usize, u64)>,
    ) -> Diagnostic {
        use ContractViolation as V;
        use DiagnosticCode as C;
        let event =
            |thread: &ThreadId, index: &usize| Location::event(seq, thread.raw(), *index as u64);
        let (code, location) = match &violation {
            V::WindowNotAdvancing { .. } => (C::WindowNotAdvancing, Location::stream(seq)),
            V::SpanOrder { .. } => (C::NonContiguousSpan, Location::stream(seq)),
            V::ThreadOutOfRange { .. } => (C::SpanOutOfRange, Location::stream(seq)),
            V::RewindAcrossGap { thread, base, .. } | V::NonContiguousSpan { thread, base, .. } => {
                (C::NonContiguousSpan, event(thread, base))
            }
            V::OutsideWindow { thread, index, .. } | V::NonMonotonicTime { thread, index } => {
                (C::NonMonotonicTime, event(thread, index))
            }
        };
        Diagnostic::new(code, self.locate(location, file), violation.to_string())
    }

    /// Ends the pass: reconciles totals, reports still-held locks and
    /// unanswered waits, runs the lock-order cycle analysis, and returns the
    /// report.
    ///
    /// `trailer` is the chunk file's own expectation when one was read;
    /// `trailer_loc` its record coordinates.
    pub fn finish(
        mut self,
        trailer: Option<&ChunkFileTrailer>,
        trailer_loc: Option<(usize, u64)>,
    ) -> LintReport {
        if let Some(t) = trailer {
            if t.chunks != self.stats.chunks || t.events != self.stats.events {
                let (chunks, events) = (self.stats.chunks, self.stats.events);
                self.emit(Diagnostic::new(
                    DiagnosticCode::CountMismatch,
                    self.locate(Location::default(), trailer_loc),
                    format!(
                        "trailer claims {} chunks / {} events but {} / {} were seen",
                        t.chunks, t.events, chunks, events
                    ),
                ));
            }
        }
        if let Some(expected) = self.config.expected_events {
            if expected != self.stats.events {
                let events = self.stats.events;
                self.emit(Diagnostic::new(
                    DiagnosticCode::CountMismatch,
                    Location::default(),
                    format!("expected {expected} events but the stream carried {events}"),
                ));
            }
        }
        if let Some(expected) = self.config.expected_grants {
            if expected != self.stats.grants {
                let grants = self.stats.grants;
                self.emit(Diagnostic::new(
                    DiagnosticCode::CountMismatch,
                    Location::default(),
                    format!("expected {expected} lock grants but the stream carried {grants}"),
                ));
            }
        }
        if !self.gap_seen {
            for ti in 0..self.held.len() {
                let locks: Vec<String> = self.held[ti].iter().map(|(l, _)| l.to_string()).collect();
                if locks.is_empty() {
                    continue;
                }
                let witness: Vec<String> = self.held[ti].iter().map(|(_, d)| d.clone()).collect();
                self.emit(
                    Diagnostic::new(
                        DiagnosticCode::UnreleasedLock,
                        Location {
                            thread: Some(ti as u32),
                            ..Location::default()
                        },
                        format!("T{ti} still holds {} at end of stream", locks.join(", ")),
                    )
                    .with_witness(witness),
                );
            }
            let waits: Vec<PendingWait> = std::mem::take(&mut self.pending_waits);
            for w in waits {
                self.emit(Diagnostic::new(
                    DiagnosticCode::UnpairedCondWait,
                    w.location,
                    format!(
                        "wait on {} at {} has no signal at or after it",
                        w.cond, w.at
                    ),
                ));
            }
        }
        for diagnostic in self.graph.cycles() {
            self.emit(diagnostic);
        }
        LintReport {
            diagnostics: self.diagnostics,
            stats: self.stats,
        }
    }

    /// Mutable access to the running stats (the file scanner tracks bytes).
    pub fn stats_mut(&mut self) -> &mut LintStats {
        &mut self.stats
    }
}

/// Maps a stream-level error (from a source that failed outright) to the
/// closest diagnostic code.
fn stream_error_code(e: &StreamError) -> DiagnosticCode {
    match e.root_cause() {
        StreamError::Io(_) => DiagnosticCode::Io,
        StreamError::Parse { .. } => DiagnosticCode::RecordParse,
        StreamError::Trace(TraceError::NonMonotonicTime { .. }) => DiagnosticCode::NonMonotonicTime,
        StreamError::Trace(_) => DiagnosticCode::NonContiguousSpan,
        StreamError::Format(_) => DiagnosticCode::WindowNotAdvancing,
        StreamError::At { .. } => DiagnosticCode::Io, // unreachable: root_cause unwraps
    }
}

/// Lints an event stream. Gaps from a recovering source are accounted (and
/// the loss-explainable warnings suppressed); a hard source error ends the
/// pass with a corresponding diagnostic.
pub fn lint_source<S: EventSource>(source: &mut S, config: &LintConfig) -> LintReport {
    let linter = StreamLinter::new(config.clone(), Some(source.num_threads()), None);
    lint_items(source, linter)
}

/// Lints an in-memory trace by streaming it through [`TraceChunks`], with
/// the expected totals taken from the trace itself.
pub fn lint_trace(trace: &Trace, chunk_events: usize) -> LintReport {
    let config = LintConfig {
        expected_events: Some(trace.num_events() as u64),
        expected_grants: Some(trace.lock_schedule.len() as u64),
        ..LintConfig::default()
    };
    let linter =
        StreamLinter::new(config, Some(trace.num_threads()), None).with_sites(trace.sites.clone());
    lint_items(&mut TraceChunks::new(trace, chunk_events.max(1)), linter)
}

/// The one source loop: feeds every item of `source` to `linter` and
/// finishes the pass.
fn lint_items<S: EventSource>(source: &mut S, mut linter: StreamLinter) -> LintReport {
    loop {
        match source.next_item() {
            Ok(Some(StreamItem::Chunk(chunk))) => linter.check_chunk(&chunk, None),
            Ok(Some(StreamItem::Gap(_))) => linter.note_gap(),
            Ok(None) => break,
            Err(e) => {
                let code = stream_error_code(&e);
                linter.emit(Diagnostic::new(
                    code,
                    Location::default(),
                    format!("stream failed: {e}"),
                ));
                break;
            }
        }
    }
    linter.finish(None, None)
}

/// Lints a chunk file record by record.
///
/// Every record is read exactly once through the pipelined scanner
/// ([`RawChunkRecords::open_pipelined`], decode pool sized by
/// [`perfplay_trace::default_decode_workers`]); nothing is materialized
/// beyond the records in flight. Unlike `ChunkFileReader` the scan never
/// stops at a bad record — a parse failure is a
/// [`DiagnosticCode::RecordParse`] finding at its exact line and byte
/// offset, and linting resumes on the next record, so one pass reports
/// *all* the file's problems.
pub fn lint_chunk_file(path: impl AsRef<Path>, config: &LintConfig) -> LintReport {
    let path_str = path.as_ref().display().to_string();
    match RawChunkRecords::open_pipelined(&path, None, 0) {
        Ok(records) => lint_records(path_str, records, config),
        Err(e) => open_failure_report(&path_str, &e),
    }
}

/// The report for a chunk file that could not even be opened.
fn open_failure_report(path_str: &str, error: &StreamError) -> LintReport {
    let mut report = LintReport::default();
    report.diagnostics.push(Diagnostic::new(
        DiagnosticCode::Io,
        Location::file(path_str, 0, 0),
        format!("cannot open chunk file: {error}"),
    ));
    report
}

/// The record-by-record lint loop behind [`lint_chunk_file`]. It does not
/// care which scanner yields the records: over the inline reference
/// ([`RawChunkRecords::open`]) it gives the identical report.
fn lint_records(path_str: String, records: RawChunkRecords, config: &LintConfig) -> LintReport {
    let mut linter: Option<StreamLinter> = None;
    let mut header_seen = false;
    let mut pre_header: Vec<Diagnostic> = Vec::new();
    let mut trailer: Option<(ChunkFileTrailer, usize, u64)> = None;
    let mut bytes = 0u64;
    let mut last_line = 0usize;
    for raw in records {
        bytes += raw.bytes;
        last_line = raw.line;
        let file = Some((raw.line, raw.offset));
        let record = match raw.record {
            Ok(r) => r,
            Err(e) => {
                let (code, message) = match &e {
                    StreamError::Io(io) => (DiagnosticCode::Io, format!("read failed: {io}")),
                    other => (
                        DiagnosticCode::RecordParse,
                        format!("record does not parse: {other}"),
                    ),
                };
                let d = Diagnostic::new(
                    code,
                    Location::file(&path_str, raw.line, raw.offset),
                    message,
                );
                match linter.as_mut() {
                    Some(l) => l.emit(d),
                    None => pre_header.push(d),
                }
                continue;
            }
        };
        match record {
            ChunkFileRecord::Header(header) => match linter {
                None => {
                    header_seen = true;
                    let mut l = StreamLinter::new(
                        config.clone(),
                        Some(header.num_threads),
                        Some(path_str.clone()),
                    )
                    .with_sites(header.sites);
                    for d in pre_header.drain(..) {
                        l.emit(d);
                    }
                    linter = Some(l);
                }
                Some(ref mut l) => {
                    // A chunk opens the linter without a header, so a header
                    // here is only a second one if a header came first.
                    let message = if header_seen {
                        "unexpected second header record"
                    } else {
                        "header record after chunk records"
                    };
                    header_seen = true;
                    l.emit(Diagnostic::new(
                        DiagnosticCode::RecordParse,
                        Location::file(&path_str, raw.line, raw.offset),
                        message.to_string(),
                    ));
                }
            },
            ChunkFileRecord::Chunk(chunk) => {
                let l = linter.get_or_insert_with(|| {
                    // No header: thread count unknown; lint what we can.
                    let mut l = StreamLinter::new(config.clone(), None, Some(path_str.clone()));
                    l.emit(Diagnostic::new(
                        DiagnosticCode::RecordParse,
                        Location::file(&path_str, 1, 0),
                        "chunk file does not start with a header record".to_string(),
                    ));
                    l
                });
                for d in pre_header.drain(..) {
                    l.emit(d);
                }
                if trailer.is_some() {
                    l.emit(Diagnostic::new(
                        DiagnosticCode::RecordParse,
                        Location::file(&path_str, raw.line, raw.offset),
                        "chunk record after the trailer".to_string(),
                    ));
                }
                l.check_chunk(&chunk, file);
            }
            ChunkFileRecord::Trailer(t) => {
                if trailer.is_some() {
                    if let Some(ref mut l) = linter {
                        l.emit(Diagnostic::new(
                            DiagnosticCode::RecordParse,
                            Location::file(&path_str, raw.line, raw.offset),
                            "unexpected second trailer record".to_string(),
                        ));
                    }
                } else {
                    trailer = Some((t, raw.line, raw.offset));
                }
            }
        }
    }

    let mut linter = linter.unwrap_or_else(|| {
        let mut l = StreamLinter::new(config.clone(), None, Some(path_str.clone()));
        for d in pre_header.drain(..) {
            l.emit(d);
        }
        if l.stats_mut().chunks == 0 && trailer.is_none() && bytes == 0 {
            l.emit(Diagnostic::new(
                DiagnosticCode::RecordParse,
                Location::file(&path_str, 1, 0),
                "empty chunk file".to_string(),
            ));
        }
        l
    });
    linter.stats_mut().bytes = bytes;
    if trailer.is_none() {
        linter.emit(Diagnostic::new(
            DiagnosticCode::MissingTrailer,
            Location::file(&path_str, last_line, bytes),
            "chunk file ended without a trailer record".to_string(),
        ));
    }
    let (trailer, loc) = match &trailer {
        Some((t, line, offset)) => (Some(t), Some((*line, *offset))),
        None => (None, None),
    };
    linter.finish(trailer, loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use perfplay_trace::{
        CodeSiteId, LockGrant, LockId, ObjectId, ThreadSpan, TimedEvent, TraceMeta,
    };

    fn clean_trace() -> Trace {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        for (ti, base) in [(0usize, 0u64), (1, 10)] {
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
                at: Time::from_nanos(11),
            },
        ];
        trace.total_time = Time::from_nanos(20);
        trace
    }

    #[test]
    fn clean_trace_lints_clean_at_every_chunking() {
        let trace = clean_trace();
        for chunk_events in 1..=9 {
            let report = lint_trace(&trace, chunk_events);
            assert!(
                report.is_clean(),
                "chunk_events={chunk_events}: {}",
                report.render_human()
            );
            assert_eq!(report.stats.events, trace.num_events() as u64);
            assert_eq!(report.stats.grants, 2);
        }
    }

    #[test]
    fn unbalanced_release_is_flagged() {
        let mut trace = clean_trace();
        trace.threads[0].events[2].event = Event::LockRelease {
            lock: LockId::new(5),
        };
        let report = lint_trace(&trace, 4);
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&DiagnosticCode::UnbalancedRelease),
            "{codes:?}"
        );
        assert!(codes.contains(&DiagnosticCode::UnreleasedLock), "{codes:?}");
    }

    #[test]
    fn reentrant_acquire_is_flagged() {
        let mut trace = clean_trace();
        trace.threads[1].events[1].event = Event::LockAcquire {
            lock: LockId::new(0),
            site: CodeSiteId::new(0),
        };
        let report = lint_trace(&trace, 4);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::ReentrantAcquire));
    }

    /// A re-entrant acquire stays open, as it does for detection: released
    /// twice it leaves nothing held, released once it leaves one acquire.
    #[test]
    fn reentrant_acquire_stays_open_until_released() {
        let acquire = Event::LockAcquire {
            lock: LockId::new(0),
            site: CodeSiteId::new(0),
        };
        let release = Event::LockRelease {
            lock: LockId::new(0),
        };
        let cases = [
            (
                vec![
                    acquire.clone(),
                    acquire.clone(),
                    release.clone(),
                    release.clone(),
                ],
                vec![DiagnosticCode::ReentrantAcquire],
            ),
            (
                vec![acquire.clone(), acquire, release],
                vec![
                    DiagnosticCode::ReentrantAcquire,
                    DiagnosticCode::UnreleasedLock,
                ],
            ),
        ];
        for (events, expected) in cases {
            let mut trace = Trace::new(TraceMeta::default(), 1);
            for (i, event) in events.into_iter().enumerate() {
                trace.threads[0].push(Time::from_nanos(i as u64 + 1), event);
            }
            for chunk_events in 1..=4 {
                let report = lint_trace(&trace, chunk_events);
                let codes: Vec<DiagnosticCode> =
                    report.diagnostics.iter().map(|d| d.code).collect();
                assert_eq!(codes, expected, "{}", report.render_human());
            }
        }
    }

    #[test]
    fn count_mismatch_when_expectations_disagree() {
        let trace = clean_trace();
        let config = LintConfig {
            expected_events: Some(99),
            expected_grants: Some(2),
            ..LintConfig::default()
        };
        let mut source = TraceChunks::new(&trace, 4);
        let report = lint_source(&mut source, &config);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.diagnostics[0].code, DiagnosticCode::CountMismatch);
    }

    #[test]
    fn hand_built_malformed_chunks_are_located() {
        let mut linter = StreamLinter::new(LintConfig::default(), Some(1), None);
        let mk = |seq: u64, window: u64, base: usize, times: &[u64]| TraceChunk {
            seq,
            window_end: Time::from_nanos(window),
            spans: vec![ThreadSpan {
                thread: ThreadId::new(0),
                base_index: base,
                events: times
                    .iter()
                    .map(|&t| {
                        TimedEvent::new(
                            Time::from_nanos(t),
                            Event::Read {
                                obj: ObjectId::new(0),
                                value: 0,
                            },
                        )
                    })
                    .collect(),
            }],
            grants: Vec::new(),
        };
        linter.check_chunk(&mk(0, 10, 0, &[1, 2]), None);
        // seq jumps (L005), base jumps (L002), one event behind the previous
        // window (L001).
        linter.check_chunk(&mk(2, 20, 5, &[9, 15]), None);
        let report = linter.finish(None, None);
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&DiagnosticCode::WindowNotAdvancing),
            "{codes:?}"
        );
        assert!(
            codes.contains(&DiagnosticCode::NonContiguousSpan),
            "{codes:?}"
        );
        assert!(
            codes.contains(&DiagnosticCode::NonMonotonicTime),
            "{codes:?}"
        );
        let l001 = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagnosticCode::NonMonotonicTime)
            .expect("L001 present");
        assert_eq!(l001.location.chunk, Some(2));
        assert_eq!(l001.location.event_index, Some(5));
    }

    #[test]
    fn unpaired_wait_is_a_warning_and_signal_pairs_it() {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        trace.threads[0].push(
            Time::from_nanos(1),
            Event::LockAcquire {
                lock: LockId::new(0),
                site: CodeSiteId::new(0),
            },
        );
        trace.threads[0].push(
            Time::from_nanos(2),
            Event::CondWait {
                cond: CondId::new(0),
                lock: LockId::new(0),
            },
        );
        trace.threads[0].push(
            Time::from_nanos(3),
            Event::LockRelease {
                lock: LockId::new(0),
            },
        );
        let unpaired = lint_trace(&trace, 8);
        assert_eq!(unpaired.errors(), 0);
        assert!(
            unpaired
                .diagnostics
                .iter()
                .any(|d| d.code == DiagnosticCode::UnpairedCondWait
                    && d.severity == Severity::Warning)
        );

        trace.threads[1].push(
            Time::from_nanos(5),
            Event::CondSignal {
                cond: CondId::new(0),
                broadcast: false,
            },
        );
        let paired = lint_trace(&trace, 8);
        assert!(!paired
            .diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::UnpairedCondWait));
    }

    #[test]
    fn barrier_group_sizes_must_be_consistent() {
        let mut trace = Trace::new(TraceMeta::default(), 3);
        // First barrier round: all three arrive (same completion time).
        for ti in 0..3 {
            trace.threads[ti].push(
                Time::from_nanos(5),
                Event::BarrierWait {
                    barrier: BarrierId::new(0),
                },
            );
        }
        // Second round: only two arrive.
        for ti in 0..2 {
            trace.threads[ti].push(
                Time::from_nanos(9),
                Event::BarrierWait {
                    barrier: BarrierId::new(0),
                },
            );
        }
        let report = lint_trace(&trace, 16);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::BarrierGroupMismatch));
        assert_eq!(report.errors(), 0);
    }

    #[test]
    fn nested_locks_build_order_edges_and_inversion_warns() {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        let site = CodeSiteId::new(0);
        let (a, b) = (LockId::new(0), LockId::new(1));
        // T0: a then b (nested); T1: b then a.
        let t0 = &mut trace.threads[0];
        t0.push(Time::from_nanos(1), Event::LockAcquire { lock: a, site });
        t0.push(Time::from_nanos(2), Event::LockAcquire { lock: b, site });
        t0.push(Time::from_nanos(3), Event::LockRelease { lock: b });
        t0.push(Time::from_nanos(4), Event::LockRelease { lock: a });
        let t1 = &mut trace.threads[1];
        t1.push(Time::from_nanos(11), Event::LockAcquire { lock: b, site });
        t1.push(Time::from_nanos(12), Event::LockAcquire { lock: a, site });
        t1.push(Time::from_nanos(13), Event::LockRelease { lock: a });
        t1.push(Time::from_nanos(14), Event::LockRelease { lock: b });
        let report = lint_trace(&trace, 16);
        assert_eq!(report.errors(), 0, "{}", report.render_human());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagnosticCode::TraceLockOrderCycle)
            .expect("D001 fires");
        assert_eq!(d.severity, Severity::Warning);
        assert!(!d.witness.is_empty());
    }

    #[test]
    fn diagnostics_are_capped() {
        let config = LintConfig {
            max_diagnostics: 3,
            ..LintConfig::default()
        };
        let mut linter = StreamLinter::new(config, Some(1), None);
        for seq in [5u64, 3, 1, 9, 2] {
            linter.check_chunk(
                &TraceChunk {
                    seq,
                    window_end: Time::from_nanos(1),
                    spans: Vec::new(),
                    grants: Vec::new(),
                },
                None,
            );
        }
        let report = linter.finish(None, None);
        assert_eq!(report.diagnostics.len(), 3);
        assert!(report.stats.suppressed > 0);
    }

    #[test]
    fn no_seq_follows_the_largest() {
        let mut linter = StreamLinter::new(LintConfig::default(), Some(1), None);
        for seq in [u64::MAX, 0] {
            linter.check_chunk(
                &TraceChunk {
                    seq,
                    window_end: Time::from_nanos(1),
                    spans: Vec::new(),
                    grants: Vec::new(),
                },
                None,
            );
        }
        let report = linter.finish(None, None);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagnosticCode::WindowNotAdvancing)
            .expect("L005 fires");
        assert_eq!(d.code.code_str(), "L005");
        assert_eq!(
            d.message,
            format!("chunk seq 0 does not follow {}", u64::MAX)
        );
    }

    /// `lint_chunk_file` scans through the pipelined scanner; over the
    /// inline reference scanner the same loop must give the same report,
    /// finding for finding, on clean, bit-flipped and truncated files.
    #[test]
    fn file_lint_matches_the_inline_scanner() {
        use perfplay_record::{spill_trace_with_format, Recorder};
        use perfplay_sim::SimConfig;
        use perfplay_trace::ChunkFormat;
        use perfplay_workloads::{random_workload, GeneratorConfig};

        let program = random_workload(
            17,
            &GeneratorConfig {
                threads: 3,
                locks: 2,
                objects: 6,
                sections_per_thread: 12,
            },
        );
        let trace = Recorder::new(SimConfig::default())
            .record(&program)
            .expect("seeded recording succeeds")
            .trace;
        let dir = std::env::temp_dir();
        let config = LintConfig::default();
        for format in [ChunkFormat::Json, ChunkFormat::Pbin] {
            let path = dir.join(format!(
                "perfplay-lint-scanners-{}.{}",
                std::process::id(),
                format.name()
            ));
            spill_trace_with_format(&trace, &path, 16, format).unwrap();
            let clean = std::fs::read(&path).unwrap();
            let mut inputs = vec![("clean", clean.clone())];
            for at in [clean.len() / 3, clean.len() / 2, 2 * clean.len() / 3] {
                let mut flipped = clean.clone();
                flipped[at] ^= 0x04;
                inputs.push(("flipped", flipped));
                inputs.push(("truncated", clean[..at].to_vec()));
            }
            for (tag, bytes) in inputs {
                std::fs::write(&path, bytes).unwrap();
                let pipelined = lint_chunk_file(&path, &config);
                let records = RawChunkRecords::open(&path).unwrap();
                let inline = lint_records(path.display().to_string(), records, &config);
                assert_eq!(
                    pipelined.to_json(),
                    inline.to_json(),
                    "{format:?} {tag} file"
                );
                assert_eq!(
                    pipelined.is_clean(),
                    tag == "clean",
                    "{format:?} {tag} file"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A header that follows a chunk record is out of place, not a second
    /// header: with the golden file's header and first chunk swapped, line 1
    /// lacks its header and line 2 is the header after chunk records.
    #[test]
    fn a_late_header_is_not_called_a_second_header() {
        let golden = include_str!("../../../tests/fixtures/golden-chunks.jsonl");
        let mut lines: Vec<&str> = golden.lines().collect();
        lines.swap(0, 1);
        let path = std::env::temp_dir().join(format!(
            "perfplay-lint-late-header-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let report = lint_chunk_file(&path, &LintConfig::default());
        std::fs::remove_file(&path).unwrap();
        let parse: Vec<(Option<usize>, &str)> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagnosticCode::RecordParse)
            .map(|d| (d.location.line, d.message.as_str()))
            .collect();
        assert_eq!(
            parse,
            [
                (Some(1), "chunk file does not start with a header record"),
                (Some(2), "header record after chunk records"),
            ]
        );
    }
}
