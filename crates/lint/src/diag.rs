//! Coded diagnostics: the shared currency of every lint analysis.
//!
//! Each finding is a [`Diagnostic`] — a stable [`DiagnosticCode`]
//! (`L0xx` for trace/chunk-file well-formedness, `D0xx` for schedule
//! deadlock analysis), a [`Severity`], a [`Location`] pinpointing the
//! finding (file line/byte offset for chunk files, chunk/event indices for
//! in-flight streams, section ids for schedules), a human message, and a
//! witness: the concrete evidence (held locks, cycle edges, acquisition
//! sites) a programmer needs to judge the finding without re-running
//! anything.

use serde::{Serialize, Value};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not structurally fatal; the pipeline may still run
    /// (e.g. a lock held at end of stream, a deadlock *potential*).
    Warning,
    /// Structurally invalid input or a schedule that cannot replay; the
    /// preflight refuses to run the pipeline.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifier of one lint rule.
///
/// `L0xx` codes come from the streaming well-formedness lint over traces and
/// chunk files; `D0xx` codes come from the static deadlock analyses (the
/// Goodlock-style lock-order graph over traces and the wait-graph analysis
/// over transformed schedules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// An event timestamp goes backwards (within a thread, across chunks,
    /// or behind its chunk's window).
    NonMonotonicTime,
    /// A thread's span `base_index` disagrees with the events already seen
    /// for that thread (overlap or unexplained gap).
    NonContiguousSpan,
    /// A lock is released by a thread that does not hold it.
    UnbalancedRelease,
    /// A lock is still held when the stream ends.
    UnreleasedLock,
    /// Chunk sequence numbers or window bounds fail to advance.
    WindowNotAdvancing,
    /// The chunk file ends without a trailer record.
    MissingTrailer,
    /// A record line failed to parse as JSON or as a chunk-file record.
    RecordParse,
    /// Trailer (or caller-expected) totals disagree with the events and
    /// chunks actually seen.
    CountMismatch,
    /// A condition-variable wait with no signal at or after it.
    UnpairedCondWait,
    /// A barrier whose wait groups have inconsistent sizes.
    BarrierGroupMismatch,
    /// Locks released in non-LIFO order relative to acquisition.
    NonLifoRelease,
    /// A thread re-acquires a lock it already holds.
    ReentrantAcquire,
    /// A span names a thread outside the header's thread range.
    SpanOutOfRange,
    /// The chunk file could not be read at the I/O level.
    Io,
    /// The trace's lock acquisition-order graph has a cycle spanning two or
    /// more threads: a deadlock potential (Goodlock).
    TraceLockOrderCycle,
    /// The transformed schedule's wait graph has a cycle: the ULCP-free
    /// replay is certain to report `ReplayError::Stuck`.
    ScheduleWaitCycle,
    /// The transformed schedule is internally inconsistent (out-of-range
    /// ids, mismatched plan/section lengths, self-ordering constraints).
    ScheduleInconsistent,
}

impl DiagnosticCode {
    /// Every code, in code-string order. Drives the README table and the
    /// exhaustiveness tests.
    pub const ALL: [DiagnosticCode; 17] = [
        DiagnosticCode::NonMonotonicTime,
        DiagnosticCode::NonContiguousSpan,
        DiagnosticCode::UnbalancedRelease,
        DiagnosticCode::UnreleasedLock,
        DiagnosticCode::WindowNotAdvancing,
        DiagnosticCode::MissingTrailer,
        DiagnosticCode::RecordParse,
        DiagnosticCode::CountMismatch,
        DiagnosticCode::UnpairedCondWait,
        DiagnosticCode::BarrierGroupMismatch,
        DiagnosticCode::NonLifoRelease,
        DiagnosticCode::ReentrantAcquire,
        DiagnosticCode::SpanOutOfRange,
        DiagnosticCode::Io,
        DiagnosticCode::TraceLockOrderCycle,
        DiagnosticCode::ScheduleWaitCycle,
        DiagnosticCode::ScheduleInconsistent,
    ];

    /// The stable `L0xx`/`D0xx` code string.
    pub fn code_str(&self) -> &'static str {
        match self {
            DiagnosticCode::NonMonotonicTime => "L001",
            DiagnosticCode::NonContiguousSpan => "L002",
            DiagnosticCode::UnbalancedRelease => "L003",
            DiagnosticCode::UnreleasedLock => "L004",
            DiagnosticCode::WindowNotAdvancing => "L005",
            DiagnosticCode::MissingTrailer => "L006",
            DiagnosticCode::RecordParse => "L007",
            DiagnosticCode::CountMismatch => "L008",
            DiagnosticCode::UnpairedCondWait => "L009",
            DiagnosticCode::BarrierGroupMismatch => "L010",
            DiagnosticCode::NonLifoRelease => "L011",
            DiagnosticCode::ReentrantAcquire => "L012",
            DiagnosticCode::SpanOutOfRange => "L013",
            DiagnosticCode::Io => "L014",
            DiagnosticCode::TraceLockOrderCycle => "D001",
            DiagnosticCode::ScheduleWaitCycle => "D002",
            DiagnosticCode::ScheduleInconsistent => "D003",
        }
    }

    /// A short rule name, suitable for a table.
    pub fn name(&self) -> &'static str {
        match self {
            DiagnosticCode::NonMonotonicTime => "non-monotonic-time",
            DiagnosticCode::NonContiguousSpan => "non-contiguous-span",
            DiagnosticCode::UnbalancedRelease => "unbalanced-release",
            DiagnosticCode::UnreleasedLock => "unreleased-lock",
            DiagnosticCode::WindowNotAdvancing => "window-not-advancing",
            DiagnosticCode::MissingTrailer => "missing-trailer",
            DiagnosticCode::RecordParse => "record-parse",
            DiagnosticCode::CountMismatch => "count-mismatch",
            DiagnosticCode::UnpairedCondWait => "unpaired-cond-wait",
            DiagnosticCode::BarrierGroupMismatch => "barrier-group-mismatch",
            DiagnosticCode::NonLifoRelease => "non-lifo-release",
            DiagnosticCode::ReentrantAcquire => "reentrant-acquire",
            DiagnosticCode::SpanOutOfRange => "span-out-of-range",
            DiagnosticCode::Io => "io-error",
            DiagnosticCode::TraceLockOrderCycle => "trace-lock-order-cycle",
            DiagnosticCode::ScheduleWaitCycle => "schedule-wait-cycle",
            DiagnosticCode::ScheduleInconsistent => "schedule-inconsistent",
        }
    }

    /// The severity every diagnostic with this code carries.
    pub fn severity(&self) -> Severity {
        match self {
            DiagnosticCode::UnreleasedLock
            | DiagnosticCode::UnpairedCondWait
            | DiagnosticCode::BarrierGroupMismatch
            | DiagnosticCode::NonLifoRelease
            | DiagnosticCode::TraceLockOrderCycle => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description of the rule (README table / `--explain`).
    pub fn description(&self) -> &'static str {
        match self {
            DiagnosticCode::NonMonotonicTime => {
                "event timestamps must be non-decreasing per thread and inside their chunk window"
            }
            DiagnosticCode::NonContiguousSpan => {
                "a thread's spans must tile its event sequence contiguously across chunks"
            }
            DiagnosticCode::UnbalancedRelease => "a lock was released by a thread not holding it",
            DiagnosticCode::UnreleasedLock => "a lock was still held when the stream ended",
            DiagnosticCode::WindowNotAdvancing => {
                "chunk sequence numbers and window bounds must strictly advance"
            }
            DiagnosticCode::MissingTrailer => "the chunk file ended without a trailer record",
            DiagnosticCode::RecordParse => "a record line is not a valid chunk-file record",
            DiagnosticCode::CountMismatch => {
                "trailer/expected event and chunk totals disagree with the stream"
            }
            DiagnosticCode::UnpairedCondWait => {
                "a condition-variable wait has no signal at or after it"
            }
            DiagnosticCode::BarrierGroupMismatch => {
                "a barrier's wait groups have inconsistent sizes"
            }
            DiagnosticCode::NonLifoRelease => {
                "locks were released out of LIFO order relative to acquisition"
            }
            DiagnosticCode::ReentrantAcquire => "a thread re-acquired a lock it already holds",
            DiagnosticCode::SpanOutOfRange => {
                "a span names a thread outside the header's thread range"
            }
            DiagnosticCode::Io => "the chunk file could not be read",
            DiagnosticCode::TraceLockOrderCycle => {
                "the lock acquisition-order graph has a cross-thread cycle (deadlock potential)"
            }
            DiagnosticCode::ScheduleWaitCycle => {
                "the transformed schedule's wait graph has a cycle; ULCP-free replay will stick"
            }
            DiagnosticCode::ScheduleInconsistent => {
                "the transformed schedule is internally inconsistent"
            }
        }
    }
}

impl std::fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code_str())
    }
}

/// Where a finding is. Every field is optional: chunk-file lints carry
/// `path`/`line`/`offset`, in-flight stream lints carry `chunk`/`thread`/
/// `event_index`, schedule analyses carry `section`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Chunk file path, when linting a file.
    pub path: Option<String>,
    /// 1-based record line within the chunk file.
    pub line: Option<usize>,
    /// Byte offset of that line within the chunk file.
    pub offset: Option<u64>,
    /// Chunk sequence number.
    pub chunk: Option<u64>,
    /// Thread index.
    pub thread: Option<u32>,
    /// Global per-thread event index (the span `base_index` coordinate).
    pub event_index: Option<u64>,
    /// Critical-section id, for schedule diagnostics.
    pub section: Option<u32>,
}

impl Location {
    /// A location inside a chunk of an event stream.
    pub fn stream(chunk: u64) -> Self {
        Location {
            chunk: Some(chunk),
            ..Location::default()
        }
    }

    /// A location at one thread's event within a chunk.
    pub fn event(chunk: u64, thread: u32, event_index: u64) -> Self {
        Location {
            chunk: Some(chunk),
            thread: Some(thread),
            event_index: Some(event_index),
            ..Location::default()
        }
    }

    /// A location at a record line of a chunk file.
    pub fn file(path: &str, line: usize, offset: u64) -> Self {
        Location {
            path: Some(path.to_string()),
            line: Some(line),
            offset: Some(offset),
            ..Location::default()
        }
    }

    /// A location at a critical section of a schedule.
    pub fn section(section: u32) -> Self {
        Location {
            section: Some(section),
            ..Location::default()
        }
    }

    /// Attaches file coordinates (path, record line, byte offset) to this
    /// location, keeping the stream coordinates.
    pub fn in_file(mut self, path: &str, line: usize, offset: u64) -> Self {
        self.path = Some(path.to_string());
        self.line = Some(line);
        self.offset = Some(offset);
        self
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut wrote = false;
        if let Some(path) = &self.path {
            write!(f, "{path}")?;
            if let Some(line) = self.line {
                write!(f, ":{line}")?;
            }
            if let Some(offset) = self.offset {
                write!(f, " (byte {offset})")?;
            }
            wrote = true;
        }
        if let Some(chunk) = self.chunk {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "chunk {chunk}")?;
            wrote = true;
        }
        if let Some(thread) = self.thread {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "thread {thread}")?;
            wrote = true;
        }
        if let Some(index) = self.event_index {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "event {index}")?;
            wrote = true;
        }
        if let Some(section) = self.section {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "section {section}")?;
            wrote = true;
        }
        if !wrote {
            write!(f, "<unlocated>")?;
        }
        Ok(())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: DiagnosticCode,
    /// `code.severity()`, denormalized for renderers.
    pub severity: Severity,
    /// Where the finding is.
    pub location: Location,
    /// Human-readable explanation of this particular finding.
    pub message: String,
    /// Concrete evidence: held locks, cycle edges, acquisition sites.
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity comes from the code.
    pub fn new(code: DiagnosticCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
            witness: Vec::new(),
        }
    }

    /// Attaches witness lines.
    pub fn with_witness(mut self, witness: Vec<String>) -> Self {
        self.witness = witness;
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {} ({})",
            self.severity,
            self.code.code_str(),
            self.location,
            self.message,
            self.code.name()
        )
    }
}

/// Volume counters of one lint pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Chunks seen (including chunks later found invalid).
    pub chunks: u64,
    /// Thread events seen.
    pub events: u64,
    /// Lock grants seen.
    pub grants: u64,
    /// Bytes read, when linting a file (0 for in-memory sources).
    pub bytes: u64,
    /// Threads declared by the stream.
    pub threads: u32,
    /// Stream gaps reported by the source (always 0 for the raw file
    /// linter, which never skips).
    pub gaps: u64,
    /// Diagnostics dropped after
    /// [`LintConfig::max_diagnostics`](crate::LintConfig::max_diagnostics)
    /// was hit.
    pub suppressed: u64,
}

/// Everything one lint pass found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// The findings, in stream order.
    pub diagnostics: Vec<Diagnostic>,
    /// Volume counters.
    pub stats: LintStats,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when nothing fired at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report for a terminal: one line per finding, indented
    /// witness lines, and a trailing summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
            for w in &d.witness {
                out.push_str("    witness: ");
                out.push_str(w);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s); {} chunk(s), {} event(s), {} grant(s)",
            self.errors(),
            self.warnings(),
            self.stats.chunks,
            self.stats.events,
            self.stats.grants,
        ));
        if self.stats.suppressed > 0 {
            out.push_str(&format!(
                " ({} finding(s) suppressed)",
                self.stats.suppressed
            ));
        }
        out.push('\n');
        out
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{}\"}}", e.0))
    }
}

fn opt_value<T: Serialize>(v: &Option<T>) -> Value {
    match v {
        Some(v) => v.to_value(),
        None => Value::Null,
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for DiagnosticCode {
    fn to_value(&self) -> Value {
        Value::Str(self.code_str().to_string())
    }
}

impl Serialize for Location {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("path".to_string(), opt_value(&self.path)),
            ("line".to_string(), opt_value(&self.line)),
            ("offset".to_string(), opt_value(&self.offset)),
            ("chunk".to_string(), opt_value(&self.chunk)),
            ("thread".to_string(), opt_value(&self.thread)),
            ("event_index".to_string(), opt_value(&self.event_index)),
            ("section".to_string(), opt_value(&self.section)),
        ])
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), self.code.to_value()),
            ("name".to_string(), Value::Str(self.code.name().to_string())),
            ("severity".to_string(), self.severity.to_value()),
            ("location".to_string(), self.location.to_value()),
            ("message".to_string(), Value::Str(self.message.clone())),
            ("witness".to_string(), self.witness.to_value()),
        ])
    }
}

impl Serialize for LintStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("chunks".to_string(), Value::U64(self.chunks)),
            ("events".to_string(), Value::U64(self.events)),
            ("grants".to_string(), Value::U64(self.grants)),
            ("bytes".to_string(), Value::U64(self.bytes)),
            ("threads".to_string(), Value::U64(u64::from(self.threads))),
            ("gaps".to_string(), Value::U64(self.gaps)),
            ("suppressed".to_string(), Value::U64(self.suppressed)),
        ])
    }
}

impl Serialize for LintReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("errors".to_string(), Value::U64(self.errors() as u64)),
            ("warnings".to_string(), Value::U64(self.warnings() as u64)),
            ("diagnostics".to_string(), self.diagnostics.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for code in DiagnosticCode::ALL {
            let s = code.code_str();
            assert!(
                s.len() == 4 && (s.starts_with('L') || s.starts_with('D')),
                "{s}"
            );
            assert!(seen.insert(s), "duplicate code {s}");
            assert!(!code.name().is_empty());
            assert!(!code.description().is_empty());
        }
        assert_eq!(seen.len(), DiagnosticCode::ALL.len());
    }

    #[test]
    fn diagnostic_renders_code_and_location() {
        let d = Diagnostic::new(
            DiagnosticCode::NonMonotonicTime,
            Location::event(3, 1, 42),
            "time went backwards",
        )
        .with_witness(vec!["prev=10ns next=9ns".to_string()]);
        let text = d.to_string();
        assert!(text.contains("L001"));
        assert!(text.contains("chunk 3"));
        assert!(text.contains("thread 1"));
        let mut report = LintReport::default();
        report.diagnostics.push(d);
        let json = report.to_json();
        assert!(json.contains("\"code\": \"L001\""));
        assert!(json.contains("\"severity\": \"error\""));
        let human = report.render_human();
        assert!(human.contains("witness"));
        assert!(human.contains("1 error(s)"));
    }

    #[test]
    fn file_location_renders_path_line_offset() {
        let loc = Location::file("trace.jsonl", 7, 4096);
        let text = loc.to_string();
        assert!(text.contains("trace.jsonl:7"));
        assert!(text.contains("byte 4096"));
        assert_eq!(Location::default().to_string(), "<unlocated>");
    }
}
