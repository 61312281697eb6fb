//! # perfplay-lint
//!
//! Static analysis over PerfPlay traces, chunk files and transformed
//! schedules — no detection, no replay.
//!
//! The PerfPlay pipeline (record → identify ULCPs → transform → ULCP-free
//! replay) trusts its inputs: a malformed chunk file surfaces as a stream
//! error deep inside detection, and a lock-order inversion introduced by
//! the transformation (RULEs 2–4 add aux locks and order constraints)
//! surfaces as `ReplayError::Stuck` after an expensive replay. This crate
//! moves both failure classes to a cheap static pass:
//!
//! * **Well-formedness lint** ([`lint_chunk_file`], [`lint_source`],
//!   [`lint_trace`]) — streams chunk by chunk with chunk-bounded memory and
//!   checks monotonic timestamps, dense chunk/grant sequencing, per-thread
//!   span contiguity, balanced and LIFO lock acquire/release, condvar
//!   wait/signal pairing, barrier group completeness, and trailer/count
//!   reconciliation. A 12M-event file lints without materializing a
//!   `Trace`. Chunk files are read through the pipelined scanner, like
//!   every library entry point's input.
//! * **Lock-order analysis** ([`LockOrderGraph`], [`analyze_schedule`]) —
//!   a Goodlock-style acquisition-order graph over the trace (cycles across
//!   ≥2 threads → `D001`), and a wait-graph over a [`TransformedTrace`]'s
//!   sections, order constraints and nesting (cycles → `D002`, a schedule
//!   the ULCP-free replayer *cannot* finish — caught here statically
//!   instead of as a stuck replay).
//! * **Coded diagnostics** ([`Diagnostic`], [`DiagnosticCode`]) — every
//!   finding carries a stable `L0xx`/`D0xx` code, a severity, a precise
//!   location (file/line/byte offset or chunk/thread/event index) and
//!   machine-checkable witness lines, with human and JSON renderers.
//!
//! [`codes_for_fault`] documents the deterministic contract between the
//! fault injector's nine [`FaultKind`](perfplay_detect::FaultKind)s and the
//! codes the linter emits for each; CI enforces it on fixed seeds.
//!
//! ```
//! use perfplay_lint::{lint_trace, DiagnosticCode};
//! use perfplay_trace::{CodeSiteId, Event, LockId, Time, Trace, TraceMeta};
//!
//! let mut trace = Trace::new(TraceMeta::default(), 1);
//! trace.threads[0].push(
//!     Time::from_nanos(1),
//!     Event::LockAcquire { lock: LockId::new(0), site: CodeSiteId::new(0) },
//! );
//! // Released lock L1, but L0 is held: unbalanced release + unreleased lock.
//! trace.threads[0].push(Time::from_nanos(2), Event::LockRelease { lock: LockId::new(1) });
//!
//! let report = lint_trace(&trace, 64);
//! assert!(!report.is_clean());
//! assert!(report.diagnostics.iter().any(|d| d.code == DiagnosticCode::UnbalancedRelease));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diag;
mod faults;
mod lockorder;
mod wellformed;

pub use diag::{Diagnostic, DiagnosticCode, LintReport, LintStats, Location, Severity};
pub use faults::{codes_for_fault, FaultExpectation};
pub use lockorder::{analyze_schedule, LockOrderGraph};
pub use wellformed::{lint_chunk_file, lint_source, lint_trace, LintConfig, StreamLinter};

// Re-exported so downstream code can name the schedule type the analyses
// operate on without depending on perfplay-transform directly.
pub use perfplay_transform::TransformedTrace;
