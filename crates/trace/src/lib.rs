//! # perfplay-trace
//!
//! Execution-trace model for the PerfPlay lock-contention performance
//! debugging framework (a reproduction of *"On Performance Debugging of
//! Unnecessary Lock Contentions on Multicore Processors: A Replay-based
//! Approach"*, CGO 2015).
//!
//! A [`Trace`] is what PerfPlay's recorder produces and what every later
//! stage consumes:
//!
//! * per-thread streams of [`Event`]s (computation, lock acquire/release,
//!   shared reads/writes, condition variables, barriers, selective-recording
//!   skips, checkpoints) with original-execution timestamps,
//! * an interned [`SiteTable`] mapping events to static [`CodeSite`]s, and
//! * the global [`LockGrant`] schedule recorded at runtime, which the ELSC
//!   replay scheduler re-enforces to obtain stable, faithful replay timing.
//!
//! [`extract_critical_sections`] turns the raw streams into
//! [`CriticalSection`] values — the unit the ULCP analysis operates on.
//!
//! ```
//! use perfplay_trace::{
//!     extract_critical_sections, CodeSiteId, Event, LockId, ObjectId, Time, Trace, TraceMeta,
//! };
//!
//! let mut trace = Trace::new(TraceMeta::default(), 1);
//! trace.threads[0].push(
//!     Time::from_nanos(1),
//!     Event::LockAcquire { lock: LockId::new(0), site: CodeSiteId::new(0) },
//! );
//! trace.threads[0].push(
//!     Time::from_nanos(2),
//!     Event::Read { obj: ObjectId::new(0), value: 7 },
//! );
//! trace.threads[0].push(Time::from_nanos(3), Event::LockRelease { lock: LockId::new(0) });
//!
//! trace.validate()?;
//! let sections = extract_critical_sections(&trace);
//! assert_eq!(sections.len(), 1);
//! assert!(sections[0].is_read_only());
//! # Ok::<(), perfplay_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod contract;
mod event;
mod footprint;
mod frame;
mod ids;
pub mod pbin;
mod pipelined;
mod section;
mod site;
mod stats;
mod stream;
mod time;
mod trace;

pub use contract::{ChunkContract, ContractViolation};
pub use event::{Event, LockGrant, TimedEvent, WriteOp};
pub use footprint::Footprint;
pub use ids::{AuxLockId, BarrierId, CodeSiteId, CondId, LockId, ObjectId, SectionId, ThreadId};
pub use pbin::ChunkFormat;
pub use pipelined::{default_decode_workers, PipelinedChunkReader};
pub use section::{
    extract_critical_sections, sections_by_lock, CriticalSection, MemAccess, OpenLocks,
    SectionBuilder,
};
pub use site::{CodeRegion, CodeSite, SiteTable};
pub use stats::TraceStats;
pub use stream::{
    read_chunked_trace, ChunkFileHeader, ChunkFileReader, ChunkFileRecord, ChunkFileTrailer,
    EventSource, RawChunkRecords, RawRecord, RecoveryPolicy, StreamError, StreamGap, StreamItem,
    ThreadSpan, TraceChunk, TraceChunks,
};
pub use time::Time;
pub use trace::{ThreadTrace, Trace, TraceError, TraceMeta};

/// How many threads this machine runs at once, or 1 where that is unknown.
/// It is the library's one reading of the core count
/// ([`std::thread::available_parallelism`]): every thread budget in the
/// pipeline starts here.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
