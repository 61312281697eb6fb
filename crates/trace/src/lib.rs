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
    load_trace, read_chunked_trace, ChunkFileHeader, ChunkFileReader, ChunkFileRecord,
    ChunkFileTrailer, EventSource, LoadedTrace, RawChunkRecords, RawRecord, RecoveryPolicy,
    StreamError, StreamGap, StreamItem, ThreadSpan, TraceChunk, TraceChunks,
};
pub use time::Time;
pub use trace::{ThreadTrace, Trace, TraceError, TraceMeta};

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads this machine runs at once, or 1 where that is unknown.
/// It is the library's one reading of the core count
/// ([`std::thread::available_parallelism`]): every thread budget in the
/// pipeline starts here.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work(i)` for every index `i < items` on min(`threads`, `items`)
/// scoped threads (at least one) and returns the results in index order.
///
/// The threads share one work queue: each pops the next index from a shared
/// counter, so a costly item occupies one thread while the others drain the
/// rest. A panic in `work` reaches the caller with its own payload, once
/// every thread has stopped.
pub fn map_work_queue<T: Send>(
    items: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    // The counter only hands out indices; the results travel through the
    // joins.
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1).min(items))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break local;
                        }
                        local.push((i, work(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, result)| result).collect()
}
