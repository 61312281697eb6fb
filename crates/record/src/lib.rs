//! # perfplay-record
//!
//! Recording front-end for the PerfPlay framework: turns program executions
//! into `perfplay-trace` traces.
//!
//! Two recorders are provided:
//!
//! * [`Recorder`] — the one the analysis pipeline uses. It executes a
//!   `perfplay-program` on the deterministic simulator and records the full
//!   event stream, optionally applying the paper's *selective recording*
//!   (compressing computation outside critical sections into state-delta
//!   skip events).
//! * [`WallClockRecorder`] — wraps real `parking_lot` mutexes and real
//!   threads, producing the same trace format from genuine concurrent
//!   executions. It demonstrates the recording API the paper's Pin tool
//!   exposes, and feeds the lockset-overhead micro-benchmarks.
//!
//! [`checkpoints`] locates checkpoint markers so that replay debugging can be
//! focused on a smaller region, mirroring Section 5.1 of the paper.
//!
//! Recordings can be spilled to chunk files as they happen
//! ([`ChunkedWriter`], [`spill_trace`]). [`convert_chunk_file`] translates
//! a chunk file between the JSON-lines and PBIN formats; it reads through
//! the pipelined scanner, like every library entry point's input.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chunked;
mod recorder;
mod wallclock;

pub use chunked::{
    convert_chunk_file, spill_trace, spill_trace_with_format, ChunkedWriteSummary, ChunkedWriter,
    ConvertSummary,
};
pub use recorder::{
    checkpoints, selective_compress, CheckpointLocation, RecordedExecution, Recorder, RecordingMode,
};
pub use wallclock::{RecGuard, RecMutex, RecShared, RecWorker, WallClockRecorder};
