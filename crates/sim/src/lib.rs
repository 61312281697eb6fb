//! # perfplay-sim
//!
//! A deterministic discrete-event multicore simulator that executes
//! `perfplay-program` lock programs and records `perfplay-trace` traces.
//!
//! This crate is the hardware substitute for the PerfPlay reproduction: the
//! paper records real executions on a 2×quad-core Xeon through Intel Pin,
//! whereas here every thread runs on its own simulated core with a virtual
//! clock, and all inter-thread timing (lock hand-offs, condition variables,
//! barriers, spin-waits) is produced by the [`Executor`]'s event loop. The
//! result is bit-for-bit reproducible for a fixed seed, which is exactly the
//! property the paper's ELSC replay scheduler works hard to approximate on
//! real hardware.
//!
//! The crate exposes three layers:
//!
//! * [`SimConfig`] — the machine cost model (lock acquire/release/hand-off
//!   costs, memory access cost, tie-break seed);
//! * synchronization primitives — [`LockTable`], [`CondTable`],
//!   [`BarrierTable`] and the [`LockArbiter`] trait, which the executor
//!   runs on (the replay engine keeps its own scheduler state and uses this
//!   crate only in its tests);
//! * the [`Executor`] — interprets a program, producing an
//!   [`ExecutionResult`] with the recorded trace, per-thread
//!   [`ThreadTiming`] accounts and final shared-memory contents.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accounting;
mod config;
mod executor;
mod sync;

pub use accounting::{ExecutionTiming, ThreadTiming};
pub use config::SimConfig;
pub use executor::{ExecutionResult, Executor, SimError, DEFAULT_MAX_STEPS};
pub use sync::{
    BarrierState, BarrierTable, CondState, CondTable, FifoArbiter, LockArbiter, LockState,
    LockTable, WaitingRequest,
};
