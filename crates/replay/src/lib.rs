//! # perfplay-replay
//!
//! The replay engine of the PerfPlay framework: re-executes recorded traces
//! under controlled schedules and re-executes the ULCP-free transformed trace
//! so the two can be compared.
//!
//! * [`Replayer`] replays the *original* trace under one of four schemes
//!   ([`ScheduleKind`]): the paper's **ELSC-S** (enforced locking
//!   serialization constraint, Section 5.2), the free-running **ORIG-S**, the
//!   Kendo-style **SYNC-S**, and the PinPlay/CoreDet-style **MEM-S**.
//! * [`UlcpFreeReplayer`] replays the [`TransformedTrace`]
//!   produced by `perfplay-transform`, honouring the RULE 2 ordering, the
//!   RULE 3/4 lockset semantics, and optionally the dynamic locking strategy.
//! * [`measure_fidelity`] quantifies performance stability and precision
//!   across repeated replays (Figure 13).
//!
//! Both replayers run on one shared event-driven scheduler core (the
//! private `engine` module): a clock-keyed ready heap plus targeted
//! per-lock / per-condvar / per-barrier wake lists make each step `O(log T)`
//! in the thread count, where the historical loops paid `O(T)` per step and
//! woke every blocked thread on any progress. Every per-event table of the engine
//! and both policies is indexed by a dense id (lock, auxiliary lock,
//! section, thread and event index), and each original-trace replay builds
//! only the schedule tables its [`ScheduleKind`] reads. The historical loops
//! are retained as executable specifications — [`reference_replay_original`]
//! and [`reference_replay_free`] — and the optimized engine is proven
//! bit-identical to them by the property suite and the `replay_scaling`
//! benchmark.
//!
//! [`TransformedTrace`]: perfplay_transform::TransformedTrace

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod common;
mod engine;
mod fidelity;
mod free;
mod original;
mod reference;
mod result;
mod schedule;

pub use common::ReplayConfig;
pub use fidelity::{measure_fidelity, FidelityReport};
pub use free::UlcpFreeReplayer;
pub use original::Replayer;
pub use reference::{reference_replay_free, reference_replay_original};
pub use result::{ReplayError, ReplayResult, ThreadCursor, ThreadReplayTiming};
pub use schedule::{ReplaySchedule, ScheduleKind};
