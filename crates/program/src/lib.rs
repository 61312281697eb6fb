//! # perfplay-program
//!
//! A small imperative intermediate representation (IR) for lock-based
//! multi-threaded programs, together with fluent builders.
//!
//! The PerfPlay paper instruments real x86 binaries with Intel Pin; this
//! reproduction instead expresses workloads in this IR and executes them on
//! the deterministic `perfplay-sim` simulator, recording exactly the event
//! stream the paper's recorder would capture. The IR covers the behaviours
//! that give rise to the paper's four ULCP categories:
//!
//! * **null-locks** — critical sections whose shared accesses sit behind a
//!   data-dependent branch ([`Stmt::If`] on a local, Figure 3 of the paper),
//! * **read-read** — sections that only [`Stmt::Read`] shared data
//!   (Figure 4's `dbmfp->ref` spin-wait),
//! * **disjoint-write** — sections writing different
//!   [`ObjectId`](perfplay_trace::ObjectId)s under one lock,
//! * **benign** — conflicting but commuting writes (same-value stores,
//!   disjoint-bit style updates) expressed through
//!   [`WriteOp`](perfplay_trace::WriteOp).
//!
//! See [`ProgramBuilder`] for the entry point.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod program;
mod stmt;

pub use builder::{BodyBuilder, ProgramBuilder};
pub use program::{BarrierDecl, ObjectDecl, Program, ProgramError, ProgramStats, ThreadSpec};
pub use stmt::{stmt_count, visit_stmts, CmpOp, Cond, LocalId, Stmt, ValueSource};
