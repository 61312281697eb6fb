//! # perfplay-transform
//!
//! ULCP trace transformation (Section 3 of the PerfPlay paper): turns a
//! recorded trace plus its detection plan into a **ULCP-free trace** whose
//! synchronization keeps only the causal dependencies of true lock
//! contention.
//!
//! The stages are:
//!
//! 1. [`Topology`] — the causal-order topology of RULE 1 (nodes are critical
//!    sections, edges are TLCPs found by the detector's sequential search),
//!    in tables indexed by section id;
//! 2. [`Transformer::transform_from_plan`] — applies RULE 2 (partial-order
//!    preservation), RULE 3 (auxiliary-lock locksets) and RULE 4
//!    (lockset-intersection mutual exclusion), strips null-locks and
//!    standalone nodes, and reports benign pairs as potential data races
//!    (Theorem 1);
//! 3. [`dynamic_lockset`] — the dynamic locking strategy of Figure 9, used by
//!    the replayer to prune locks of already-finished source nodes and keep
//!    lockset maintenance overhead low (Table 3).
//!
//! The input is the compact single-pass `perfplay_detect::DetectionPlan`:
//! the section table, the causal edges and the benign pairs, which are the
//! only individual pairs the rules read. No pair list is ever consulted.
//!
//! The output, [`TransformedTrace`], is what `perfplay-replay` replays to
//! measure the performance the program would have had without ULCPs. It
//! borrows the recorded trace and the plan's section table, so the stage
//! copies neither.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod plan;
mod topology;

pub use plan::{
    dynamic_lockset, NodeSync, OrderConstraint, RaceWarning, TransformConfig, TransformStats,
    TransformedTrace, Transformer,
};
pub use topology::Topology;
