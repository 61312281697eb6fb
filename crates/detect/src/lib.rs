//! # perfplay-detect
//!
//! ULCP identification for the PerfPlay framework.
//!
//! Given a recorded trace this crate finds every **unnecessary lock
//! contention pair (ULCP)** — two critical sections protected by the same
//! lock whose bodies do not actually conflict — and every **true lock
//! contention pair (TLCP)**, which later becomes a causal edge of the
//! ULCP-free topology.
//!
//! The stages mirror Section 3.1 of the paper:
//!
//! 1. critical sections and their shadow-memory read/write sets come from
//!    [`perfplay_trace::extract_critical_sections`];
//! 2. [`classify_by_sets`] implements Algorithm 1 (null-lock / read-read /
//!    disjoint-write by set intersection);
//! 3. [`refine_conflicting_pair`] implements the reversed-replay check that
//!    separates benign ULCPs from real conflicts;
//! 4. [`Detector::analyze`] runs the sequential-search pairing over every
//!    lock and produces the [`UlcpAnalysis`] (pairs, causal edges, and the
//!    per-category [`UlcpBreakdown`] that reproduces a row of Table 1).
//!
//! For a chunked event stream (`perfplay_trace::EventSource`), such as a
//! chunk file, [`ParallelStreamingDetector`] loads the stream with
//! `perfplay_trace::load_trace` and runs [`Detector::with_workers`] on the
//! loaded trace, so it returns the batch engine's [`SinkAnalysis`] bit for
//! bit, beside the stream's [`StreamingStats`]. One engine classifies every
//! pair, through one pairing kernel; [`reference_analyze`] stays as the test
//! oracle.
//!
//! Every engine emits its classified pairs through a [`UlcpSink`], in the
//! canonical `(lock, first, second-thread, second)` order. The
//! [`CollectPairs`] sink materializes the pair list, and its run converts
//! into the [`UlcpAnalysis`]. [`PlanAggregator`] instead folds each pair into
//! a per-(code-site, code-site, kind) aggregate at emission time, so dense
//! traces (tens of millions of pairs) can be analyzed with output memory
//! proportional to the number of *code sites*, which is what the report
//! layer groups by anyway. It keeps only the causal edges and benign pairs —
//! the only individual pairs any later pipeline stage needs — so one pass
//! produces a [`DetectionPlan`] that drives transformation, replay and
//! reporting without a pair list ever existing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod classify;
mod idhash;
mod inject;
mod kernel;
mod kinds;
mod pairing;
mod parallel_stream;
mod plan;
mod reference;
mod shadow;
mod sink;

pub use classify::{classify_by_sets, classify_pair, refine_conflicting_pair};
pub use inject::{corrupt_chunk_file, FaultInjector, FaultKind, FaultPlan};
pub use kinds::{PairClass, UlcpKind};
pub use pairing::{CausalEdge, Detector, DetectorConfig, Ulcp, UlcpAnalysis, UlcpBreakdown};
pub use parallel_stream::{ParallelStreamingDetector, StreamingStats};
pub use plan::{DetectionPlan, PlanAggregator, PlanError};
pub use reference::{reference_analyze, reference_analyze_with};
pub use shadow::{LastWriteIndex, MemorySnapshot, StartState, StateBefore};
pub use sink::{
    BodyOverlapGain, CollectPairs, EdgeAggregate, GainSource, NoGain, SectionCtx, SinkAnalysis,
    SiteAggregate, SiteAggregates, UlcpSink,
};
