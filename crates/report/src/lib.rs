//! # perfplay-report
//!
//! The performance-debugging stage of PerfPlay (Section 4 of the paper):
//! turns the two replayed executions — original and ULCP-free — into the
//! programmer-facing answer *"which code region should I fix first, and how
//! much would it buy me?"*
//!
//! * [`pair_gain_ns`] evaluates **Equation 1** (`ΔT_ULCP = ΔMAX{Time2, Time3} −
//!   ΔTime1`) for one pair of critical sections, using the per-event
//!   completion times both replays expose. [`ReplayGains`] is the
//!   [`GainSource`](perfplay_detect::GainSource) that lets a plan pass
//!   ([`Detector::plan`](perfplay_detect::Detector::plan)) fold those gains
//!   per code-site pair into the plan's aggregate rows.
//! * [`fuse_aggregates`] implements **Algorithm 2** (ULCP fusion and
//!   performance accumulation per code region), seeded from a per-site
//!   [`SiteAggregates`](perfplay_detect::SiteAggregates) table, and
//!   [`rank_groups`] applies **Equation 2** to rank regions by relative
//!   optimization opportunity `P`.
//! * [`ImpactSplit`] separates the whole-program impact into performance
//!   degradation `T_pd` and CPU resource waste `T_rw`, the two bands of
//!   Figure 14.
//! * [`PerfReport`] bundles everything, renders a human-readable summary and
//!   serializes to JSON. [`PerfReport::from_plan`] ranks by a plan's own
//!   aggregate rows; [`PerfReport::with_gains`] re-ranks by another plan's
//!   rows, such as the exact table a [`ReplayGains`] plan pass folds.
//! * [`analyze_plan`] runs the whole pipeline — one detection pass whose
//!   compact [`DetectionPlan`](perfplay_detect::DetectionPlan) output drives
//!   transform, both replays and the report — and [`analyze_batch`] lifts it
//!   to N traces analyzed concurrently with one fused ranked report (the
//!   paper's Table 1 sweep as a single call). Both rank by the
//!   detection-time [`BodyOverlapGain`](perfplay_detect::BodyOverlapGain)
//!   proxy; the `PerfPlay` facade re-ranks [`analyze_plan`]'s report by
//!   exact Equation 1 gains.
//!
//! No stage after detection reads a pair list: every report is seeded from
//! per-site rows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fusion;
mod metrics;
mod pipeline;
mod report;

pub use fusion::{fuse_aggregates, rank_groups, GroupedUlcp, Recommendation};
pub use metrics::{pair_gain_ns, segment_anchors, ImpactSplit, ReplayGains, SegmentAnchors};
pub use pipeline::{
    analyze_batch, analyze_batch_sequential, analyze_chunk_files, analyze_plan, BatchAnalysis,
    BatchItemError, ChunkBatchAnalysis, ChunkStreamAnalysis, PipelineConfig, PipelineError,
    PlanAnalysis,
};
pub use report::PerfReport;
