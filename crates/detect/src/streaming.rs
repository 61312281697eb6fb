//! Result types of streaming detection.
//!
//! [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) consumes
//! an `EventSource` chunk by chunk and returns a [`StreamingAnalysis`] (or,
//! with a caller-supplied sink, a [`StreamingSinkAnalysis`]). Both carry
//! [`StreamingStats`]: what the stream delivered, what a recovering source
//! lost, and the peak resident state that shows memory stayed bounded by the
//! chunk size instead of growing with the event count.

use perfplay_trace::CriticalSection;

use crate::pairing::{UlcpAnalysis, UlcpBreakdown};

/// Peak-resident-state accounting of one streaming run: the evidence that
/// memory stayed bounded instead of growing with the event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamingStats {
    /// Chunks consumed.
    pub chunks: usize,
    /// Total events consumed.
    pub events: usize,
    /// Critical sections extracted.
    pub sections: usize,
    /// Largest single chunk (events) held resident.
    pub peak_chunk_events: usize,
    /// Peak count of sections whose pairing state was live at once
    /// (open + awaiting delivery + searching).
    pub peak_live_sections: usize,
    /// Peak number of retained write-log entries in the pruned history.
    pub peak_history_entries: usize,
    /// Peak number of entries the output sink held resident — individual
    /// pairs for a collecting sink, aggregate-table rows for an aggregating
    /// one. The field all BENCH artifacts report peak pair memory under.
    pub peak_live_pairs: usize,
    /// Sections whose pairing state was retired before the stream ended.
    pub retired_before_end: usize,
    /// Stream gaps a recovering source reported (0 on a clean stream).
    pub gaps: usize,
    /// Events known lost across those gaps.
    pub events_lost: u64,
}

impl StreamingStats {
    /// True if the source reported any gaps: the analysis is sound on what
    /// was seen, but not complete.
    pub fn is_gapped(&self) -> bool {
        self.gaps > 0
    }
}

/// The output of a streaming run: the analysis (bit-identical to the batch
/// engines) plus the resident-state accounting.
#[derive(Debug, Clone)]
pub struct StreamingAnalysis {
    /// The ULCP analysis.
    pub analysis: UlcpAnalysis,
    /// Resident-state statistics of the run.
    pub stats: StreamingStats,
}

/// The output of a streaming run into a caller-supplied sink: sections and
/// breakdown (maintained by the engine), the sink, and the resident-state
/// accounting.
#[derive(Debug, Clone)]
pub struct StreamingSinkAnalysis<S> {
    /// Every closed critical section, indexed by `SectionId::index`.
    pub sections: Vec<CriticalSection>,
    /// Per-category pair counts.
    pub breakdown: UlcpBreakdown,
    /// The sink, sealed in the canonical batch-engine order.
    pub sink: S,
    /// Resident-state statistics of the run.
    pub stats: StreamingStats,
}
