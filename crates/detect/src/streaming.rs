//! Result types of streamed detection.
//!
//! [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) loads an
//! `EventSource` into memory and detects it with the batch engine, returning
//! a [`StreamingAnalysis`] (or, with a caller-supplied sink, a
//! [`StreamingSinkAnalysis`]). Both carry [`StreamingStats`]: what the stream
//! delivered, what a recovering source lost, and how large the section
//! table and the last-write index of the loaded trace were.

use perfplay_trace::CriticalSection;

use crate::pairing::{UlcpAnalysis, UlcpBreakdown};

/// What one streamed detection run read and held: the stream's chunks,
/// events and gaps, and the sizes of what detection built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamingStats {
    /// Chunks consumed.
    pub chunks: usize,
    /// Total events consumed.
    pub events: usize,
    /// Critical sections extracted.
    pub sections: usize,
    /// Events of the largest single chunk.
    pub peak_chunk_events: usize,
    /// Sections detection held at once: the whole section table of the
    /// loaded trace, so equal to `sections`.
    pub peak_live_sections: usize,
    /// Writes plus first-read anchors of the
    /// [`LastWriteIndex`](crate::LastWriteIndex) detection built over the
    /// loaded trace (0 when the reversed replay is off).
    pub peak_history_entries: usize,
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
/// engine's over the surviving events) plus the stream accounting.
#[derive(Debug, Clone)]
pub struct StreamingAnalysis {
    /// The ULCP analysis.
    pub analysis: UlcpAnalysis,
    /// Stream statistics of the run.
    pub stats: StreamingStats,
}

/// The output of a streaming run into a caller-supplied sink: sections and
/// breakdown (maintained by the engine), the sink, and the stream
/// accounting.
#[derive(Debug, Clone)]
pub struct StreamingSinkAnalysis<S> {
    /// Every closed critical section, indexed by `SectionId::index`.
    pub sections: Vec<CriticalSection>,
    /// Per-category pair counts.
    pub breakdown: UlcpBreakdown,
    /// The sink, sealed in the canonical batch-engine order.
    pub sink: S,
    /// Stream statistics of the run.
    pub stats: StreamingStats,
}
