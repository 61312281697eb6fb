//! Compact single-pass detection output: everything the downstream pipeline
//! stages need, without the pair list.
//!
//! The transformation (RULES 1–4) consumes three things from a detection run:
//! the section table, the causal-edge list (RULE 1's topology) and the benign
//! pairs (Theorem 1's race warnings). The report layer consumes the breakdown
//! and a per-site aggregate table. None of those is O(pairs): on the 12M-event
//! acceptance workload the edge and benign lists hold ~47k entries and the
//! aggregate table ~6k rows, against 153M classified pairs. A
//! [`PlanAggregator`] sink collects exactly this set during the scan, so one
//! detection pass feeds transform, replay admission *and* the ranked report —
//! the [`DetectionPlan`] — with no materialized pair vector anywhere. The
//! engines emit in the canonical order, so the retained lists come out in
//! it as they are pushed.

use perfplay_trace::{CriticalSection, SectionId, Trace};
use serde::{Deserialize, Serialize};

use crate::kinds::UlcpKind;
use crate::pairing::{CausalEdge, Detector, Ulcp, UlcpBreakdown};
use crate::parallel_stream::StreamingStats;
use crate::sink::{
    site_key, GainSource, SectionCtx, SinkAnalysis, SiteAggregates, SiteTable, UlcpSink,
};

/// The compact output of one detection pass: the section table, the
/// per-category breakdown, the causal edges and benign pairs (the only
/// individual pairs any later stage needs), and the per-site aggregate table.
///
/// Memory is O(sections + edges + benign + code sites) — the 153M-pair
/// vector of the materializing path never exists. Built by running any
/// detection engine into a [`PlanAggregator`] sink (see
/// [`Detector::plan`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionPlan {
    /// Every dynamic critical section, indexed by [`SectionId::index`].
    pub sections: Vec<CriticalSection>,
    /// Per-category pair counts (one Table 1 row).
    pub breakdown: UlcpBreakdown,
    /// All causal edges (TLCPs), in the canonical
    /// `(lock, from, to-thread, to)` order — RULE 1's topology input.
    pub edges: Vec<CausalEdge>,
    /// All benign ULCPs, in the canonical order — Theorem 1's race-warning
    /// input.
    pub benign: Vec<Ulcp>,
    /// Per-(site, site, kind) aggregate rows — the report layer's fusion
    /// seeds.
    pub aggregates: SiteAggregates,
}

/// Errors found validating a [`DetectionPlan`] of untrusted provenance
/// (e.g. deserialized from disk) before the pipeline consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// `sections[i].id != i`: the section table is not densely numbered.
    MisnumberedSection {
        /// Index into [`DetectionPlan::sections`].
        index: usize,
    },
    /// An edge or benign pair references a section id outside the table.
    DanglingSection {
        /// The out-of-range section id.
        id: SectionId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MisnumberedSection { index } => {
                write!(f, "plan section at index {index} is misnumbered")
            }
            PlanError::DanglingSection { id } => {
                write!(f, "plan references section {id:?} outside the table")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl DetectionPlan {
    /// Assembles a plan from a batch-engine run into a [`PlanAggregator`].
    pub fn from_batch<G: GainSource>(run: SinkAnalysis<PlanAggregator<G>>) -> Self {
        run.sink.into_plan(run.sections, run.breakdown)
    }

    /// Assembles a plan from a
    /// [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) run
    /// into a [`PlanAggregator`], keeping the run's stream statistics
    /// alongside.
    pub fn from_streaming<G: GainSource>(
        (analysis, stats): (SinkAnalysis<PlanAggregator<G>>, StreamingStats),
    ) -> (Self, StreamingStats) {
        (Self::from_batch(analysis), stats)
    }

    /// Returns the critical section for an id.
    pub fn section(&self, id: SectionId) -> &CriticalSection {
        &self.sections[id.index()]
    }

    /// Checks the internal references of a plan of untrusted provenance:
    /// every section id is dense, and every edge and benign pair points
    /// inside the section table. Engine-built plans satisfy this by
    /// construction; deserialized plans must be validated before
    /// [`section`](Self::section) (or any consumer that indexes the table)
    /// can be called without risking a panic.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (index, section) in self.sections.iter().enumerate() {
            if section.id.index() != index {
                return Err(PlanError::MisnumberedSection { index });
            }
        }
        let check = |id: SectionId| {
            if id.index() < self.sections.len() {
                Ok(())
            } else {
                Err(PlanError::DanglingSection { id })
            }
        };
        for edge in &self.edges {
            check(edge.from)?;
            check(edge.to)?;
        }
        for pair in &self.benign {
            check(pair.first)?;
            check(pair.second)?;
        }
        Ok(())
    }

    /// Entries the plan holds beyond the section table: aggregate rows plus
    /// the retained edge and benign pairs. perfbench reports it as
    /// `detect.plan_entries`.
    pub fn resident_entries(&self) -> usize {
        self.aggregates.len() + self.edges.len() + self.benign.len()
    }
}

impl Detector {
    /// One-pass plan detection: identifies every pair but retains only what
    /// the downstream pipeline needs (see [`DetectionPlan`]), accumulating
    /// per-site gains with the given detection-time [`GainSource`].
    pub fn plan<G: GainSource + Clone + Send + Sync>(
        &self,
        trace: &Trace,
        gain: G,
    ) -> DetectionPlan {
        DetectionPlan::from_batch(self.analyze_with(trace, PlanAggregator::new(gain)))
    }
}

/// The aggregating sink, and the single-pass pipeline's: folds each emitted
/// pair into a per-(first-site, second-site, kind) row at emission time, and
/// retains the causal edges and benign pairs — the only individual pairs the
/// transformation needs — in the canonical order the engines emit them in.
///
/// A pair costs one probe of a hash table keyed by the site pair packed into
/// one `u64`, each entry holding one cell per [`UlcpKind`];
/// [`into_plan`](Self::into_plan) sorts the keys once, so the rows come out
/// in ascending `(site_first, site_second, kind)` order. Counts and gains
/// add with saturation, which is commutative and associative (the result is
/// `min(true sum, u64::MAX)`), so the rows do not depend on emission order:
/// the sequential and parallel batch engine and the reference engine all
/// produce the identical table.
#[derive(Debug, Clone, Default)]
pub struct PlanAggregator<G: GainSource> {
    gain: G,
    table: SiteTable,
    edges: Vec<CausalEdge>,
    benign: Vec<Ulcp>,
}

impl<G: GainSource> PlanAggregator<G> {
    /// Creates a plan sink accumulating gains from the given source.
    pub fn new(gain: G) -> Self {
        PlanAggregator {
            gain,
            table: SiteTable::default(),
            edges: Vec::new(),
            benign: Vec::new(),
        }
    }

    /// Consumes the sink into a [`DetectionPlan`] together with the engine's
    /// section table and breakdown.
    pub fn into_plan(
        self,
        sections: Vec<CriticalSection>,
        breakdown: UlcpBreakdown,
    ) -> DetectionPlan {
        DetectionPlan {
            sections,
            breakdown,
            edges: self.edges,
            benign: self.benign,
            aggregates: self.table.finish(),
        }
    }
}

impl<G: GainSource + Clone> UlcpSink for PlanAggregator<G> {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        let gain = self.gain.pair_gain_ns(&ulcp, ctx).max(0) as u64;
        self.table.add_pairs(site_key(ctx), ulcp.kind, 1, gain);
        if ulcp.kind == UlcpKind::Benign {
            self.benign.push(ulcp);
        }
    }

    fn emit_edge(&mut self, edge: CausalEdge, ctx: &SectionCtx<'_>) {
        self.table.add_edges(site_key(ctx), 1);
        self.edges.push(edge);
    }

    fn fork(&self) -> Self {
        PlanAggregator::new(self.gain.clone())
    }

    fn absorb(&mut self, shard: Self) {
        self.table.absorb(shard.table);
        self.edges.extend(shard.edges);
        self.benign.extend(shard.benign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{BodyOverlapGain, NoGain};
    use crate::{DetectorConfig, ParallelStreamingDetector};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::TraceChunks;

    fn mixed_trace() -> Trace {
        let mut b = ProgramBuilder::new("plan-sink-test");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let flag = b.shared("done", 0);
        let site_r = b.site("p.c", "reader", 1);
        let site_w = b.site("p.c", "writer", 2);
        let site_b = b.site("p.c", "set_done", 3);
        for i in 0..3 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(3, |l| {
                    l.locked(lock, site_r, |cs| {
                        cs.read(x);
                    });
                    l.compute_ns(40);
                });
                t.locked(lock, site_w, |cs| {
                    let v = cs.read_into(x);
                    cs.write_add(x, 1);
                    let _ = v;
                });
                t.locked(lock, site_b, |cs| {
                    cs.write_set(flag, 1);
                });
            });
        }
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    /// Checks the plan against the collected analysis folded through a plan
    /// sink by hand, and returns it.
    fn assert_plan_matches_collected(config: DetectorConfig, trace: &Trace) -> DetectionPlan {
        let analysis = Detector::new(config).analyze(trace);
        let ctx = |first: SectionId, second: SectionId| SectionCtx {
            first: analysis.section(first),
            second: analysis.section(second),
        };
        let mut folded = PlanAggregator::new(BodyOverlapGain);
        for &u in &analysis.ulcps {
            folded.emit(u, &ctx(u.first, u.second));
        }
        for &e in &analysis.edges {
            folded.emit_edge(e, &ctx(e.from, e.to));
        }
        let expected = folded.into_plan(analysis.sections.clone(), analysis.breakdown);

        let plan = Detector::new(config).plan(trace, BodyOverlapGain);
        assert_eq!(plan, expected);
        assert_eq!(
            plan.benign,
            analysis
                .ulcps
                .iter()
                .copied()
                .filter(|u| u.kind == UlcpKind::Benign)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            plan.resident_entries(),
            plan.aggregates.len() + plan.edges.len() + plan.benign.len()
        );
        plan
    }

    #[test]
    fn plan_retains_edges_benign_and_aggregates_in_canonical_order() {
        let trace = mixed_trace();
        let plan = assert_plan_matches_collected(DetectorConfig::default(), &trace);
        assert!(
            !plan.benign.is_empty(),
            "workload must produce benign pairs"
        );
        assert!(!plan.edges.is_empty(), "workload must produce TLCP edges");
    }

    #[test]
    fn parallel_plan_is_bit_identical_to_sequential() {
        let trace = mixed_trace();
        let sequential = Detector::new(DetectorConfig {
            parallel: false,
            ..DetectorConfig::default()
        })
        .plan(&trace, NoGain);
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..DetectorConfig::default()
        })
        .plan(&trace, NoGain);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn streaming_plan_matches_batch_plan() {
        let trace = mixed_trace();
        let config = DetectorConfig::default();
        let batch = Detector::new(config).plan(&trace, BodyOverlapGain);
        for chunk_events in [1usize, 7, 1024] {
            for workers in [1, 2] {
                let streamed = ParallelStreamingDetector::with_workers(config, workers)
                    .analyze_with(
                        &mut TraceChunks::new(&trace, chunk_events),
                        PlanAggregator::new(BodyOverlapGain),
                    )
                    .unwrap();
                let (plan, stats) = DetectionPlan::from_streaming(streamed);
                assert_eq!(
                    plan, batch,
                    "chunk_events = {chunk_events} workers = {workers}"
                );
                assert!(stats.sections > 0);
            }
        }
    }
}
