//! The final performance-debugging report PerfPlay hands to the programmer.

use perfplay_detect::{DetectionPlan, SiteAggregates, UlcpBreakdown};
use perfplay_replay::ReplayResult;
use perfplay_trace::{Trace, TraceStats};
use perfplay_transform::{TransformStats, TransformedTrace};
use serde::{Deserialize, Serialize};

use crate::fusion::{fuse_aggregates, rank_groups, Recommendation};
use crate::metrics::ImpactSplit;

/// The complete output of one PerfPlay analysis: ULCP breakdown, whole-program
/// impact, and the ranked list of code regions worth fixing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Program name from the trace metadata.
    pub program: String,
    /// Input description from the trace metadata.
    pub input: String,
    /// Number of threads recorded.
    pub threads: usize,
    /// Trace-level statistics (events, acquisitions, sites).
    pub trace_stats: TraceStats,
    /// ULCP category breakdown (Table 1 row).
    pub breakdown: UlcpBreakdown,
    /// Whole-program impact: degradation and resource waste.
    pub impact: ImpactSplit,
    /// Fused, ranked code-region recommendations (Equation 2 order).
    pub recommendations: Vec<Recommendation>,
    /// Number of benign-pair data-race warnings the transformation reported.
    pub race_warnings: usize,
    /// Statistics of the ULCP-free transformation.
    pub transform_stats: TransformStats,
    /// Lockset maintenance overhead fraction observed during the ULCP-free
    /// replay (with whatever DLS setting was used).
    pub lockset_overhead_fraction: f64,
    /// Number of stream gaps the ingestion layer recovered from (corrupt or
    /// skipped chunks), as [`with_stream_gaps`](Self::with_stream_gaps)
    /// records them. Zero for in-memory traces and clean streams; when
    /// non-zero the report is sound for the events that survived, not the
    /// full execution.
    pub stream_gaps: usize,
    /// Total events lost to those gaps, as reconciled against the stream
    /// trailer when one was readable.
    pub stream_events_lost: u64,
}

/// The report fields that read only the trace and the plan, not the
/// transformation or a replay: the pipeline computes them beside the
/// ULCP-free replay.
#[derive(Debug)]
pub(crate) struct ReportParts {
    trace_stats: TraceStats,
    /// The plan's rows fused by Algorithm 2 and ranked by Equation 2.
    recommendations: Vec<Recommendation>,
}

impl ReportParts {
    pub(crate) fn of(trace: &Trace, plan: &DetectionPlan) -> Self {
        ReportParts {
            trace_stats: TraceStats::of(trace),
            recommendations: rank_groups(fuse_aggregates(&plan.aggregates)),
        }
    }
}

impl PerfReport {
    /// Assembles the report from a single-pass [`DetectionPlan`] and the two
    /// replays it drove. The breakdown comes from the plan, the race warnings
    /// and transform statistics from the transformation, and the ranking from
    /// the plan's aggregate rows (see [`with_gains`](Self::with_gains)), so
    /// no stage reads a pair list.
    ///
    /// The rows carry whatever detection-time
    /// [`GainSource`](perfplay_detect::GainSource) the plan's sink used
    /// ([`BodyOverlapGain`](perfplay_detect::BodyOverlapGain) in
    /// [`analyze_plan`](crate::analyze_plan), since Equation 1 gains do not
    /// exist before the replays run).
    pub fn from_plan(
        trace: &Trace,
        plan: &DetectionPlan,
        transformed: &TransformedTrace,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        Self::assemble(
            trace,
            plan,
            ReportParts::of(trace, plan),
            transformed,
            original_replay,
            ulcp_free_replay,
        )
    }

    /// [`from_plan`](Self::from_plan) with its [`ReportParts`] already
    /// computed: the one place a report's fields are listed.
    pub(crate) fn assemble(
        trace: &Trace,
        plan: &DetectionPlan,
        parts: ReportParts,
        transformed: &TransformedTrace,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        PerfReport {
            program: trace.meta.program.clone(),
            input: trace.meta.input.clone(),
            threads: trace.num_threads(),
            trace_stats: parts.trace_stats,
            breakdown: plan.breakdown,
            impact: ImpactSplit::with_total_gain(
                original_replay,
                ulcp_free_replay,
                plan.aggregates.total_gain_ns(),
            ),
            recommendations: parts.recommendations,
            race_warnings: transformed.race_warnings.len(),
            transform_stats: transformed.stats(),
            lockset_overhead_fraction: ulcp_free_replay.lockset_overhead_fraction(),
            stream_gaps: 0,
            stream_events_lost: 0,
        }
    }

    /// Ranks the report by a per-site gain table: Algorithm 2 fusion seeded
    /// from its rows, Equation 2 ranking, and the impact split with the
    /// table's total gain. Every other field is kept.
    ///
    /// [`from_plan`](Self::from_plan) ranks by the plan's own rows; the
    /// `PerfPlay` facade re-ranks by the `aggregates` of a second plan of
    /// the same trace: the exact Equation 1 table that
    /// [`Detector::plan`](perfplay_detect::Detector::plan) with
    /// [`ReplayGains`](crate::ReplayGains) folds after both replays.
    pub fn with_gains(
        self,
        aggregates: &SiteAggregates,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        PerfReport {
            impact: ImpactSplit::with_total_gain(
                original_replay,
                ulcp_free_replay,
                aggregates.total_gain_ns(),
            ),
            recommendations: rank_groups(fuse_aggregates(aggregates)),
            ..self
        }
    }

    /// Annotates the report with the stream gaps the ingestion layer
    /// recovered from. Returns `self` for builder-style chaining after
    /// [`from_plan`](Self::from_plan) when detection streamed from a file
    /// under a recovery policy. The library's in-memory entry points
    /// ([`analyze_plan`](crate::analyze_plan), [`analyze_batch`](crate::analyze_batch))
    /// detect with the batch engine and leave both counts zero.
    pub fn with_stream_gaps(mut self, gaps: usize, events_lost: u64) -> Self {
        self.stream_gaps = gaps;
        self.stream_events_lost = events_lost;
        self
    }

    /// Whether the underlying stream had recovered gaps — i.e. the numbers
    /// below describe the surviving events, not the full execution.
    pub fn is_gap_annotated(&self) -> bool {
        self.stream_gaps > 0
    }

    /// The most beneficial code-region recommendation, if any.
    pub fn top_recommendation(&self) -> Option<&Recommendation> {
        self.recommendations.first()
    }

    /// Number of fused (unique) ULCP code-region groups — the "grouped
    /// ULCPs" column of Table 2.
    pub fn grouped_ulcps(&self) -> usize {
        self.recommendations.len()
    }

    /// Relative opportunity of the top group — the `ULCP1.P` column of
    /// Table 2.
    pub fn top_opportunity(&self) -> f64 {
        self.top_recommendation()
            .map(|r| r.opportunity)
            .unwrap_or(0.0)
    }

    /// Normalized performance degradation (Figure 14's dark band).
    pub fn normalized_degradation(&self) -> f64 {
        self.impact.normalized_degradation()
    }

    /// Normalized CPU waste per thread (Figure 14's second band).
    pub fn normalized_waste_per_thread(&self) -> f64 {
        self.impact.normalized_waste_per_thread(self.threads)
    }

    /// Renders a human-readable report. The trace is needed to resolve code
    /// site identifiers back into file/function/line descriptions.
    pub fn render(&self, trace: &Trace) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "PerfPlay report — {} ({})", self.program, self.input);
        let _ = writeln!(
            out,
            "  threads: {}   dynamic lock acquisitions: {}",
            self.threads, self.breakdown.lock_acquisitions
        );
        let _ = writeln!(
            out,
            "  ULCPs: {} total  (NL {}, RR {}, DW {}, Benign {});  TLCP edges: {}",
            self.breakdown.total_ulcps(),
            self.breakdown.null_lock,
            self.breakdown.read_read,
            self.breakdown.disjoint_write,
            self.breakdown.benign,
            self.breakdown.tlcp_edges
        );
        let _ = writeln!(
            out,
            "  original {} -> ULCP-free {}  (degradation {:.2}%, CPU waste/thread {:.2}%)",
            self.impact.original_time,
            self.impact.ulcp_free_time,
            100.0 * self.normalized_degradation(),
            100.0 * self.normalized_waste_per_thread()
        );
        let _ = writeln!(
            out,
            "  race warnings: {}   lockset overhead: {:.2}%",
            self.race_warnings,
            100.0 * self.lockset_overhead_fraction
        );
        if self.is_gap_annotated() {
            let _ = writeln!(
                out,
                "  ! incomplete stream: {} gap(s), {} event(s) lost — results cover surviving events only",
                self.stream_gaps, self.stream_events_lost
            );
        }
        let _ = writeln!(out, "  recommendations ({} groups):", self.grouped_ulcps());
        for (rank, rec) in self.recommendations.iter().enumerate().take(10) {
            let describe = |region: &perfplay_trace::CodeRegion| {
                region
                    .iter()
                    .filter_map(|site| trace.sites.get(site))
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            };
            let _ = writeln!(
                out,
                "    #{:<2} P={:>5.1}%  gain={:<12} pairs={:<6} {} <-> {}",
                rank + 1,
                rec.opportunity * 100.0,
                perfplay_trace::Time::from_nanos(rec.group.gain_ns).to_string(),
                rec.group.dynamic_pairs,
                describe(&rec.group.region_first),
                describe(&rec.group.region_second),
            );
        }
        out
    }

    /// Serializes the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::{Detector, NoGain};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_replay::{ReplaySchedule, Replayer, UlcpFreeReplayer};
    use perfplay_sim::SimConfig;
    use perfplay_transform::Transformer;

    use crate::ReplayGains;

    /// The report of a gain-free plan, and the same report re-ranked by the
    /// exact Equation 1 table.
    fn reports() -> (Trace, PerfReport, PerfReport) {
        let mut b = ProgramBuilder::new("report-test");
        b.input("unit");
        let lock = b.lock("cache_lock");
        let x = b.shared("cache", 0);
        let site_read = b.site("cache.c", "lookup", 10);
        let site_write = b.site("cache.c", "insert", 20);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(5, |l| {
                    l.locked(lock, site_read, |cs| {
                        cs.read(x);
                        cs.compute_ns(300);
                    });
                    l.compute_ns(200);
                });
                t.locked(lock, site_write, |cs| {
                    let v = cs.read_into(x);
                    cs.write_add(x, 1);
                    let _ = v;
                });
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let plan = Detector::default().plan(&trace, NoGain);
        let transformed = Transformer::default().transform_from_plan(&trace, &plan);
        let original = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
        let unranked = PerfReport::from_plan(&trace, &plan, &transformed, &original, &free);
        let exact = Detector::default().plan(&trace, ReplayGains::new(&trace, &original, &free));
        let report = unranked
            .clone()
            .with_gains(&exact.aggregates, &original, &free);
        (trace, unranked, report)
    }

    fn full_pipeline() -> (Trace, PerfReport) {
        let (trace, _, report) = reports();
        (trace, report)
    }

    #[test]
    fn report_aggregates_the_pipeline() {
        let (_, report) = full_pipeline();
        assert_eq!(report.program, "report-test");
        assert_eq!(report.threads, 2);
        assert!(report.breakdown.total_ulcps() > 0);
        assert!(report.grouped_ulcps() >= 1);
        assert!(report.impact.original_time > report.impact.ulcp_free_time);
        assert!(report.normalized_degradation() > 0.0);
        assert!(report.top_opportunity() > 0.0);
        assert!(report.top_opportunity() <= 1.0);
    }

    #[test]
    fn with_gains_reranks_and_keeps_everything_else() {
        let (_, unranked, report) = reports();
        // The gain-free plan ranks every group at zero opportunity.
        assert!(unranked
            .recommendations
            .iter()
            .all(|r| r.opportunity == 0.0));
        assert_eq!(unranked.impact.total_pair_gain, perfplay_trace::Time::ZERO);
        assert!(report.impact.total_pair_gain > perfplay_trace::Time::ZERO);
        assert_ne!(unranked.recommendations, report.recommendations);
        // Same groups by pair count, same detection and replay figures.
        let pairs = |r: &PerfReport| -> usize {
            r.recommendations
                .iter()
                .map(|r| r.group.dynamic_pairs)
                .sum()
        };
        assert_eq!(pairs(&unranked), pairs(&report));
        let reset = PerfReport {
            impact: unranked.impact,
            recommendations: unranked.recommendations.clone(),
            ..report
        };
        assert_eq!(reset, unranked);
    }

    #[test]
    fn opportunities_sum_to_one_when_gains_exist() {
        let (_, report) = full_pipeline();
        let total: f64 = report.recommendations.iter().map(|r| r.opportunity).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Descending order.
        for pair in report.recommendations.windows(2) {
            assert!(pair[0].group.gain_ns >= pair[1].group.gain_ns);
        }
    }

    #[test]
    fn render_mentions_the_program_and_code_sites() {
        let (trace, report) = full_pipeline();
        let text = report.render(&trace);
        assert!(text.contains("report-test"));
        assert!(text.contains("lookup"));
        assert!(text.contains("recommendations"));
        assert!(text.contains("ULCPs:"));
    }

    #[test]
    fn report_serializes_to_json_and_back() {
        let (_, report) = full_pipeline();
        let json = report.to_json();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
