//! Per-ULCP performance metrics (Equation 1 of the paper).
//!
//! For a ULCP `⟨A, B⟩` the paper marks three points of the two threads'
//! timelines: `Time1`, the start of the segment preceding `A`; `Time2`, the
//! end of the segment following `A`; and `Time3`, the end of the segment
//! following `B`. Comparing those timestamps between the original replay and
//! the ULCP-free replay gives the pair's performance improvement:
//!
//! `ΔT_ULCP = Δ MAX{Time2, Time3} − Δ Time1`
//!
//! where `Δ` is "original minus ULCP-free".

use perfplay_detect::{GainSource, SectionCtx, Ulcp};
use perfplay_replay::ReplayResult;
use perfplay_trace::{CriticalSection, Time, Trace};
use serde::{Deserialize, Serialize};

/// The event indices whose completion times realise `Time1` and `Time2` for
/// one critical section (`Time3` is the other section's `Time2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentAnchors {
    /// Thread the section runs on.
    pub thread: usize,
    /// Event index whose completion time is the start of the precursor
    /// segment (`None` means the thread start, i.e. time zero).
    pub time1_index: Option<usize>,
    /// Event index whose completion time is the end of the successor segment.
    pub time2_index: usize,
}

/// Locates the precursor-start and successor-end anchors of a critical
/// section within its thread's event stream.
pub fn segment_anchors(trace: &Trace, section: &CriticalSection) -> SegmentAnchors {
    let ti = section.thread.index();
    let events = &trace.threads[ti].events;

    // Precursor segment starts right after the previous synchronization
    // event (lock acquire/release) before this section's acquire.
    let time1_index = events[..section.acquire_index]
        .iter()
        .rposition(|te| te.event.is_acquire() || te.event.is_release());

    // Successor segment ends just before the next lock acquisition after this
    // section's release (or at the thread's last event).
    let next_acquire = events[section.release_index + 1..]
        .iter()
        .position(|te| te.event.is_acquire())
        .map(|offset| section.release_index + 1 + offset);
    let time2_index = match next_acquire {
        Some(idx) if idx > section.release_index + 1 => idx - 1,
        Some(_) => section.release_index,
        None => events.len().saturating_sub(1),
    };

    SegmentAnchors {
        thread: ti,
        time1_index,
        time2_index,
    }
}

fn anchor_times(anchors: &SegmentAnchors, result: &ReplayResult) -> (Time, Time) {
    let times = &result.event_times[anchors.thread];
    let time1 = anchors
        .time1_index
        .and_then(|i| times.get(i).copied())
        .unwrap_or(Time::ZERO);
    let time2 = times
        .get(anchors.time2_index)
        .copied()
        .unwrap_or(Time::ZERO);
    (time1, time2)
}

/// Evaluates Equation 1 for one pair of critical sections, given the replay
/// of the original trace and the replay of the ULCP-free trace.
pub fn pair_gain_ns(
    trace: &Trace,
    first: &CriticalSection,
    second: &CriticalSection,
    original: &ReplayResult,
    ulcp_free: &ReplayResult,
) -> i64 {
    let anchors_a = segment_anchors(trace, first);
    let anchors_b = segment_anchors(trace, second);

    let (t1_orig, t2_orig) = anchor_times(&anchors_a, original);
    let (_, t3_orig) = anchor_times(&anchors_b, original);
    let (t1_free, t2_free) = anchor_times(&anchors_a, ulcp_free);
    let (_, t3_free) = anchor_times(&anchors_b, ulcp_free);

    let max_orig = t2_orig.max(t3_orig).as_nanos() as i64;
    let max_free = t2_free.max(t3_free).as_nanos() as i64;
    let delta_max = max_orig - max_free;
    let delta_t1 = t1_orig.as_nanos() as i64 - t1_free.as_nanos() as i64;
    delta_max - delta_t1
}

/// A [`GainSource`] evaluating Equation 1 at pair-emission time from the two
/// replays, so a plan pass
/// ([`Detector::plan`](perfplay_detect::Detector::plan), whose
/// [`PlanAggregator`](perfplay_detect::PlanAggregator) sink aggregates)
/// folds the exact per-pair gains into the plan's per-site rows without a
/// pair list ever existing. The `PerfPlay` facade re-ranks its report by that
/// plan's `aggregates`, from one such pass after both replays.
#[derive(Debug, Clone, Copy)]
pub struct ReplayGains<'a> {
    trace: &'a Trace,
    original: &'a ReplayResult,
    ulcp_free: &'a ReplayResult,
}

impl<'a> ReplayGains<'a> {
    /// Wraps the original and ULCP-free replays of `trace`.
    pub fn new(trace: &'a Trace, original: &'a ReplayResult, ulcp_free: &'a ReplayResult) -> Self {
        ReplayGains {
            trace,
            original,
            ulcp_free,
        }
    }
}

impl GainSource for ReplayGains<'_> {
    fn pair_gain_ns(&self, _ulcp: &Ulcp, ctx: &SectionCtx<'_>) -> i64 {
        pair_gain_ns(
            self.trace,
            ctx.first,
            ctx.second,
            self.original,
            self.ulcp_free,
        )
    }
}

/// Splits the whole-program impact into the paper's two components:
/// performance degradation `T_pd = T_ut − T_uft` (directly measured from the
/// two replays) and resource waste `T_rw` (the CPU time threads burn waiting
/// on, or spinning behind, locks that the ULCP-free execution does not need).
///
/// The paper derives `T_rw` as `Σ ΔT_ULCP − T_pd`; summing Equation 1 over
/// all pairs double-counts heavily when thousands of dynamic ULCPs share the
/// same segments, so this reproduction measures the waste directly from the
/// two replays' per-thread lock-wait accounts instead. Per-pair gains are
/// still what fusion and ranking (Algorithm 2, Equation 2) consume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImpactSplit {
    /// Total time of the original replay (`T_ut`).
    pub original_time: Time,
    /// Total time of the ULCP-free replay (`T_uft`).
    pub ulcp_free_time: Time,
    /// Performance degradation `T_pd`.
    pub degradation: Time,
    /// Resource (CPU) waste `T_rw`.
    pub resource_waste: Time,
    /// Sum of the clamped per-pair gains the report is ranked by: exact
    /// Equation 1 gains ([`ReplayGains`]) in the `PerfPlay` facade's report,
    /// the detection-time `BodyOverlapGain` proxy in `analyze_plan` and
    /// `analyze_batch` reports. Reported for completeness; not used for the
    /// normalized metrics.
    pub total_pair_gain: Time,
}

impl ImpactSplit {
    /// Computes the split from the two replays and the total gain of a
    /// per-site aggregate table.
    pub fn with_total_gain(
        original: &ReplayResult,
        ulcp_free: &ReplayResult,
        total_gain_ns: u64,
    ) -> Self {
        let degradation = original.total_time - ulcp_free.total_time;
        let resource_waste = original
            .total_lock_wait()
            .saturating_sub(ulcp_free.total_lock_wait());
        ImpactSplit {
            original_time: original.total_time,
            ulcp_free_time: ulcp_free.total_time,
            degradation,
            resource_waste,
            total_pair_gain: Time::from_nanos(total_gain_ns),
        }
    }

    /// Normalized performance degradation (`T_pd / T_ut`), the quantity
    /// Figure 14 stacks.
    pub fn normalized_degradation(&self) -> f64 {
        self.degradation.ratio(self.original_time)
    }

    /// Normalized CPU waste per thread (`(T_rw / N) / T_ut`).
    pub fn normalized_waste_per_thread(&self, threads: usize) -> f64 {
        if threads == 0 {
            return 0.0;
        }
        (self.resource_waste / threads as u64).ratio(self.original_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::{DetectionPlan, Detector, NoGain, SiteAggregates};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_replay::{ReplaySchedule, Replayer, UlcpFreeReplayer};
    use perfplay_sim::SimConfig;
    use perfplay_transform::Transformer;

    struct Fixture {
        trace: Trace,
        plan: DetectionPlan,
        original: ReplayResult,
        free: ReplayResult,
    }

    impl Fixture {
        /// One plan pass folding `gain` into site rows.
        fn fold<G: GainSource + Clone + Send + Sync>(&self, gain: G) -> SiteAggregates {
            Detector::default().plan(&self.trace, gain).aggregates
        }

        /// The exact Equation 1 table of the fixture's two replays.
        fn exact_gains(&self) -> SiteAggregates {
            self.fold(ReplayGains::new(&self.trace, &self.original, &self.free))
        }
    }

    fn fixture(threads: usize, iters: u32) -> Fixture {
        let mut b = ProgramBuilder::new("metrics-test");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("m.c", "reader", 1);
        for i in 0..threads {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(iters, |l| {
                    l.compute_ns(200);
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                        cs.compute_ns(400);
                    });
                    l.compute_ns(100);
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
        Fixture {
            trace,
            plan,
            original,
            free,
        }
    }

    #[test]
    fn anchors_bracket_the_critical_section() {
        let f = fixture(2, 3);
        for s in &f.plan.sections {
            let anchors = segment_anchors(&f.trace, s);
            assert_eq!(anchors.thread, s.thread.index());
            if let Some(t1) = anchors.time1_index {
                assert!(t1 < s.acquire_index);
            }
            assert!(anchors.time2_index >= s.release_index);
            assert!(anchors.time2_index < f.trace.threads[s.thread.index()].events.len());
        }
    }

    #[test]
    fn first_section_of_a_thread_anchors_time1_at_thread_start() {
        let f = fixture(2, 1);
        let first = f
            .plan
            .sections
            .iter()
            .find(|s| s.thread.index() == 0)
            .unwrap();
        let anchors = segment_anchors(&f.trace, first);
        assert_eq!(anchors.time1_index, None);
    }

    #[test]
    fn read_read_contention_yields_positive_total_gain() {
        let f = fixture(2, 4);
        assert!(f.plan.breakdown.total_ulcps() > 0);
        let gains = f.exact_gains();
        assert_eq!(gains.total_pairs() as usize, f.plan.breakdown.total_ulcps());
        assert!(
            gains.total_gain_ns() > 0,
            "removing read-read ULCPs should help"
        );
    }

    #[test]
    fn impact_split_is_consistent() {
        let f = fixture(2, 4);
        let total = f.exact_gains().total_gain_ns();
        let split = ImpactSplit::with_total_gain(&f.original, &f.free, total);
        assert_eq!(split.original_time, f.original.total_time);
        assert_eq!(split.ulcp_free_time, f.free.total_time);
        assert_eq!(split.total_pair_gain, Time::from_nanos(total));
        assert!(split.degradation > Time::ZERO);
        assert!(split.normalized_degradation() > 0.0);
        assert!(split.normalized_degradation() < 1.0);
        assert!(split.normalized_waste_per_thread(2) >= 0.0);
        assert_eq!(split.normalized_waste_per_thread(0), 0.0);
    }

    #[test]
    fn gain_clamping_ignores_negative_gains() {
        #[derive(Clone, Copy)]
        struct Negative;
        impl GainSource for Negative {
            fn pair_gain_ns(&self, _: &Ulcp, _: &SectionCtx<'_>) -> i64 {
                -50
            }
        }
        let f = fixture(2, 4);
        let table = f.fold(Negative);
        assert!(table.total_pairs() > 0);
        assert_eq!(table.total_gain_ns(), 0);
        let split = ImpactSplit::with_total_gain(&f.original, &f.free, table.total_gain_ns());
        assert_eq!(split.total_pair_gain, Time::ZERO);
    }

    #[test]
    fn uncontended_program_has_negligible_degradation() {
        // One thread: there can be no inter-thread contention to remove.
        let f = fixture(1, 4);
        assert_eq!(f.plan.breakdown.total_ulcps(), 0);
        let split =
            ImpactSplit::with_total_gain(&f.original, &f.free, f.exact_gains().total_gain_ns());
        // The only difference is the stripped lock overhead of the single
        // thread's own sections, a tiny fraction of the runtime.
        assert!(split.normalized_degradation() < 0.2);
    }
}
