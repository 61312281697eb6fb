//! Property test: ULCP fusion (Algorithm 2) is independent of the order the
//! per-pair gains arrive in.
//!
//! `PlanAggregator` folds each emitted pair into a per-site row with
//! saturating addition, and `fuse_aggregates` seeds one group per
//! normalized code-site pair in ascending key order, so both the group
//! contents and their order must be invariant under any permutation of the
//! pair stream and of the finished table's rows. (`fusion.rs`'s tests check
//! those seeds against Algorithm 2's fixpoint.)

use proptest::prelude::*;

use perfplay_detect::{
    Detector, GainSource, PlanAggregator, SectionCtx, SiteAggregates, Ulcp, UlcpAnalysis,
    UlcpBreakdown, UlcpSink,
};
use perfplay_record::Recorder;
use perfplay_report::{fuse_aggregates, rank_groups};
use perfplay_sim::SimConfig;
use perfplay_workloads::{random_workload, GeneratorConfig};

/// Deterministic Fisher–Yates over a seeded xorshift, so each case's
/// permutation is reproducible from the drawn seed.
fn permute<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..5, 1usize..4, 2usize..6, 4u32..12).prop_map(
        |(threads, locks, objects, sections_per_thread)| GeneratorConfig {
            threads,
            locks,
            objects,
            sections_per_thread,
        },
    )
}

/// Signed synthetic gains (including negatives, which clamp to zero)
/// varying per pair, so a permutation actually moves distinct values.
#[derive(Clone, Copy)]
struct SyntheticGain(i64);

impl GainSource for SyntheticGain {
    fn pair_gain_ns(&self, ulcp: &Ulcp, _: &SectionCtx<'_>) -> i64 {
        let mix = (ulcp.first.index() + 3 * ulcp.second.index()) as i64;
        (mix % 7 - 2) * self.0
    }
}

/// Emits `pairs` into a fresh aggregator in the given order.
fn fold(analysis: &UlcpAnalysis, pairs: &[Ulcp], gain: SyntheticGain) -> SiteAggregates {
    let mut sink = PlanAggregator::new(gain);
    for u in pairs {
        let ctx = SectionCtx {
            first: analysis.section(u.first),
            second: analysis.section(u.second),
        };
        sink.emit(*u, &ctx);
    }
    sink.into_plan(Vec::new(), UlcpBreakdown::default())
        .aggregates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fusion_is_invariant_under_permuted_gains(
        seed in 0u64..5_000,
        config in generator_config(),
        shuffle_seed in 1u64..u64::MAX,
        gain_scale in 1i64..1_000_000,
    ) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default())
            .record(&program)
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        let gain = SyntheticGain(gain_scale);

        let table = fold(&analysis, &analysis.ulcps, gain);
        let baseline = fuse_aggregates(&table);

        // The pair stream in another order folds into the identical table.
        let mut shuffled = analysis.ulcps.clone();
        permute(&mut shuffled, shuffle_seed);
        let shuffled_table = fold(&analysis, &shuffled, gain);
        prop_assert_eq!(&shuffled_table.ulcps, &table.ulcps);
        let permuted = fuse_aggregates(&shuffled_table);
        prop_assert_eq!(&baseline, &permuted);

        // The table's rows in another order fuse into the identical groups.
        let mut rows = table.clone();
        permute(&mut rows.ulcps, shuffle_seed.rotate_left(17));
        prop_assert_eq!(&fuse_aggregates(&rows), &baseline);

        // Sanity: every dynamic pair is accounted for exactly once.
        let total_pairs: usize = permuted.iter().map(|g| g.dynamic_pairs).sum();
        prop_assert_eq!(total_pairs, analysis.ulcps.len());

        // The downstream ranking is then also order-independent.
        prop_assert_eq!(rank_groups(baseline), rank_groups(permuted));
    }
}
