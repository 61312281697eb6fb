//! ULCP fusion and performance accumulation (Algorithm 2) and the
//! relative-opportunity ranking (Equation 2).
//!
//! Many dynamic ULCPs come from the same source code. Fusion merges ULCPs
//! whose code regions overlap — either matching first-with-first /
//! second-with-second or crosswise — accumulating their performance gains, so
//! the report can point the programmer at the *code region* with the highest
//! optimization opportunity.

use perfplay_detect::SiteAggregates;
use perfplay_trace::CodeRegion;
use serde::{Deserialize, Serialize};

/// A group of fused ULCPs attributed to one pair of code regions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupedUlcp {
    /// Code region of the first critical sections.
    pub region_first: CodeRegion,
    /// Code region of the second critical sections.
    pub region_second: CodeRegion,
    /// Number of dynamic ULCPs fused into this group.
    pub dynamic_pairs: usize,
    /// Accumulated performance improvement in nanoseconds (clamped gains).
    pub gain_ns: u64,
}

/// A ranked recommendation: a fused ULCP group together with its relative
/// optimization opportunity `P` (Equation 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The fused group.
    pub group: GroupedUlcp,
    /// Relative optimization opportunity (`gain / total gain`), in `[0, 1]`.
    pub opportunity: f64,
}

/// Fuses per-site gains into unique code-region groups (Algorithm 2).
///
/// The aggregating sink's rows *are* the fusion seeds: each row already
/// holds the pair count and the clamped, saturating gain sum of one
/// unordered site pair and kind, so no pass over the dynamic pairs is
/// needed. Clamping negative gains at zero matches the paper's use of the
/// metric as an optimization opportunity.
///
/// One group is seeded per unordered site pair, oriented smaller site
/// first: a row `(a, b)` folds into the `{min(a, b)} × {max(a, b)}` group,
/// so a reversed row `(7, 3)` lands in the `(3, 7)` group. The per-kind
/// rows of one pair collapse into its group, and saturating addition is
/// associative and commutative, so the result does not depend on row
/// order. The groups come out in ascending site-pair order.
///
/// These seeds already are Algorithm 2's fixpoint, so no fusion loop runs.
/// Single-site regions overlap only when they name the same site. Two
/// distinct seeds `(a, b)` and `(c, d)`, with `a <= b` and `c <= d`,
/// would fuse straight only if `a = c` and `b = d`, and crosswise only if
/// `a = d` and `b = c`, which with both orderings forces `a = b = c = d`.
/// Either way the seeds would be one.
pub fn fuse_aggregates(aggregates: &SiteAggregates) -> Vec<GroupedUlcp> {
    let mut seeds: std::collections::BTreeMap<(u32, u32), GroupedUlcp> =
        std::collections::BTreeMap::new();
    for row in &aggregates.ulcps {
        let (a, b) = (row.site_first.raw(), row.site_second.raw());
        let key = (a.min(b), a.max(b));
        let entry = seeds.entry(key).or_insert_with(|| seed_group(key));
        entry.dynamic_pairs = entry
            .dynamic_pairs
            .saturating_add(usize::try_from(row.dynamic_pairs).unwrap_or(usize::MAX));
        entry.gain_ns = entry.gain_ns.saturating_add(row.gain_ns);
    }
    seeds.into_values().collect()
}

/// An empty seed group for one normalized site-pair key.
fn seed_group(key: (u32, u32)) -> GroupedUlcp {
    GroupedUlcp {
        region_first: CodeRegion::single(perfplay_trace::CodeSiteId::new(key.0)),
        region_second: CodeRegion::single(perfplay_trace::CodeSiteId::new(key.1)),
        dynamic_pairs: 0,
        gain_ns: 0,
    }
}

/// Ranks fused groups by relative optimization opportunity (Equation 2),
/// highest first.
pub fn rank_groups(groups: Vec<GroupedUlcp>) -> Vec<Recommendation> {
    let total: u64 = groups
        .iter()
        .fold(0u64, |acc, g| acc.saturating_add(g.gain_ns));
    let mut recommendations: Vec<Recommendation> = groups
        .into_iter()
        .map(|group| {
            let opportunity = if total == 0 {
                0.0
            } else {
                group.gain_ns as f64 / total as f64
            };
            Recommendation { group, opportunity }
        })
        .collect();
    // Highest gain first; ties broken on both code regions so the
    // recommendation order is a total order independent of input order.
    recommendations.sort_by(|a, b| {
        b.group
            .gain_ns
            .cmp(&a.group.gain_ns)
            .then_with(|| a.group.region_first.cmp(&b.group.region_first))
            .then_with(|| a.group.region_second.cmp(&b.group.region_second))
    });
    recommendations
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use perfplay_detect::{
        Detector, GainSource, SectionCtx, SiteAggregate, Ulcp, UlcpBreakdown, UlcpKind,
    };
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::CodeSiteId;
    use proptest::prelude::*;

    // Algorithm 2 as the paper states it, kept as the oracle
    // `fuse_aggregates` is checked against.
    impl GroupedUlcp {
        fn can_fuse(&self, other: &GroupedUlcp) -> bool {
            // Algorithm 2, lines 1 and 5: straight or crosswise region overlap.
            (self.region_first.overlaps(&other.region_first)
                && self.region_second.overlaps(&other.region_second))
                || (self.region_first.overlaps(&other.region_second)
                    && self.region_second.overlaps(&other.region_first))
        }

        fn fuse(&self, other: &GroupedUlcp) -> GroupedUlcp {
            let straight = self.region_first.overlaps(&other.region_first)
                && self.region_second.overlaps(&other.region_second);
            let (first, second) = if straight {
                (
                    self.region_first.merge(&other.region_first),
                    self.region_second.merge(&other.region_second),
                )
            } else {
                (
                    self.region_first.merge(&other.region_second),
                    self.region_second.merge(&other.region_first),
                )
            };
            GroupedUlcp {
                region_first: first,
                region_second: second,
                dynamic_pairs: self.dynamic_pairs.saturating_add(other.dynamic_pairs),
                gain_ns: self.gain_ns.saturating_add(other.gain_ns),
            }
        }
    }

    /// Fixpoint fusion over seeded groups (Algorithm 2's outer loop): fuse
    /// each group into the first earlier one it overlaps, and repeat until
    /// a pass fuses nothing.
    fn fixpoint_fuse(mut groups: Vec<GroupedUlcp>) -> Vec<GroupedUlcp> {
        loop {
            let mut fused_any = false;
            let mut result: Vec<GroupedUlcp> = Vec::with_capacity(groups.len());
            'outer: for group in groups.into_iter() {
                for existing in &mut result {
                    if existing.can_fuse(&group) {
                        *existing = existing.fuse(&group);
                        fused_any = true;
                        continue 'outer;
                    }
                }
                result.push(group);
            }
            groups = result;
            if !fused_any {
                break;
            }
        }
        groups
    }

    /// One seed per row key as stored, `(site_first, site_second)`, in
    /// ascending key order: the seeds the fixpoint ran over.
    fn row_seeds(aggregates: &SiteAggregates) -> Vec<GroupedUlcp> {
        let mut seeds: BTreeMap<(u32, u32), GroupedUlcp> = BTreeMap::new();
        for row in &aggregates.ulcps {
            let key = (row.site_first.raw(), row.site_second.raw());
            let entry = seeds.entry(key).or_insert_with(|| seed_group(key));
            entry.dynamic_pairs = entry
                .dynamic_pairs
                .saturating_add(usize::try_from(row.dynamic_pairs).unwrap_or(usize::MAX));
            entry.gain_ns = entry.gain_ns.saturating_add(row.gain_ns);
        }
        seeds.into_values().collect()
    }

    /// A table row between two sites.
    fn row(first: u32, second: u32, kind: UlcpKind, pairs: u64, gain: u64) -> SiteAggregate {
        SiteAggregate {
            site_first: CodeSiteId::new(first),
            site_second: CodeSiteId::new(second),
            kind,
            dynamic_pairs: pairs,
            gain_ns: gain,
        }
    }

    /// A seeded xorshift stream, so each case's table is reproducible from
    /// the drawn seed.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A count or gain: zero, small, or within 1,000 of `u64::MAX`.
        fn amount(&mut self) -> u64 {
            match self.next() % 3 {
                0 => 0,
                1 => self.next() % 1_000,
                _ => u64::MAX - self.next() % 1_000,
            }
        }
    }

    /// A random site-normalized table of `rows` rows over `sites` sites:
    /// small site counts repeat keys (same pair and kind), and the rows stay
    /// in draw order, not key order.
    fn random_table(seed: u64, rows: usize, sites: u32) -> SiteAggregates {
        let mut rng = XorShift(seed);
        let ulcps = (0..rows)
            .map(|_| {
                let a = (rng.next() % u64::from(sites)) as u32;
                let b = (rng.next() % u64::from(sites)) as u32;
                let kind = UlcpKind::ALL[(rng.next() % 4) as usize];
                row(a.min(b), a.max(b), kind, rng.amount(), rng.amount())
            })
            .collect();
        SiteAggregates {
            ulcps,
            edges: Vec::new(),
        }
    }

    fn group(first: u32, second: u32, gain: u64) -> GroupedUlcp {
        GroupedUlcp {
            region_first: CodeRegion::single(CodeSiteId::new(first)),
            region_second: CodeRegion::single(CodeSiteId::new(second)),
            dynamic_pairs: 1,
            gain_ns: gain,
        }
    }

    /// Attributes the same gain to every pair.
    #[derive(Clone, Copy)]
    struct Fixed(i64);

    impl GainSource for Fixed {
        fn pair_gain_ns(&self, _: &Ulcp, _: &SectionCtx<'_>) -> i64 {
            self.0
        }
    }

    /// Records the program and folds its pairs, each worth `gain`, into
    /// per-site rows.
    fn fold(b: ProgramBuilder, gain: i64) -> (UlcpBreakdown, SiteAggregates) {
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let plan = Detector::default().plan(&trace, Fixed(gain));
        (plan.breakdown, plan.aggregates)
    }

    /// Two threads running one read-only section on one lock `iters` times.
    fn same_site_readers(name: &str, iters: u32) -> ProgramBuilder {
        let mut b = ProgramBuilder::new(name);
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("f.c", "reader", 1);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(iters, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                    l.compute_ns(50);
                });
            });
        }
        b
    }

    #[test]
    fn straight_and_crosswise_fusion() {
        let a = group(1, 2, 10);
        let b = group(1, 2, 5);
        assert!(a.can_fuse(&b));
        let fused = a.fuse(&b);
        assert_eq!(fused.gain_ns, 15);
        assert_eq!(fused.dynamic_pairs, 2);

        let c = group(2, 1, 7); // crosswise
        assert!(a.can_fuse(&c));
        let fused = a.fuse(&c);
        assert_eq!(fused.gain_ns, 17);
        assert!(fused.region_first.contains(CodeSiteId::new(1)));
        assert!(fused.region_second.contains(CodeSiteId::new(2)));

        let d = group(3, 4, 1);
        assert!(!a.can_fuse(&d));
    }

    #[test]
    fn fusion_groups_by_code_site_pair() {
        // Two threads running the same code: all dynamic ULCPs share one
        // site pair and must collapse into a single group.
        let (breakdown, aggregates) = fold(same_site_readers("fusion-test", 4), 100);
        let pairs = breakdown.total_ulcps();
        assert!(pairs > 1);
        let groups = fuse_aggregates(&aggregates);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].dynamic_pairs, pairs);
        assert_eq!(groups[0].gain_ns, 100 * pairs as u64);
    }

    #[test]
    fn distinct_code_sites_stay_in_distinct_groups() {
        let mut b = ProgramBuilder::new("fusion-distinct");
        let lock_a = b.lock("a");
        let lock_b = b.lock("b");
        let x = b.shared("x", 0);
        let y = b.shared("y", 0);
        let site_a = b.site("f.c", "fa", 1);
        let site_b = b.site("f.c", "fb", 2);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.locked(lock_a, site_a, |cs| {
                    cs.read(x);
                });
                t.locked(lock_b, site_b, |cs| {
                    cs.read(y);
                });
            });
        }
        let (_, aggregates) = fold(b, 10);
        assert_eq!(fuse_aggregates(&aggregates).len(), 2);
    }

    #[test]
    fn ranking_follows_equation_2() {
        let groups = vec![group(1, 2, 30), group(3, 4, 60), group(5, 6, 10)];
        let ranked = rank_groups(groups);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].group.gain_ns, 60);
        assert!((ranked[0].opportunity - 0.6).abs() < 1e-12);
        assert!((ranked[1].opportunity - 0.3).abs() < 1e-12);
        let total: f64 = ranked.iter().map(|r| r.opportunity).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_with_zero_total_gain_is_all_zero() {
        let ranked = rank_groups(vec![group(1, 2, 0), group(3, 4, 0)]);
        assert!(ranked.iter().all(|r| r.opportunity == 0.0));
    }

    #[test]
    fn fusing_huge_gains_saturates_instead_of_overflowing() {
        // Regression: `gain_ns + other.gain_ns` overflowed (debug panic /
        // release wrap) once fused gains approached u64::MAX.
        let a = group(1, 2, u64::MAX - 10);
        let b = group(1, 2, 100);
        let fused = a.fuse(&b);
        assert_eq!(fused.gain_ns, u64::MAX);
        assert_eq!(fused.dynamic_pairs, 2);

        // rank_groups' total also saturates instead of panicking; the
        // saturated totals make every opportunity a sane [0, 1] value.
        let ranked = rank_groups(vec![group(1, 2, u64::MAX), group(3, 4, u64::MAX)]);
        for r in &ranked {
            assert!((0.0..=1.0).contains(&r.opportunity));
        }
    }

    #[test]
    fn accumulating_huge_clamped_gains_saturates() {
        // Three i64::MAX gains exceed u64::MAX: the per-site accumulation
        // and the seeds fused from it must saturate, not overflow.
        let (breakdown, aggregates) = fold(same_site_readers("fusion-overflow", 2), i64::MAX);
        assert!(breakdown.total_ulcps() >= 3, "need >= 3 pairs to overflow");
        let groups = fuse_aggregates(&aggregates);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].gain_ns, u64::MAX);
    }

    #[test]
    fn ranking_breaks_gain_and_first_region_ties_on_second_region() {
        // Same gain, same first region, different second regions: order
        // must be fully deterministic (ascending region_second).
        let ranked = rank_groups(vec![group(1, 4, 10), group(1, 2, 10), group(1, 3, 10)]);
        let seconds: Vec<_> = ranked
            .iter()
            .map(|r| r.group.region_second.clone())
            .collect();
        assert_eq!(
            seconds,
            vec![
                CodeRegion::single(CodeSiteId::new(2)),
                CodeRegion::single(CodeSiteId::new(3)),
                CodeRegion::single(CodeSiteId::new(4)),
            ]
        );
        // And the reversed input produces the identical ranking.
        let reversed = rank_groups(vec![group(1, 3, 10), group(1, 2, 10), group(1, 4, 10)]);
        assert_eq!(ranked, reversed);
    }

    #[test]
    fn a_reversed_row_folds_into_the_normalized_group() {
        let both = SiteAggregates {
            ulcps: vec![
                row(3, 7, UlcpKind::ReadRead, 2, 10),
                row(7, 3, UlcpKind::NullLock, 1, 5),
            ],
            edges: Vec::new(),
        };
        let mut expected = group(3, 7, 15);
        expected.dynamic_pairs = 3;
        assert_eq!(fuse_aggregates(&both), vec![expected.clone()]);
        // The fixpoint fuses the two orientations crosswise into the same
        // group.
        assert_eq!(fixpoint_fuse(row_seeds(&both)), vec![expected]);

        // Alone, the reversed row still seeds the `(3, 7)` orientation.
        let reversed = SiteAggregates {
            ulcps: vec![row(7, 3, UlcpKind::NullLock, 1, 5)],
            edges: Vec::new(),
        };
        assert_eq!(fuse_aggregates(&reversed), vec![group(3, 7, 5)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On every site-normalized table, seeding one group per site pair
        /// is Algorithm 2's fixpoint over the same seeds, group for group
        /// and in the same order.
        #[test]
        fn normalized_seeds_are_the_fusion_fixpoint(
            seed in 1u64..u64::MAX,
            rows in 0usize..48,
            sites in 1u32..10,
        ) {
            let table = random_table(seed, rows, sites);
            let fused = fuse_aggregates(&table);
            prop_assert_eq!(&fused, &fixpoint_fuse(row_seeds(&table)));
            prop_assert_eq!(rank_groups(fused), rank_groups(fixpoint_fuse(row_seeds(&table))));
        }
    }

    #[test]
    fn negative_gains_do_not_contribute() {
        let (breakdown, aggregates) = fold(same_site_readers("fusion-negative", 1), -500);
        assert_eq!(breakdown.read_read, 1);
        let groups = fuse_aggregates(&aggregates);
        assert_eq!(groups[0].dynamic_pairs, 1);
        assert_eq!(groups[0].gain_ns, 0);
    }
}
