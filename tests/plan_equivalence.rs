//! Property tests: a `DetectionPlan` retains exactly the pairs the
//! transformation reads — the section table, every causal edge and every
//! benign pair of the materialized `Detector::analyze` list, in its order —
//! for every engine feeding the plan sink (batch sequential,
//! `DetectorConfig::parallel`, streaming at arbitrary chunk sizes), so
//! `Transformer::transform_from_plan` produces one transformation whichever
//! engine detected; that transformation equals the ordered-map oracle
//! below, on random workloads and on every application model and case
//! program; and the single-pass report equals the two-pass aggregate
//! report.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{
    cases, random_workload, App, GeneratorConfig, InputSize, WorkloadConfig,
};
use perfplay_detect::CausalEdge;
use perfplay_trace::{AuxLockId, CriticalSection, LockId, SectionId, Trace};
use perfplay_transform::{NodeSync, OrderConstraint, RaceWarning};

/// RULE 1's topology in ordered maps keyed by section id: the oracle's
/// adjacency.
struct OracleTopology {
    nodes: Vec<SectionId>,
    edges: Vec<CausalEdge>,
    outgoing: BTreeMap<SectionId, Vec<SectionId>>,
    incoming: BTreeMap<SectionId, Vec<SectionId>>,
}

impl OracleTopology {
    fn from_parts(sections: &[CriticalSection], edges: &[CausalEdge]) -> Self {
        let nodes = sections.iter().map(|s| s.id).collect();
        let mut outgoing: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        let mut incoming: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        for e in edges {
            outgoing.entry(e.from).or_default().push(e.to);
            incoming.entry(e.to).or_default().push(e.from);
        }
        OracleTopology {
            nodes,
            edges: edges.to_vec(),
            outgoing,
            incoming,
        }
    }

    fn nodes(&self) -> &[SectionId] {
        &self.nodes
    }

    fn out_degree(&self, node: SectionId) -> usize {
        self.outgoing.get(&node).map(Vec::len).unwrap_or(0)
    }

    fn in_degree(&self, node: SectionId) -> usize {
        self.incoming.get(&node).map(Vec::len).unwrap_or(0)
    }

    fn sources_of(&self, node: SectionId) -> &[SectionId] {
        self.incoming.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    fn standalone_nodes(&self) -> Vec<SectionId> {
        self.nodes
            .iter()
            .copied()
            .filter(|n| self.out_degree(*n) == 0 && self.in_degree(*n) == 0)
            .collect()
    }

    fn causal_nodes(&self) -> BTreeSet<SectionId> {
        let mut set = BTreeSet::new();
        for e in &self.edges {
            set.insert(e.from);
            set.insert(e.to);
        }
        set
    }
}

/// What the oracle transformation yields beyond the borrowed inputs.
#[derive(Debug)]
struct OracleTransform {
    plan: Vec<NodeSync>,
    order_constraints: Vec<OrderConstraint>,
    race_warnings: Vec<RaceWarning>,
    num_aux_locks: usize,
}

/// RULES 1–4 with every per-section lookup in an ordered map, as the
/// transform computed them before its tables became dense; the
/// specification `Transformer::transform_from_plan` must reproduce.
fn oracle_transform(strip_unneeded_locks: bool, plan: &DetectionPlan) -> OracleTransform {
    // Theorem 1: benign ULCPs become parallel although they touch the
    // same data; report them as potential races.
    let race_warnings = plan
        .benign
        .iter()
        .map(|u| RaceWarning {
            first: u.first,
            second: u.second,
            lock: u.lock,
        })
        .collect();
    let sections = plan.sections.clone();
    let topology = OracleTopology::from_parts(&sections, &plan.edges);

    // RULE 3: assign auxiliary locks to nodes with outgoing causal edges.
    let mut aux_locks: BTreeMap<SectionId, AuxLockId> = BTreeMap::new();
    for &node in topology.nodes() {
        if topology.out_degree(node) > 0 {
            let id = AuxLockId::new(aux_locks.len() as u32);
            aux_locks.insert(node, id);
        }
    }

    // Null-locks: sections with no shared access at all.
    let null_sections: BTreeSet<SectionId> = sections
        .iter()
        .filter(|s| s.is_access_free())
        .map(|s| s.id)
        .collect();
    let standalone: BTreeSet<SectionId> = topology.standalone_nodes().into_iter().collect();

    let syncs: Vec<NodeSync> = sections
        .iter()
        .map(|s| {
            let own = aux_locks.get(&s.id).copied();
            let sources: Vec<SectionId> = topology.sources_of(s.id).to_vec();
            let mut lockset: BTreeSet<AuxLockId> = BTreeSet::new();
            if let Some(l) = own {
                lockset.insert(l);
            }
            for src in &sources {
                if let Some(l) = aux_locks.get(src) {
                    lockset.insert(*l);
                }
            }
            let strip_lock = strip_unneeded_locks
                && (null_sections.contains(&s.id) || standalone.contains(&s.id));
            NodeSync {
                section: s.id,
                aux_lock: own,
                lockset,
                sources,
                strip_lock,
            }
        })
        .collect();

    // RULE 2: causal-edge nodes of the same original lock keep their
    // original partial order, expressed as consecutive constraints along
    // the timing order.
    let mut order_constraints = Vec::new();
    let causal = topology.causal_nodes();
    let mut per_lock: BTreeMap<LockId, Vec<&CriticalSection>> = BTreeMap::new();
    for s in &sections {
        if causal.contains(&s.id) {
            per_lock.entry(s.lock).or_default().push(s);
        }
    }
    for (lock, mut nodes) in per_lock {
        nodes.sort_by_key(|s| (s.enter_time, s.id));
        for pair in nodes.windows(2) {
            order_constraints.push(OrderConstraint {
                before: pair[0].id,
                after: pair[1].id,
                lock,
            });
        }
    }

    OracleTransform {
        plan: syncs,
        order_constraints,
        race_warnings,
        num_aux_locks: aux_locks.len(),
    }
}

/// Whether a transformation equals the oracle's on the same plan, field by
/// field; the first differing field on failure.
fn matches_oracle(
    transformed: &TransformedTrace,
    strip_unneeded_locks: bool,
    plan: &DetectionPlan,
) -> Result<(), String> {
    let oracle = oracle_transform(strip_unneeded_locks, plan);
    if transformed.plan != oracle.plan {
        return Err("plan differs from the oracle's".into());
    }
    if transformed.order_constraints != oracle.order_constraints {
        return Err("order constraints differ from the oracle's".into());
    }
    if transformed.race_warnings != oracle.race_warnings {
        return Err("race warnings differ from the oracle's".into());
    }
    if transformed.num_aux_locks != oracle.num_aux_locks {
        return Err(format!(
            "{} auxiliary locks, the oracle {}",
            transformed.num_aux_locks, oracle.num_aux_locks
        ));
    }
    Ok(())
}

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
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

fn detector_configs() -> impl Strategy<Value = DetectorConfig> {
    (0u32..2, 0usize..4).prop_map(|(ablate, cap)| DetectorConfig {
        use_reversed_replay: ablate == 0,
        max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
        parallel: false,
    })
}

/// Field-wise bit-identity of two transformed traces (`TransformedTrace`
/// deliberately has no `PartialEq`: comparing the borrowed original trace
/// compares whole event logs, a footgun in production code).
fn assert_transforms_identical(
    a: &TransformedTrace,
    b: &TransformedTrace,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.original, &b.original);
    prop_assert_eq!(&a.sections, &b.sections);
    prop_assert_eq!(&a.plan, &b.plan);
    prop_assert_eq!(&a.order_constraints, &b.order_constraints);
    prop_assert_eq!(&a.race_warnings, &b.race_warnings);
    prop_assert_eq!(a.num_aux_locks, b.num_aux_locks);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch plan holds the materialized analysis' sections, edges and
    /// benign pairs, every engine's `DetectionPlan` equals it, and
    /// `transform_from_plan` over each is the same transformation.
    #[test]
    fn transform_from_plan_matches_transform(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..48,
        strip in 0u32..2,
    ) {
        let trace = record(seed, &gen);
        let transformer = Transformer::new(TransformConfig {
            strip_unneeded_locks: strip == 1,
        });

        // Batch sequential engine, against the materialized pair list.
        let plan = Detector::new(config).plan(&trace, BodyOverlapGain);
        let analysis = Detector::new(config).analyze(&trace);
        let benign: Vec<Ulcp> = analysis
            .ulcps
            .iter()
            .copied()
            .filter(|u| u.kind == UlcpKind::Benign)
            .collect();
        prop_assert_eq!(&plan.sections, &analysis.sections);
        prop_assert_eq!(&plan.edges, &analysis.edges);
        prop_assert_eq!(&plan.benign, &benign);
        prop_assert_eq!(plan.breakdown, analysis.breakdown);
        let expected = transformer.transform_from_plan(&trace, &plan);
        prop_assert_eq!(expected.race_warnings.len(), benign.len());
        if let Err(e) = matches_oracle(&expected, strip == 1, &plan) {
            return Err(TestCaseError::fail(e));
        }

        // Parallel fan-out produces the identical plan.
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..config
        })
        .plan(&trace, BodyOverlapGain);
        prop_assert_eq!(&parallel, &plan);

        // Streaming engine at an arbitrary chunk size, at one worker and
        // at two, produces the identical plan.
        for workers in [1, 2] {
            let streamed = ParallelStreamingDetector::with_workers(config, workers)
                .analyze_with(
                    &mut TraceChunks::new(&trace, chunk_events),
                    PlanAggregator::new(BodyOverlapGain),
                )
                .unwrap();
            let (stream_plan, _) = DetectionPlan::from_streaming(streamed);
            prop_assert_eq!(&stream_plan, &plan);
            assert_transforms_identical(
                &transformer.transform_from_plan(&trace, &stream_plan),
                &expected,
            )?;
        }
    }

    /// The single-pass pipeline report equals the two-pass flow (a gain-free
    /// plan for transform + replays, a second aggregate detection pass for
    /// the ranking) when both accumulate the same detection-time gain
    /// source.
    #[test]
    fn single_pass_report_matches_two_pass_flow(
        seed in 0u64..5_000,
        gen in generator_config(),
        cap in 0usize..4,
    ) {
        let config = DetectorConfig {
            max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
            ..DetectorConfig::default()
        };
        let trace = record(seed, &gen);
        let pipeline = PipelineConfig {
            detector: config,
            ..PipelineConfig::default()
        };
        let single = analyze_plan(&trace, &pipeline).unwrap();

        // Two-pass flow.
        let plan = Detector::new(config).plan(&trace, NoGain);
        let transformed = Transformer::default().transform_from_plan(&trace, &plan);
        let original = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
        let aggregated = Detector::new(config).plan(&trace, BodyOverlapGain);
        let two_pass = PerfReport::from_plan(&trace, &plan, &transformed, &original, &free)
            .with_gains(&aggregated.aggregates, &original, &free);
        prop_assert_eq!(&single.report, &two_pass);
        prop_assert_eq!(&single.original_replay, &original);
        prop_assert_eq!(&single.ulcp_free_replay, &free);
    }
}

/// Every application model at 2, 4 and 8 threads and every case program at
/// 4, stripping on and off: the transformation equals the oracle's. The
/// models reach nested sections, condition variables and barriers, which
/// random workloads never emit.
///
/// Engines number sections in entry-time order, so on their plans RULE 2's
/// `(entry time, id)` order is plain id order. Each plan is therefore also
/// transformed with its entry times reversed, which `validate` accepts, so
/// that the sort key itself is checked.
#[test]
fn transform_matches_the_oracle_on_app_models() {
    let mut programs: Vec<Program> = Vec::new();
    for threads in [2, 4, 8] {
        let config = WorkloadConfig::new(threads, InputSize::SimSmall);
        programs.extend(App::ALL.iter().map(|app| app.build(&config)));
    }
    let config = WorkloadConfig::new(4, InputSize::SimSmall);
    programs.extend([
        cases::bug1_openldap_spinwait(&config),
        cases::bug1_fixed_barrier(&config),
        cases::bug2_pbzip2_join(&config),
        cases::bug2_fixed_signal(&config),
        cases::mysql_68573_query_cache(&config),
    ]);
    let (mut constraints, mut aux_locks) = (0, 0);
    for program in &programs {
        let trace = Recorder::new(SimConfig::default())
            .record(program)
            .unwrap()
            .trace;
        let plan = Detector::default().plan(&trace, NoGain);
        let mut reversed = plan.clone();
        let last = reversed.sections.iter().map(|s| s.enter_time).max();
        for s in &mut reversed.sections {
            s.enter_time = last.unwrap_or_default() - s.enter_time;
        }
        reversed.validate().unwrap();
        for (plan, times) in [(&plan, "recorded"), (&reversed, "reversed")] {
            for strip in [true, false] {
                let transformed = Transformer::new(TransformConfig {
                    strip_unneeded_locks: strip,
                })
                .transform_from_plan(&trace, plan);
                if let Err(e) = matches_oracle(&transformed, strip, plan) {
                    panic!(
                        "{} at {} threads ({times} entry times, strip {strip}): {e}",
                        program.name,
                        trace.num_threads()
                    );
                }
                constraints += transformed.order_constraints.len();
                aux_locks += transformed.num_aux_locks;
            }
        }
    }
    // The sweep exercises RULES 2 and 3, not only standalone nodes.
    assert!(constraints > 0, "no RULE 2 constraint in the sweep");
    assert!(aux_locks > 0, "no auxiliary lock in the sweep");
}
