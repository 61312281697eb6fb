//! The causal-order topology (RULE 1).
//!
//! Nodes are dynamic critical sections; edges are the causal dependencies
//! retained from true lock contention pairs. ULCPs contribute *no* edge —
//! that is exactly what makes the transformed trace free of unnecessary
//! serialization.

use std::collections::{BTreeMap, BTreeSet};

use perfplay_detect::CausalEdge;
use perfplay_trace::SectionId;

/// The ULCP-free causal-order topology built by RULE 1.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<SectionId>,
    edges: Vec<CausalEdge>,
    outgoing: BTreeMap<SectionId, Vec<SectionId>>,
    incoming: BTreeMap<SectionId, Vec<SectionId>>,
}

impl Topology {
    /// Builds the topology from a section table and an edge list: every
    /// critical section is a node, every TLCP found by the sequential search
    /// is a causal edge. Edge order is preserved (it determines the
    /// adjacency-list order downstream), so callers must pass edges in the
    /// canonical detection order for bit-identical output.
    pub fn from_parts(sections: &[perfplay_trace::CriticalSection], edges: &[CausalEdge]) -> Self {
        let nodes = sections.iter().map(|s| s.id).collect();
        let mut outgoing: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        let mut incoming: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        for e in edges {
            outgoing.entry(e.from).or_default().push(e.to);
            incoming.entry(e.to).or_default().push(e.from);
        }
        Topology {
            nodes,
            edges: edges.to_vec(),
            outgoing,
            incoming,
        }
    }

    /// All nodes (critical sections) in id order.
    pub fn nodes(&self) -> &[SectionId] {
        &self.nodes
    }

    /// All causal edges.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// Number of outgoing causal edges of a node.
    pub fn out_degree(&self, node: SectionId) -> usize {
        self.outgoing.get(&node).map(Vec::len).unwrap_or(0)
    }

    /// Number of incoming causal edges of a node.
    pub fn in_degree(&self, node: SectionId) -> usize {
        self.incoming.get(&node).map(Vec::len).unwrap_or(0)
    }

    /// Causal predecessors (source nodes) of a node.
    pub fn sources_of(&self, node: SectionId) -> &[SectionId] {
        self.incoming.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Causal successors of a node.
    pub fn successors_of(&self, node: SectionId) -> &[SectionId] {
        self.outgoing.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nodes with neither incoming nor outgoing causal edges. The paper's
    /// RULE 3 step removes the lock/unlock events of these (and of
    /// null-locks) entirely.
    pub fn standalone_nodes(&self) -> Vec<SectionId> {
        self.nodes
            .iter()
            .copied()
            .filter(|n| self.out_degree(*n) == 0 && self.in_degree(*n) == 0)
            .collect()
    }

    /// Nodes that participate in at least one causal edge.
    pub fn causal_nodes(&self) -> BTreeSet<SectionId> {
        let mut set = BTreeSet::new();
        for e in &self.edges {
            set.insert(e.from);
            set.insert(e.to);
        }
        set
    }

    /// Checks that the causal edges are acyclic (they must be, because every
    /// edge goes from an earlier section id to a later one).
    pub fn is_acyclic(&self) -> bool {
        self.edges.iter().all(|e| e.from < e.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::{DetectionPlan, Detector, NoGain};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    fn analyze(build: impl FnOnce(&mut ProgramBuilder)) -> DetectionPlan {
        let mut b = ProgramBuilder::new("topology-test");
        build(&mut b);
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        Detector::default().plan(&trace, NoGain)
    }

    fn topology(plan: &DetectionPlan) -> Topology {
        Topology::from_parts(&plan.sections, &plan.edges)
    }

    fn mixed_workload(b: &mut ProgramBuilder) {
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site_r = b.site("t.c", "reader", 1);
        let site_w = b.site("t.c", "writer", 2);
        b.thread("t0", |t| {
            t.locked(lock, site_r, |cs| {
                cs.read(x);
            });
            t.compute_us(20);
        });
        b.thread("t1", |t| {
            t.compute_us(2);
            t.locked(lock, site_r, |cs| {
                cs.read(x);
            });
            t.locked(lock, site_w, |cs| {
                let v = cs.read_into(x);
                cs.write_set(x, 1);
                let _ = v;
            });
        });
    }

    #[test]
    fn topology_has_one_node_per_section_and_edges_from_tlcps() {
        let analysis = analyze(mixed_workload);
        let topo = topology(&analysis);
        assert_eq!(topo.nodes().len(), analysis.sections.len());
        assert_eq!(topo.edges().len(), analysis.edges.len());
        assert!(topo.is_acyclic());
        assert!(!topo.edges().is_empty());
    }

    #[test]
    fn degrees_and_sources_match_edges() {
        let analysis = analyze(mixed_workload);
        let topo = topology(&analysis);
        for e in topo.edges() {
            assert!(topo.out_degree(e.from) >= 1);
            assert!(topo.in_degree(e.to) >= 1);
            assert!(topo.sources_of(e.to).contains(&e.from));
            assert!(topo.successors_of(e.from).contains(&e.to));
        }
    }

    #[test]
    fn standalone_and_causal_nodes_partition_the_graph() {
        let analysis = analyze(mixed_workload);
        let topo = topology(&analysis);
        let standalone: BTreeSet<_> = topo.standalone_nodes().into_iter().collect();
        let causal = topo.causal_nodes();
        assert!(standalone.is_disjoint(&causal));
        assert_eq!(standalone.len() + causal.len(), topo.nodes().len());
    }

    #[test]
    fn pure_read_workload_has_only_standalone_nodes() {
        let analysis = analyze(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("t.c", "reader", 1);
            for i in 0..3 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                });
            }
        });
        let topo = topology(&analysis);
        assert!(topo.edges().is_empty());
        assert_eq!(topo.standalone_nodes().len(), topo.nodes().len());
        assert!(topo.causal_nodes().is_empty());
    }
}
