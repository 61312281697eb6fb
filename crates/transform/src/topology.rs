//! The causal-order topology (RULE 1).
//!
//! Nodes are dynamic critical sections; edges are the causal dependencies
//! retained from true lock contention pairs. ULCPs contribute *no* edge —
//! that is exactly what makes the transformed trace free of unnecessary
//! serialization.

use perfplay_detect::CausalEdge;
use perfplay_trace::{CriticalSection, SectionId};

/// The ULCP-free causal-order topology built by RULE 1.
///
/// Every table is indexed by [`SectionId::index`], so a node is a position in
/// the section table: per-node out-degree counts, and each node's causal
/// sources in CSR form (one offset row, one flat source list) in edge order.
/// Building it is one counting pass and one fill pass over the edges; it
/// borrows the edge list instead of copying it.
#[derive(Debug, Clone, Default)]
pub struct Topology<'a> {
    edges: &'a [CausalEdge],
    /// Outgoing causal edges per node.
    out_degree: Vec<u32>,
    /// Causal sources of node `n`:
    /// `sources[source_start[n]..source_start[n + 1]]`, in edge order.
    source_start: Vec<usize>,
    sources: Vec<SectionId>,
}

impl<'a> Topology<'a> {
    /// Builds the topology from a section table and an edge list: every
    /// critical section is a node, every TLCP found by the sequential search
    /// is a causal edge. Edge order is preserved (it determines the
    /// adjacency-list order downstream), so callers must pass edges in the
    /// canonical detection order for bit-identical output.
    ///
    /// The section table must be numbered densely (`sections[i].id` has
    /// index `i`) and every edge must name sections of the table, as
    /// [`DetectionPlan::validate`](perfplay_detect::DetectionPlan::validate)
    /// checks for a plan; an edge outside the table panics.
    pub fn from_parts(sections: &[CriticalSection], edges: &'a [CausalEdge]) -> Self {
        let n = sections.len();
        let mut out_degree = vec![0u32; n];
        let mut source_start = vec![0usize; n + 1];
        for e in edges {
            out_degree[e.from.index()] += 1;
            source_start[e.to.index() + 1] += 1;
        }
        for i in 0..n {
            source_start[i + 1] += source_start[i];
        }
        let mut next = source_start[..n].to_vec();
        let mut sources = vec![SectionId::new(0); edges.len()];
        for e in edges {
            let slot = &mut next[e.to.index()];
            sources[*slot] = e.from;
            *slot += 1;
        }
        Topology {
            edges,
            out_degree,
            source_start,
            sources,
        }
    }

    /// All nodes (critical sections) in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = SectionId> {
        (0..self.out_degree.len() as u32).map(SectionId::new)
    }

    /// All causal edges.
    pub fn edges(&self) -> &'a [CausalEdge] {
        self.edges
    }

    /// Number of outgoing causal edges of a node.
    pub fn out_degree(&self, node: SectionId) -> usize {
        self.out_degree[node.index()] as usize
    }

    /// Number of incoming causal edges of a node.
    pub fn in_degree(&self, node: SectionId) -> usize {
        self.sources_of(node).len()
    }

    /// Causal predecessors (source nodes) of a node, in edge order.
    pub fn sources_of(&self, node: SectionId) -> &[SectionId] {
        &self.sources[self.source_start[node.index()]..self.source_start[node.index() + 1]]
    }

    /// Whether a node has neither incoming nor outgoing causal edges. The
    /// paper's RULE 3 step removes the lock/unlock events of these (and of
    /// null-locks) entirely.
    pub fn is_standalone(&self, node: SectionId) -> bool {
        self.out_degree(node) == 0 && self.in_degree(node) == 0
    }

    /// Standalone nodes (see [`is_standalone`](Self::is_standalone)) in id
    /// order.
    pub fn standalone_nodes(&self) -> Vec<SectionId> {
        self.nodes().filter(|&n| self.is_standalone(n)).collect()
    }

    /// Nodes that participate in at least one causal edge, in id order.
    pub fn causal_nodes(&self) -> Vec<SectionId> {
        self.nodes().filter(|&n| !self.is_standalone(n)).collect()
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
    use std::collections::BTreeSet;

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

    fn topology(plan: &DetectionPlan) -> Topology<'_> {
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
        }
    }

    #[test]
    fn standalone_and_causal_nodes_partition_the_graph() {
        let analysis = analyze(mixed_workload);
        let topo = topology(&analysis);
        let standalone: BTreeSet<_> = topo.standalone_nodes().into_iter().collect();
        let causal: BTreeSet<_> = topo.causal_nodes().into_iter().collect();
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
