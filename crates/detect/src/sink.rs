//! Sink-based pair emission: where detection output goes.
//!
//! Every detection engine in this crate — the batch [`Detector`] (sequential
//! and `DetectorConfig::parallel`), the [`ParallelStreamingDetector`] and the
//! naive [`reference_analyze`] — emits each classified pair through a [`UlcpSink`]
//! instead of pushing into a hard-wired `Vec`. The sink decides what to keep:
//!
//! * [`CollectPairs`] materializes every [`Ulcp`] and [`CausalEdge`],
//!   reproducing the historical [`UlcpAnalysis`] bit-for-bit. Memory is
//!   O(pairs) — on dense traces the pair list dwarfs every other term
//!   (153M pairs on the 12M-event acceptance workload).
//! * [`SiteAggregator`] folds each pair at emission time into a
//!   per-(first-site, second-site, kind) aggregate with saturating counts and
//!   gains — the seeds of the report layer's Algorithm 2 fusion — keeping
//!   memory O(code sites) regardless of how many dynamic pairs the scan
//!   classifies. One pair costs one probe of a hash table keyed by the
//!   packed site pair; the finished table is sorted once.
//!
//! Emission order is engine-specific (the streaming engine emits in delivery
//! order, the batch engines in canonical order); [`UlcpSink::seal`] runs once
//! at the end of every analysis so order-sensitive sinks can restore the
//! canonical `(lock, first, second-thread, second)` order. Order-insensitive
//! sinks (saturating-add folds are commutative and associative) ignore it.
//!
//! [`Detector`]: crate::Detector
//! [`ParallelStreamingDetector`]: crate::ParallelStreamingDetector
//! [`reference_analyze`]: crate::reference_analyze
//! [`UlcpAnalysis`]: crate::UlcpAnalysis

use std::collections::HashMap;

use perfplay_trace::{CodeSiteId, CriticalSection, SectionId, ThreadId, Time};
use serde::{Deserialize, Serialize};

use crate::idhash::IdBuildHasher;
use crate::kinds::UlcpKind;
use crate::pairing::{CausalEdge, Ulcp, UlcpBreakdown};

/// The classification context of one emitted pair: borrowed views of the two
/// critical sections, so sinks can attribute the pair (code sites, costs,
/// threads) without a section-table lookup of their own.
#[derive(Debug, Clone, Copy)]
pub struct SectionCtx<'a> {
    /// The earlier critical section of the pair.
    pub first: &'a CriticalSection,
    /// The later critical section of the pair.
    pub second: &'a CriticalSection,
}

/// Consumer of the detection engines' pair stream.
///
/// Engines call [`emit`](Self::emit) for every ULCP and
/// [`emit_edge`](Self::emit_edge) for every causal edge (TLCP), then
/// [`seal`](Self::seal) exactly once when the scan is complete. The parallel
/// batch engine additionally builds one shard per lock with
/// [`fork`](Self::fork) and merges them back — in ascending lock order, so
/// the merged output is deterministic — with [`absorb`](Self::absorb).
pub trait UlcpSink {
    /// Receives one unnecessary lock contention pair.
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>);

    /// Receives one pair together with the second section's thread, which
    /// the caller already knows without a section-table access. The default
    /// forwards to [`emit`](Self::emit) and ignores the thread; sinks that
    /// capture it at emission time (to build the canonical sort key later)
    /// override this so the per-pair hot path never touches the section
    /// rows. Implementations must behave exactly like `emit` — the thread
    /// is `ctx.second.thread`, passed separately purely as an optimization.
    fn emit_threaded(&mut self, ulcp: Ulcp, second_thread: ThreadId, ctx: &SectionCtx<'_>) {
        let _ = second_thread;
        self.emit(ulcp, ctx);
    }

    /// Receives one causal edge (true lock contention pair).
    fn emit_edge(&mut self, edge: CausalEdge, ctx: &SectionCtx<'_>);

    /// Creates an empty sink of the same kind (carrying this sink's
    /// configuration) for one parallel shard.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Merges a shard produced by [`fork`](Self::fork) into this sink.
    /// Shards are absorbed in ascending lock order, each holding its pairs in
    /// emission order, so order-preserving sinks reconstruct the exact
    /// sequential output.
    fn absorb(&mut self, shard: Self)
    where
        Self: Sized;

    /// Renumbers recorded section ids after the streaming engine compacts
    /// never-closed placeholder sections away. `remap[old.index()]` is the
    /// new id, or `None` for a dropped section (dropped sections are never
    /// part of an emitted pair). The default is a no-op for sinks that do not
    /// retain section ids.
    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        let _ = remap;
    }

    /// Called exactly once when the scan is complete, with the final section
    /// table. Sinks that guarantee the canonical output order restore it
    /// here; the default is a no-op.
    fn seal(&mut self, sections: &[CriticalSection]) {
        let _ = sections;
    }

    /// Number of entries the sink currently holds resident — pairs for a
    /// collecting sink, table rows for an aggregating one. The streaming
    /// engines sample this once per chunk (the parallel one once per lock
    /// lane) for their peak-memory accounting, so it should be O(1): the
    /// aggregating sink keeps a running count of the rows it would emit
    /// instead of walking its table.
    fn resident_entries(&self) -> usize;
}

/// Two sinks fed side by side — e.g. an aggregator plus an edge collector.
impl<A: UlcpSink, B: UlcpSink> UlcpSink for (A, B) {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        self.0.emit(ulcp, ctx);
        self.1.emit(ulcp, ctx);
    }

    fn emit_threaded(&mut self, ulcp: Ulcp, second_thread: ThreadId, ctx: &SectionCtx<'_>) {
        self.0.emit_threaded(ulcp, second_thread, ctx);
        self.1.emit_threaded(ulcp, second_thread, ctx);
    }

    fn emit_edge(&mut self, edge: CausalEdge, ctx: &SectionCtx<'_>) {
        self.0.emit_edge(edge, ctx);
        self.1.emit_edge(edge, ctx);
    }

    fn fork(&self) -> Self {
        (self.0.fork(), self.1.fork())
    }

    fn absorb(&mut self, shard: Self) {
        self.0.absorb(shard.0);
        self.1.absorb(shard.1);
    }

    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        self.0.remap_sections(remap);
        self.1.remap_sections(remap);
    }

    fn seal(&mut self, sections: &[CriticalSection]) {
        self.0.seal(sections);
        self.1.seal(sections);
    }

    fn resident_entries(&self) -> usize {
        self.0.resident_entries() + self.1.resident_entries()
    }
}

/// The materializing sink: collects every pair and edge, reproducing the
/// historical `UlcpAnalysis` vectors bit-identically. Memory is O(pairs).
#[derive(Debug, Clone, Default)]
pub struct CollectPairs {
    /// All unnecessary lock contention pairs, in canonical order after
    /// [`seal`](UlcpSink::seal).
    pub ulcps: Vec<Ulcp>,
    /// All causal edges, in canonical order after [`seal`](UlcpSink::seal).
    pub edges: Vec<CausalEdge>,
}

impl UlcpSink for CollectPairs {
    fn emit(&mut self, ulcp: Ulcp, _ctx: &SectionCtx<'_>) {
        self.ulcps.push(ulcp);
    }

    fn emit_edge(&mut self, edge: CausalEdge, _ctx: &SectionCtx<'_>) {
        self.edges.push(edge);
    }

    fn fork(&self) -> Self {
        CollectPairs::default()
    }

    fn absorb(&mut self, shard: Self) {
        self.ulcps.extend(shard.ulcps);
        self.edges.extend(shard.edges);
    }

    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        let map = |id: SectionId| remap[id.index()].expect("paired section survives compaction");
        for u in &mut self.ulcps {
            u.first = map(u.first);
            u.second = map(u.second);
        }
        for e in &mut self.edges {
            e.from = map(e.from);
            e.to = map(e.to);
        }
    }

    /// Restores the canonical order: ascending lock, then the first section's
    /// timing index, then the candidate's thread, then the candidate's timing
    /// index. The batch engines already emit in exactly this order, so for
    /// them the sort is a detected-sorted-run no-op; the streaming engine
    /// emits in delivery order and relies on it.
    fn seal(&mut self, sections: &[CriticalSection]) {
        self.ulcps.sort_unstable_by_key(|u| {
            (u.lock, u.first, sections[u.second.index()].thread, u.second)
        });
        self.edges
            .sort_unstable_by_key(|e| (e.lock, e.from, sections[e.to.index()].thread, e.to));
    }

    fn resident_entries(&self) -> usize {
        self.ulcps.len() + self.edges.len()
    }
}

/// A per-pair performance-gain evaluator, consulted by [`SiteAggregator`] at
/// emission time. Must be a pure function of the pair and its sections, so
/// aggregation stays order-independent.
pub trait GainSource {
    /// The gain attributed to one pair, in nanoseconds. Negative gains are
    /// clamped at zero before accumulation, mirroring the report layer's
    /// treatment of Equation 1 gains.
    fn pair_gain_ns(&self, ulcp: &Ulcp, ctx: &SectionCtx<'_>) -> i64;
}

/// Attributes no gain to any pair: the aggregator degenerates to pure
/// per-site pair counting (the Table 1 shape).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGain;

impl GainSource for NoGain {
    fn pair_gain_ns(&self, _ulcp: &Ulcp, _ctx: &SectionCtx<'_>) -> i64 {
        0
    }
}

/// A detection-time gain proxy: the smaller of the two section bodies, i.e.
/// the serialization the pair could at most have cost if the two bodies had
/// otherwise run fully in parallel. Needs no replay, so a detection-only run
/// can still rank site pairs by optimization opportunity.
#[derive(Debug, Clone, Copy, Default)]
pub struct BodyOverlapGain;

impl GainSource for BodyOverlapGain {
    fn pair_gain_ns(&self, _ulcp: &Ulcp, ctx: &SectionCtx<'_>) -> i64 {
        let overlap: Time = ctx.first.body_cost.min(ctx.second.body_cost);
        i64::try_from(overlap.as_nanos()).unwrap_or(i64::MAX)
    }
}

/// One row of the aggregate table: every dynamic ULCP of one kind between one
/// (unordered) pair of code sites, collapsed into a count and a gain sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteAggregate {
    /// The smaller code site of the pair (sites are normalized so
    /// `site_first <= site_second`, matching the report layer's fusion
    /// seeds).
    pub site_first: CodeSiteId,
    /// The larger code site of the pair.
    pub site_second: CodeSiteId,
    /// The ULCP category.
    pub kind: UlcpKind,
    /// Dynamic pairs folded into this row (saturating).
    pub dynamic_pairs: u64,
    /// Accumulated clamped gain in nanoseconds (saturating).
    pub gain_ns: u64,
}

/// One row of the edge aggregate table: every causal edge between one
/// (unordered) pair of code sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeAggregate {
    /// The smaller code site of the pair.
    pub site_first: CodeSiteId,
    /// The larger code site of the pair.
    pub site_second: CodeSiteId,
    /// Causal edges folded into this row (saturating).
    pub edges: u64,
}

/// The finished output of a [`SiteAggregator`] run: the per-site ULCP and
/// edge tables in ascending key order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteAggregates {
    /// Per-(site, site, kind) ULCP aggregates, ascending key order.
    pub ulcps: Vec<SiteAggregate>,
    /// Per-(site, site) causal-edge aggregates, ascending key order.
    pub edges: Vec<EdgeAggregate>,
}

impl SiteAggregates {
    /// Total dynamic ULCPs across all rows (saturating).
    pub fn total_pairs(&self) -> u64 {
        self.ulcps
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.dynamic_pairs))
    }

    /// Total accumulated gain across all rows (saturating).
    pub fn total_gain_ns(&self) -> u64 {
        self.ulcps
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.gain_ns))
    }

    /// Number of rows across both tables.
    pub fn len(&self) -> usize {
        self.ulcps.len() + self.edges.len()
    }

    /// Returns true if no pair or edge was ever aggregated.
    pub fn is_empty(&self) -> bool {
        self.ulcps.is_empty() && self.edges.is_empty()
    }

    /// Fuses another aggregate table into this one with saturating addition,
    /// keeping ascending key order. Saturating add is commutative and
    /// associative, so merging N tables yields the identical result in any
    /// order — the property the multi-trace batch driver relies on to fuse
    /// concurrently-analyzed traces deterministically. Rows need not be
    /// sorted or unique (a deserialized table may be neither): rows with
    /// equal keys sum, and the result is in ascending key order.
    pub fn merge(&mut self, other: &SiteAggregates) {
        let mut table = SiteTable::default();
        for row in self.ulcps.iter().chain(&other.ulcps) {
            table.add_pairs(
                pack_sites(row.site_first, row.site_second),
                row.kind,
                row.dynamic_pairs,
                row.gain_ns,
            );
        }
        for row in self.edges.iter().chain(&other.edges) {
            table.add_edges(pack_sites(row.site_first, row.site_second), row.edges);
        }
        *self = table.finish();
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PairCell {
    pairs: u64,
    gain_ns: u64,
}

/// Every kind's cell for one `(site, site)` key, indexed by `UlcpKind as
/// usize` (declaration order, which is also `UlcpKind`'s `Ord`).
#[derive(Debug, Clone, Copy, Default)]
struct SiteRow {
    cells: [PairCell; UlcpKind::ALL.len()],
    /// Bit `kind as usize` is set once that kind's cell holds a row, so a
    /// row folded in with zero pairs still counts and is still emitted.
    present: u8,
}

impl SiteRow {
    fn bit(kind: UlcpKind) -> u8 {
        1 << kind as u8
    }

    /// The cells that hold a row, in ascending kind order.
    fn present_cells(self) -> impl Iterator<Item = (UlcpKind, PairCell)> {
        UlcpKind::ALL
            .into_iter()
            .filter(move |&kind| self.present & Self::bit(kind) != 0)
            .map(move |kind| (kind, self.cells[kind as usize]))
    }
}

/// Packs a `(site_first, site_second)` key into one word whose ascending
/// order is the tuple's ascending order.
fn pack_sites(first: CodeSiteId, second: CodeSiteId) -> u64 {
    (u64::from(first.raw()) << 32) | u64::from(second.raw())
}

fn unpack_sites(key: u64) -> (CodeSiteId, CodeSiteId) {
    (
        CodeSiteId::new((key >> 32) as u32),
        CodeSiteId::new(key as u32),
    )
}

/// The accumulator behind [`SiteAggregator`] and [`SiteAggregates::merge`]:
/// hash tables keyed by the packed site pair, so adding one pair is one hash
/// probe. Iteration order never leaks — [`finish`](Self::finish) sorts.
#[derive(Debug, Clone, Default)]
struct SiteTable {
    pairs: HashMap<u64, SiteRow, IdBuildHasher>,
    edges: HashMap<u64, u64, IdBuildHasher>,
    /// Present kind cells in `pairs` plus rows in `edges`: exactly the
    /// number of rows [`finish`](Self::finish) will emit.
    rows: usize,
}

impl SiteTable {
    fn add_pairs(&mut self, key: u64, kind: UlcpKind, pairs: u64, gain_ns: u64) {
        let row = self.pairs.entry(key).or_default();
        let bit = SiteRow::bit(kind);
        self.rows += usize::from(row.present & bit == 0);
        row.present |= bit;
        let cell = &mut row.cells[kind as usize];
        cell.pairs = cell.pairs.saturating_add(pairs);
        cell.gain_ns = cell.gain_ns.saturating_add(gain_ns);
    }

    fn add_edges(&mut self, key: u64, edges: u64) {
        let count = self.edges.entry(key).or_insert_with(|| {
            self.rows += 1;
            0
        });
        *count = count.saturating_add(edges);
    }

    fn absorb(&mut self, other: SiteTable) {
        for (key, row) in other.pairs {
            for (kind, cell) in row.present_cells() {
                self.add_pairs(key, kind, cell.pairs, cell.gain_ns);
            }
        }
        for (key, edges) in other.edges {
            self.add_edges(key, edges);
        }
    }

    /// Sorts the keys once and emits the present cells in ascending
    /// `(site_first, site_second, kind)` order.
    fn finish(self) -> SiteAggregates {
        let mut pairs: Vec<(u64, SiteRow)> = self.pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(key, _)| key);
        let mut edges: Vec<(u64, u64)> = self.edges.into_iter().collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        SiteAggregates {
            ulcps: pairs
                .into_iter()
                .flat_map(|(key, row)| {
                    let (site_first, site_second) = unpack_sites(key);
                    row.present_cells().map(move |(kind, cell)| SiteAggregate {
                        site_first,
                        site_second,
                        kind,
                        dynamic_pairs: cell.pairs,
                        gain_ns: cell.gain_ns,
                    })
                })
                .collect(),
            edges: edges
                .into_iter()
                .map(|(key, edges)| {
                    let (site_first, site_second) = unpack_sites(key);
                    EdgeAggregate {
                        site_first,
                        site_second,
                        edges,
                    }
                })
                .collect(),
        }
    }
}

/// The aggregating sink: folds each emitted pair into a per-(first-site,
/// second-site, kind) row at emission time, keeping memory O(code sites)
/// instead of O(pairs).
///
/// The rows live in a hash table keyed by the site pair packed into one
/// `u64`, each entry holding one cell per [`UlcpKind`], so a pair costs one
/// hash probe. [`finish`](Self::finish) sorts the keys once, so the output
/// is in ascending `(site_first, site_second, kind)` order.
///
/// Counts and gains accumulate with saturating addition, which is commutative
/// and associative (the result is `min(true sum, u64::MAX)`), so the
/// aggregate is independent of emission order — the batch, parallel and
/// streaming engines all produce the identical table.
#[derive(Debug, Clone, Default)]
pub struct SiteAggregator<G: GainSource = NoGain> {
    gain: G,
    table: SiteTable,
}

/// Unordered site-pair key, normalized exactly as the report layer's fusion
/// seeds are, then packed.
fn site_key(ctx: &SectionCtx<'_>) -> u64 {
    let (a, b) = (ctx.first.site, ctx.second.site);
    if a.raw() <= b.raw() {
        pack_sites(a, b)
    } else {
        pack_sites(b, a)
    }
}

impl<G: GainSource> SiteAggregator<G> {
    /// Creates an aggregator using the given gain source.
    pub fn new(gain: G) -> Self {
        SiteAggregator {
            gain,
            table: SiteTable::default(),
        }
    }

    /// Consumes the aggregator into its finished tables, in ascending key
    /// order.
    pub fn finish(self) -> SiteAggregates {
        self.table.finish()
    }
}

impl<G: GainSource + Clone> UlcpSink for SiteAggregator<G> {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        let gain = self.gain.pair_gain_ns(&ulcp, ctx).max(0) as u64;
        self.table.add_pairs(site_key(ctx), ulcp.kind, 1, gain);
    }

    fn emit_edge(&mut self, _edge: CausalEdge, ctx: &SectionCtx<'_>) {
        self.table.add_edges(site_key(ctx), 1);
    }

    fn fork(&self) -> Self {
        SiteAggregator::new(self.gain.clone())
    }

    fn absorb(&mut self, shard: Self) {
        self.table.absorb(shard.table);
    }

    /// The number of rows [`finish`](SiteAggregator::finish) would emit:
    /// non-empty `(site, site, kind)` cells plus edge rows, kept as a running
    /// count.
    fn resident_entries(&self) -> usize {
        self.table.rows
    }
}

/// The result of running a detection engine into a caller-supplied sink: the
/// section table, the per-category breakdown (which every engine maintains
/// independently of the sink), and the sink itself.
#[derive(Debug, Clone)]
pub struct SinkAnalysis<S> {
    /// Every dynamic critical section, indexed by `SectionId::index`.
    pub sections: Vec<CriticalSection>,
    /// Per-category pair counts.
    pub breakdown: UlcpBreakdown,
    /// The sink, holding whatever it retained of the pair stream.
    pub sink: S,
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_trace::{Footprint, LockId, ThreadId};
    use std::collections::BTreeSet;

    fn section(id: u32, thread: u32, site: u32, body_ns: u64) -> CriticalSection {
        CriticalSection {
            id: SectionId::new(id),
            thread: ThreadId::new(thread),
            lock: LockId::new(0),
            site: CodeSiteId::new(site),
            acquire_index: 0,
            release_index: 1,
            enter_time: Time::from_nanos(u64::from(id) * 10),
            exit_time: Time::from_nanos(u64::from(id) * 10 + 5),
            reads: Footprint::new(),
            writes: Footprint::new(),
            accesses: Vec::new(),
            body_cost: Time::from_nanos(body_ns),
            depth: 0,
        }
    }

    fn ulcp(first: u32, second: u32, kind: UlcpKind) -> Ulcp {
        Ulcp {
            first: SectionId::new(first),
            second: SectionId::new(second),
            lock: LockId::new(0),
            kind,
        }
    }

    #[test]
    fn aggregator_normalizes_site_pairs_and_saturates() {
        let a = section(0, 0, 7, 100);
        let b = section(1, 1, 3, 40);
        let mut agg = SiteAggregator::new(BodyOverlapGain);
        // Emit the same site pair in both orientations; they must land in
        // one row keyed (3, 7).
        agg.emit(
            ulcp(0, 1, UlcpKind::ReadRead),
            &SectionCtx {
                first: &a,
                second: &b,
            },
        );
        agg.emit(
            ulcp(1, 0, UlcpKind::ReadRead),
            &SectionCtx {
                first: &b,
                second: &a,
            },
        );
        let out = agg.finish();
        assert_eq!(out.ulcps.len(), 1);
        let row = &out.ulcps[0];
        assert_eq!(row.site_first, CodeSiteId::new(3));
        assert_eq!(row.site_second, CodeSiteId::new(7));
        assert_eq!(row.dynamic_pairs, 2);
        assert_eq!(row.gain_ns, 80, "min(100, 40) twice");
        assert_eq!(out.total_pairs(), 2);
        assert_eq!(out.total_gain_ns(), 80);
    }

    #[test]
    fn aggregator_gain_accumulation_saturates() {
        struct Huge;
        impl GainSource for Huge {
            fn pair_gain_ns(&self, _: &Ulcp, _: &SectionCtx<'_>) -> i64 {
                i64::MAX
            }
        }
        impl Clone for Huge {
            fn clone(&self) -> Self {
                Huge
            }
        }
        let a = section(0, 0, 1, 0);
        let b = section(1, 1, 1, 0);
        let ctx = SectionCtx {
            first: &a,
            second: &b,
        };
        let mut agg = SiteAggregator::new(Huge);
        for _ in 0..3 {
            agg.emit(ulcp(0, 1, UlcpKind::Benign), &ctx);
            agg.emit(ulcp(0, 1, UlcpKind::NullLock), &ctx);
        }
        let out = agg.finish();
        // Each kind cell of the one site-pair row saturates on its own.
        assert_eq!(out.ulcps.len(), 2);
        for (row, kind) in out.ulcps.iter().zip([UlcpKind::NullLock, UlcpKind::Benign]) {
            assert_eq!(row.kind, kind);
            assert_eq!(row.dynamic_pairs, 3);
            assert_eq!(row.gain_ns, u64::MAX);
        }
        assert_eq!(out.total_gain_ns(), u64::MAX);
    }

    #[test]
    fn aggregator_keys_sites_at_the_packing_edge() {
        let max = section(0, 0, u32::MAX, 1);
        let below = section(1, 1, u32::MAX - 1, 1);
        let zero = section(2, 0, 0, 1);
        let mut agg = SiteAggregator::new(NoGain);
        for (first, second) in [(&max, &max), (&max, &below), (&zero, &max)] {
            agg.emit(
                ulcp(0, 1, UlcpKind::ReadRead),
                &SectionCtx { first, second },
            );
        }
        let keys: Vec<_> = agg
            .finish()
            .ulcps
            .iter()
            .map(|r| (r.site_first.raw(), r.site_second.raw()))
            .collect();
        assert_eq!(
            keys,
            [
                (0, u32::MAX),
                (u32::MAX - 1, u32::MAX),
                (u32::MAX, u32::MAX)
            ]
        );
    }

    #[test]
    fn empty_aggregator_finishes_empty() {
        let mut agg = SiteAggregator::new(BodyOverlapGain);
        assert_eq!(agg.resident_entries(), 0);
        agg.absorb(agg.fork());
        assert_eq!(agg.resident_entries(), 0);
        let out = agg.finish();
        assert!(out.is_empty());
        assert_eq!(out, SiteAggregates::default());
        let mut merged = SiteAggregates::default();
        merged.merge(&out);
        assert!(merged.is_empty());
    }

    #[test]
    fn resident_entries_counts_cells_and_edge_rows_at_every_step() {
        // Two shards fed alternately; after every emission each shard's
        // count, and the count of the two absorbed together, must equal the
        // number of distinct (site, site, kind-or-edge) keys fed so far.
        let secs: Vec<_> = (0..5).map(|i| section(i, i % 2, i % 3, 1)).collect();
        let mut shards = [SiteAggregator::new(NoGain), SiteAggregator::new(NoGain)];
        let mut keys = [BTreeSet::new(), BTreeSet::new()];
        let pairs = (0..5usize).flat_map(|i| (0..5usize).map(move |j| (i, j)));
        for (step, (i, j)) in pairs.enumerate() {
            let ctx = SectionCtx {
                first: &secs[i],
                second: &secs[j],
            };
            let sites = (
                secs[i].site.min(secs[j].site),
                secs[i].site.max(secs[j].site),
            );
            let side = step % 2;
            if step % 3 == 0 {
                let edge = CausalEdge {
                    from: secs[i].id,
                    to: secs[j].id,
                    lock: LockId::new(0),
                };
                shards[side].emit_edge(edge, &ctx);
                keys[side].insert((sites, None));
            } else {
                let kind = UlcpKind::ALL[step % 4];
                shards[side].emit(ulcp(i as u32, j as u32, kind), &ctx);
                keys[side].insert((sites, Some(kind)));
            }
            for side in 0..2 {
                assert_eq!(shards[side].resident_entries(), keys[side].len());
            }
            let union: BTreeSet<_> = keys[0].union(&keys[1]).collect();
            let mut both = shards[0].clone();
            both.absorb(shards[1].clone());
            assert_eq!(both.resident_entries(), union.len(), "step {step}");
            assert_eq!(both.finish().len(), union.len(), "step {step}");
        }
    }

    #[test]
    fn merge_tolerates_unsorted_and_duplicate_rows() {
        let row = |a: u32, b: u32, kind, pairs, gain| SiteAggregate {
            site_first: CodeSiteId::new(a),
            site_second: CodeSiteId::new(b),
            kind,
            dynamic_pairs: pairs,
            gain_ns: gain,
        };
        let edge = |a: u32, b: u32, edges| EdgeAggregate {
            site_first: CodeSiteId::new(a),
            site_second: CodeSiteId::new(b),
            edges,
        };
        let mut table = SiteAggregates {
            ulcps: vec![
                row(2, 3, UlcpKind::Benign, 1, 5),
                row(1, 9, UlcpKind::ReadRead, 0, 0),
                row(2, 3, UlcpKind::NullLock, 4, 1),
                row(2, 3, UlcpKind::Benign, u64::MAX, 7),
            ],
            edges: vec![edge(5, 6, 2), edge(0, 1, 1), edge(5, 6, 3)],
        };
        table.merge(&SiteAggregates {
            ulcps: vec![row(0, 4, UlcpKind::DisjointWrite, 2, 2)],
            edges: vec![edge(0, 1, 4)],
        });
        assert_eq!(
            table.ulcps,
            [
                row(0, 4, UlcpKind::DisjointWrite, 2, 2),
                row(1, 9, UlcpKind::ReadRead, 0, 0),
                row(2, 3, UlcpKind::NullLock, 4, 1),
                row(2, 3, UlcpKind::Benign, u64::MAX, 12),
            ]
        );
        assert_eq!(table.edges, [edge(0, 1, 5), edge(5, 6, 5)]);
    }

    #[test]
    fn kind_index_follows_kind_order() {
        for (i, kind) in UlcpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
        assert!(UlcpKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn aggregator_absorb_matches_single_sink() {
        let secs: Vec<_> = (0..4)
            .map(|i| section(i, i % 2, i % 3, 10 * u64::from(i + 1)))
            .collect();
        let emit_all = |sink: &mut SiteAggregator<BodyOverlapGain>, lo: usize, hi: usize| {
            for i in lo..hi {
                for j in (i + 1)..hi {
                    let ctx = SectionCtx {
                        first: &secs[i],
                        second: &secs[j],
                    };
                    sink.emit(ulcp(i as u32, j as u32, UlcpKind::NullLock), &ctx);
                    sink.emit_edge(
                        CausalEdge {
                            from: secs[i].id,
                            to: secs[j].id,
                            lock: LockId::new(0),
                        },
                        &ctx,
                    );
                }
            }
        };
        let mut single = SiteAggregator::new(BodyOverlapGain);
        emit_all(&mut single, 0, 4);

        let mut merged = SiteAggregator::new(BodyOverlapGain);
        let mut shard_a = merged.fork();
        let mut shard_b = merged.fork();
        emit_all(&mut shard_a, 0, 4);
        // Split differently: re-emit nothing into b, everything into a —
        // then also test a genuine split.
        emit_all(&mut shard_b, 0, 0);
        merged.absorb(shard_a);
        merged.absorb(shard_b);
        assert_eq!(single.finish(), merged.finish());
    }

    #[test]
    fn tuple_sink_feeds_both_components() {
        let a = section(0, 0, 1, 5);
        let b = section(1, 1, 2, 5);
        let ctx = SectionCtx {
            first: &a,
            second: &b,
        };
        let mut sink = (CollectPairs::default(), SiteAggregator::new(NoGain));
        sink.emit(ulcp(0, 1, UlcpKind::ReadRead), &ctx);
        sink.emit_edge(
            CausalEdge {
                from: a.id,
                to: b.id,
                lock: LockId::new(0),
            },
            &ctx,
        );
        assert_eq!(sink.0.ulcps.len(), 1);
        assert_eq!(sink.0.edges.len(), 1);
        assert_eq!(sink.resident_entries(), 2 + 2);
        let sections = vec![a, b];
        sink.seal(&sections);
        let aggregates = sink.1.finish();
        assert_eq!(aggregates.ulcps.len(), 1);
        assert_eq!(aggregates.edges.len(), 1);
        assert!(!aggregates.is_empty());
        assert_eq!(aggregates.len(), 2);
    }

    #[test]
    fn collect_pairs_seal_restores_canonical_order() {
        // Emit out of order (as the streaming engine may) and seal.
        let secs = vec![
            section(0, 0, 1, 5),
            section(1, 1, 2, 5),
            section(2, 1, 2, 5),
        ];
        let mut sink = CollectPairs::default();
        let ctx02 = SectionCtx {
            first: &secs[0],
            second: &secs[2],
        };
        let ctx01 = SectionCtx {
            first: &secs[0],
            second: &secs[1],
        };
        sink.emit(ulcp(0, 2, UlcpKind::ReadRead), &ctx02);
        sink.emit(ulcp(0, 1, UlcpKind::ReadRead), &ctx01);
        sink.seal(&secs);
        assert_eq!(sink.ulcps[0].second, SectionId::new(1));
        assert_eq!(sink.ulcps[1].second, SectionId::new(2));
    }
}
