//! Algorithm 1 (ULCP identification) and the reversed-replay benign check.
//!
//! The reversed replay allocates nothing for the footprints real sections
//! have. It keeps the pair's union footprint and three value arrays (the
//! starting state and the memory of each order) in stack storage, and
//! reads a value by binary search over the sorted union. A larger union
//! runs the same code on heap buffers. The two orders run in lockstep,
//! so each read is compared when it happens and no read log is kept.

use perfplay_trace::{CriticalSection, Footprint, MemAccess, ObjectId};

use crate::kinds::{PairClass, UlcpKind};
use crate::shadow::StartState;

/// Classifies a pair of critical sections protected by the same lock using
/// the read/write-set intersections of Algorithm 1.
///
/// Returns the disjointness-based classification only; conflicting pairs are
/// reported as [`PairClass::Tlcp`] here and must be refined by
/// [`refine_conflicting_pair`] (the reversed-replay check) to separate benign
/// ULCPs from true contention.
///
/// Every set test is a [`Footprint`] intersection, so disjoint pairs are
/// usually rejected by a single summary-word AND.
pub fn classify_by_sets(c1: &CriticalSection, c2: &CriticalSection) -> PairClass {
    // Line 1: either section performs no shared access at all.
    if c1.is_access_free() || c2.is_access_free() {
        return PairClass::Ulcp(UlcpKind::NullLock);
    }
    // Line 3: neither section writes.
    if c1.writes.is_empty() && c2.writes.is_empty() {
        return PairClass::Ulcp(UlcpKind::ReadRead);
    }
    // Line 5: all read/write and write/write intersections are empty.
    if !c1.reads.intersects(&c2.writes)
        && !c1.writes.intersects(&c2.reads)
        && !c1.writes.intersects(&c2.writes)
    {
        return PairClass::Ulcp(UlcpKind::DisjointWrite);
    }
    PairClass::Tlcp
}

/// Union footprints up to this many objects (counted with repeats across
/// the four sets) replay in stack storage; larger ones on the heap.
const INLINE_OBJECTS: usize = 32;

/// The reversed-replay check of Section 3.1: replays the two conflicting
/// critical sections in both orders from the memory state the original
/// execution had before the pair, and compares the results.
///
/// If both orders produce the same final memory *and* each section observes
/// the same read values in both orders, the conflict is false and the pair is
/// a benign ULCP; otherwise it is a true lock contention pair.
///
/// Only the values of the pair's combined footprint are fetched from
/// `state_before` — one lookup per object of the footprint, instead of
/// materializing the whole shadow memory. Every access must name an object of
/// its section's `reads` or `writes`, as extracted sections do; a pair with an
/// access outside the footprints cannot be proven benign and is a TLCP.
pub fn refine_conflicting_pair<S: StartState>(
    c1: &CriticalSection,
    c2: &CriticalSection,
    state_before: &S,
) -> PairClass {
    let parts = [&c1.reads, &c1.writes, &c2.reads, &c2.writes];
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let benign = if total <= INLINE_OBJECTS {
        let mut objs = [ObjectId::new(0); INLINE_OBJECTS];
        let mut values = [0i64; 3 * INLINE_OBJECTS];
        orders_agree(c1, c2, state_before, parts, &mut objs[..total], &mut values)
    } else {
        let mut objs = vec![ObjectId::new(0); total];
        let mut values = vec![0i64; 3 * total];
        orders_agree(c1, c2, state_before, parts, &mut objs, &mut values)
    };
    if benign.is_some() {
        PairClass::Ulcp(UlcpKind::Benign)
    } else {
        PairClass::Tlcp
    }
}

/// Runs `c1; c2` and `c2; c1` from `state_before` over the union of `parts`.
/// `Some` when every read of each section sees the same value in both
/// orders and the final memory is the same. `objs` holds exactly the
/// concatenated parts; `values` holds at least three times as many slots.
fn orders_agree<S: StartState>(
    c1: &CriticalSection,
    c2: &CriticalSection,
    state_before: &S,
    parts: [&Footprint; 4],
    objs: &mut [ObjectId],
    values: &mut [i64],
) -> Option<()> {
    let mut n = 0;
    for obj in parts.into_iter().flat_map(Footprint::iter) {
        objs[n] = obj;
        n += 1;
    }
    objs.sort_unstable();
    let mut len = 0;
    for i in 0..n {
        if len == 0 || objs[i] != objs[len - 1] {
            objs[len] = objs[i];
            len += 1;
        }
    }
    let objs = &objs[..len];
    let (start, rest) = values.split_at_mut(len);
    let (fwd, rest) = rest.split_at_mut(len);
    let rev = &mut rest[..len];
    for (value, &obj) in start.iter_mut().zip(objs) {
        *value = state_before.value(obj);
    }

    // The reversed order runs c2 first.
    rev.copy_from_slice(start);
    for access in &c2.accesses {
        if let MemAccess::Write(obj, op) = *access {
            let i = slot(objs, obj)?;
            rev[i] = op.apply(rev[i]);
        }
    }
    // c1 runs first in the forward order and second in the reversed one.
    fwd.copy_from_slice(start);
    run_lockstep(&c1.accesses, objs, fwd, rev)?;
    // c2 runs second in the forward order. Its reads in the reversed order
    // saw the starting state, which `start` still holds.
    run_lockstep(&c2.accesses, objs, fwd, start)?;
    (fwd == rev).then_some(())
}

/// Index of `obj` in the sorted union footprint.
fn slot(objs: &[ObjectId], obj: ObjectId) -> Option<usize> {
    objs.binary_search(&obj).ok()
}

/// Runs one section's accesses on two memories at once; `None` at the first
/// read that sees different values in them.
fn run_lockstep(
    accesses: &[MemAccess],
    objs: &[ObjectId],
    a: &mut [i64],
    b: &mut [i64],
) -> Option<()> {
    for access in accesses {
        match *access {
            MemAccess::Read(obj) => {
                let i = slot(objs, obj)?;
                if a[i] != b[i] {
                    return None;
                }
            }
            MemAccess::Write(obj, op) => {
                let i = slot(objs, obj)?;
                a[i] = op.apply(a[i]);
                b[i] = op.apply(b[i]);
            }
        }
    }
    Some(())
}

/// Full pair classification: Algorithm 1 followed by the reversed-replay
/// refinement for conflicting pairs.
///
/// When `use_reversed_replay` is false (the ablation mode), every conflicting
/// pair is conservatively reported as a TLCP, exactly as Algorithm 1 alone
/// would.
pub fn classify_pair<S: StartState>(
    c1: &CriticalSection,
    c2: &CriticalSection,
    state_before: &S,
    use_reversed_replay: bool,
) -> PairClass {
    match classify_by_sets(c1, c2) {
        PairClass::Tlcp if use_reversed_replay => refine_conflicting_pair(c1, c2, state_before),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::refine_naive;
    use crate::shadow::MemorySnapshot;
    use perfplay_trace::{CodeSiteId, LockId, SectionId, ThreadId, Time, WriteOp};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng, SmallRng};

    fn section(id: u32, thread: u32, reads: &[u64], writes: &[(u64, WriteOp)]) -> CriticalSection {
        let accesses = reads
            .iter()
            .map(|&r| MemAccess::Read(ObjectId::new(r)))
            .chain(
                writes
                    .iter()
                    .map(|&(w, op)| MemAccess::Write(ObjectId::new(w), op)),
            )
            .collect();
        section_of(id, thread, accesses)
    }

    /// A section performing `accesses`, with `reads` and `writes` exactly
    /// the objects they read and write, as extraction builds them.
    fn section_of(id: u32, thread: u32, accesses: Vec<MemAccess>) -> CriticalSection {
        let (mut read_objs, mut write_objs) = (Vec::new(), Vec::new());
        for access in &accesses {
            match *access {
                MemAccess::Read(obj) => read_objs.push(obj),
                MemAccess::Write(obj, _) => write_objs.push(obj),
            }
        }
        CriticalSection {
            id: SectionId::new(id),
            thread: ThreadId::new(thread),
            lock: LockId::new(0),
            site: CodeSiteId::new(id),
            acquire_index: 0,
            release_index: 1,
            enter_time: Time::from_nanos(u64::from(id) * 10),
            exit_time: Time::from_nanos(u64::from(id) * 10 + 5),
            reads: Footprint::from_unsorted(read_objs),
            writes: Footprint::from_unsorted(write_objs),
            accesses,
            body_cost: Time::from_nanos(5),
            depth: 0,
        }
    }

    /// Operands for the random pairs: equal `Set`s commute, and `Add`s at
    /// the extremes wrap.
    const VALUES: [i64; 6] = [0, 1, 7, -3, i64::MAX, i64::MIN];

    /// A section touching `objects` distinct objects of `0..universe`, one
    /// to three accesses each, in random order, so reads also follow the
    /// section's own writes. A `commuting` section only adds.
    fn random_section(
        rng: &mut SmallRng,
        id: u32,
        universe: u64,
        objects: usize,
        commuting: bool,
    ) -> CriticalSection {
        let mut pool: Vec<u64> = (0..universe).collect();
        let mut accesses = Vec::new();
        for k in 0..objects {
            let pick = rng.gen_range(k..pool.len());
            pool.swap(k, pick);
            let obj = ObjectId::new(pool[k]);
            for _ in 0..rng.gen_range(1..4usize) {
                let value = VALUES[rng.gen_range(0..VALUES.len())];
                accesses.push(match rng.gen_range(0..3u32) {
                    _ if commuting => MemAccess::Write(obj, WriteOp::Add(value)),
                    0 => MemAccess::Read(obj),
                    1 => MemAccess::Write(obj, WriteOp::Set(value)),
                    _ => MemAccess::Write(obj, WriteOp::Add(value)),
                });
            }
        }
        for k in (1..accesses.len()).rev() {
            accesses.swap(k, rng.gen_range(0..=k));
        }
        section_of(id, id, accesses)
    }

    fn empty_state() -> MemorySnapshot {
        MemorySnapshot::default()
    }

    #[test]
    fn null_lock_when_either_side_is_access_free() {
        let empty = section(0, 0, &[], &[]);
        let reader = section(1, 1, &[1], &[]);
        assert_eq!(
            classify_by_sets(&empty, &reader),
            PairClass::Ulcp(UlcpKind::NullLock)
        );
        assert_eq!(
            classify_by_sets(&reader, &empty),
            PairClass::Ulcp(UlcpKind::NullLock)
        );
    }

    #[test]
    fn read_read_when_neither_writes() {
        let a = section(0, 0, &[1, 2], &[]);
        let b = section(1, 1, &[2, 3], &[]);
        assert_eq!(
            classify_by_sets(&a, &b),
            PairClass::Ulcp(UlcpKind::ReadRead)
        );
    }

    #[test]
    fn disjoint_write_when_footprints_do_not_overlap() {
        let a = section(0, 0, &[1], &[(2, WriteOp::Set(1))]);
        let b = section(1, 1, &[3], &[(4, WriteOp::Set(1))]);
        assert_eq!(
            classify_by_sets(&a, &b),
            PairClass::Ulcp(UlcpKind::DisjointWrite)
        );
    }

    #[test]
    fn overlapping_write_is_conflicting() {
        let a = section(0, 0, &[], &[(1, WriteOp::Add(1))]);
        let b = section(1, 1, &[1], &[]);
        assert_eq!(classify_by_sets(&a, &b), PairClass::Tlcp);
    }

    #[test]
    fn redundant_writes_are_benign() {
        // Both sections store the same constant: order does not matter.
        let a = section(0, 0, &[], &[(1, WriteOp::Set(7))]);
        let b = section(1, 1, &[], &[(1, WriteOp::Set(7))]);
        assert_eq!(
            refine_conflicting_pair(&a, &b, &empty_state()),
            PairClass::Ulcp(UlcpKind::Benign)
        );
        assert_eq!(
            classify_pair(&a, &b, &empty_state(), true),
            PairClass::Ulcp(UlcpKind::Benign)
        );
    }

    #[test]
    fn commuting_increments_without_reads_are_benign() {
        let a = section(0, 0, &[], &[(1, WriteOp::Add(2))]);
        let b = section(1, 1, &[], &[(1, WriteOp::Add(5))]);
        assert_eq!(
            refine_conflicting_pair(&a, &b, &empty_state()),
            PairClass::Ulcp(UlcpKind::Benign)
        );
    }

    #[test]
    fn read_of_written_value_is_true_contention() {
        // One section reads what the other writes: order changes the read.
        let writer = section(0, 0, &[], &[(1, WriteOp::Set(9))]);
        let reader = section(1, 1, &[1], &[(2, WriteOp::Set(1))]);
        assert_eq!(classify_by_sets(&writer, &reader), PairClass::Tlcp);
        assert_eq!(
            refine_conflicting_pair(&writer, &reader, &empty_state()),
            PairClass::Tlcp
        );
    }

    #[test]
    fn set_and_add_to_same_object_do_not_commute() {
        let setter = section(0, 0, &[], &[(1, WriteOp::Set(10))]);
        let adder = section(1, 1, &[], &[(1, WriteOp::Add(3))]);
        assert_eq!(
            refine_conflicting_pair(&setter, &adder, &empty_state()),
            PairClass::Tlcp
        );
    }

    #[test]
    fn reversed_replay_ablation_treats_conflicts_as_tlcp() {
        let a = section(0, 0, &[], &[(1, WriteOp::Set(7))]);
        let b = section(1, 1, &[], &[(1, WriteOp::Set(7))]);
        assert_eq!(
            classify_pair(&a, &b, &empty_state(), false),
            PairClass::Tlcp
        );
    }

    #[test]
    fn starting_state_matters_for_benign_decision() {
        // Section A reads obj1 then writes obj1 := 5; section B writes obj1 := 5.
        // From a state where obj1 == 5 the pair commutes (A reads 5 either way);
        // from obj1 == 0 it does not (A reads 0 or 5 depending on order).
        let a = section(0, 0, &[1], &[(1, WriteOp::Set(5))]);
        let b = section(1, 1, &[], &[(1, WriteOp::Set(5))]);
        let mut state5 = MemorySnapshot::default();
        state5.set(ObjectId::new(1), 5);
        assert_eq!(
            refine_conflicting_pair(&a, &b, &state5),
            PairClass::Ulcp(UlcpKind::Benign)
        );
        let state0 = MemorySnapshot::default();
        assert_eq!(refine_conflicting_pair(&a, &b, &state0), PairClass::Tlcp);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lockstep replay decides every pair as the naive replay over
        /// two snapshot clones does, for footprints from empty to well past
        /// the inline bound.
        #[test]
        fn refine_matches_naive_replay(
            seed in 0u64..u64::MAX,
            sizes in (0usize..81, 0usize..81),
            small in 0u32..2,
            commuting in 0u32..2,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Half the cases fit the inline storage whatever the access mix.
            let (na, nb) = if small == 1 { (sizes.0 % 9, sizes.1 % 9) } else { sizes };
            let universe = na.max(nb) as u64 + rng.gen_range(0..8u64);
            let a = random_section(&mut rng, 0, universe, na, commuting == 1);
            let b = random_section(&mut rng, 1, universe, nb, commuting == 1);
            let mut start = MemorySnapshot::default();
            for raw in 0..universe {
                if rng.gen_bool(0.5) {
                    start.set(ObjectId::new(raw), VALUES[rng.gen_range(0..VALUES.len())]);
                }
            }
            prop_assert_eq!(refine_conflicting_pair(&a, &b, &start), refine_naive(&a, &b, &start));
            prop_assert_eq!(refine_conflicting_pair(&b, &a, &start), refine_naive(&b, &a, &start));
        }
    }
}
