//! Replay of the ULCP-free (transformed) trace.
//!
//! The ULCP-free replayer executes the same per-thread event streams as the
//! original replay, but the original lock acquire/release events are
//! reinterpreted through the transformation plan:
//!
//! * sections whose locks were stripped (null-locks and standalone topology
//!   nodes) synchronize with nobody and cost nothing;
//! * every other section atomically acquires its RULE 3 *lockset*, giving the
//!   RULE 4 mutual-exclusion semantics, and obeys the RULE 2 ordering
//!   constraints so replays are stable;
//! * with the dynamic locking strategy (DLS) enabled, auxiliary locks of
//!   already-finished source sections are skipped, which is what keeps the
//!   lockset maintenance overhead at the level Table 3 reports.
//!
//! The loop itself lives in the shared [`engine`](crate::engine); this module
//! supplies the [`UlcpFree`] policy. Its wake channels: a section exit
//! notifies the waiters of every auxiliary lock it releases
//! ([`WaitChannel::AuxLock`]) and the waiters of its own completion
//! ([`WaitChannel::SectionDone`] — RULE 2 successors, and DLS waiters whose
//! lockset may have just shrunk).

use std::collections::BTreeSet;

use perfplay_trace::{AuxLockId, LockId, SectionId, Time};
use perfplay_transform::{dynamic_lockset, TransformedTrace};

use crate::common::{ReplayConfig, SectionIndex};
use crate::engine::{Engine, EngineCore, ReplayPolicy, Step, WaitChannel};
use crate::result::{ReplayError, ReplayResult};

/// Replays transformed (ULCP-free) traces.
#[derive(Debug, Clone)]
pub struct UlcpFreeReplayer {
    config: ReplayConfig,
    use_dls: bool,
}

impl Default for UlcpFreeReplayer {
    fn default() -> Self {
        UlcpFreeReplayer {
            config: ReplayConfig::default(),
            use_dls: true,
        }
    }
}

impl UlcpFreeReplayer {
    /// Creates a replayer with the given cost model and DLS enabled.
    pub fn new(config: ReplayConfig) -> Self {
        UlcpFreeReplayer {
            config,
            use_dls: true,
        }
    }

    /// Enables or disables the dynamic locking strategy (Figure 9). The
    /// Table 3 ablation compares both settings.
    pub fn with_dls(mut self, use_dls: bool) -> Self {
        self.use_dls = use_dls;
        self
    }

    /// Replays the ULCP-free trace once.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] if the transformed synchronization cannot make
    /// progress (which would indicate a transformation bug) or the step limit
    /// is exceeded.
    pub fn replay(&self, transformed: &TransformedTrace) -> Result<ReplayResult, ReplayError> {
        let policy = UlcpFree::new(self.use_dls, transformed);
        Engine::new(&self.config, transformed.original, policy).run()
    }
}

/// RULE 2/3/4 lockset admission over the transformation plan. Every table
/// is a vector indexed by a dense id: sections by [`SectionId`], auxiliary
/// locks by [`AuxLockId`], events by `(thread, event index)`.
pub(crate) struct UlcpFree<'a> {
    tt: &'a TransformedTrace<'a>,
    use_dls: bool,
    sections: SectionIndex,
    /// RULE 2 predecessors of section `s`:
    /// `constraint_befores[constraint_start[s]..constraint_start[s + 1]]`,
    /// in `order_constraints` order.
    constraint_start: Vec<usize>,
    constraint_befores: Vec<SectionId>,
    aux_held: Vec<bool>,
    aux_free_since: Vec<Time>,
    /// The lockset each open section took at entry, released at its exit.
    section_locks: Vec<BTreeSet<AuxLockId>>,
    /// Exit time per section; `Some` exactly when the section finished.
    finish_times: Vec<Option<Time>>,
    lockset_ops: u64,
    lockset_overhead: Time,
}

impl<'a> UlcpFree<'a> {
    pub(crate) fn new(use_dls: bool, tt: &'a TransformedTrace<'a>) -> Self {
        let n = tt.sections.len();
        let mut constraint_start = vec![0usize; n + 1];
        for c in &tt.order_constraints {
            constraint_start[c.after.index() + 1] += 1;
        }
        for i in 0..n {
            constraint_start[i + 1] += constraint_start[i];
        }
        let mut fill = constraint_start.clone();
        let mut constraint_befores = vec![SectionId::new(0); tt.order_constraints.len()];
        for c in &tt.order_constraints {
            let slot = &mut fill[c.after.index()];
            constraint_befores[*slot] = c.before;
            *slot += 1;
        }
        UlcpFree {
            tt,
            use_dls,
            sections: SectionIndex::new(tt.original, tt.sections),
            constraint_start,
            constraint_befores,
            aux_held: vec![false; tt.num_aux_locks],
            aux_free_since: vec![Time::ZERO; tt.num_aux_locks],
            section_locks: vec![BTreeSet::new(); n],
            finish_times: vec![None; n],
            lockset_ops: 0,
            lockset_overhead: Time::ZERO,
        }
    }

    fn is_finished(&self, sid: SectionId) -> bool {
        self.finish_times[sid.index()].is_some()
    }
}

impl ReplayPolicy for UlcpFree<'_> {
    fn on_acquire(&mut self, core: &mut EngineCore, ti: usize, idx: usize, _lock: LockId) -> Step {
        let clock = core.threads[ti].clock;
        // The recorded partial order of condition-variable wake-ups still
        // applies in the ULCP-free replay.
        let Ok(dep_time) = core.wake_dep_time(ti, idx) else {
            core.block_on(ti, []);
            return Step::Blocked;
        };

        let Some(sid) = self.sections.get(ti, idx) else {
            core.complete(ti, idx, clock.max(dep_time));
            return Step::Completed;
        };
        let node = self.tt.node(sid);

        if node.strip_lock {
            core.complete(ti, idx, clock.max(dep_time));
            return Step::Completed;
        }

        if core.threads[ti].request_time.is_none() {
            core.threads[ti].request_time = Some(clock);
        }

        // RULE 2: ordered predecessors must have finished. Blocking on the
        // first unfinished one is enough — its completion wakes us, and any
        // remaining predecessor blocks the retry the same way.
        let mut order_time = Time::ZERO;
        let befores = self.constraint_start[sid.index()]..self.constraint_start[sid.index() + 1];
        for &before in &self.constraint_befores[befores] {
            match self.finish_times[before.index()] {
                Some(t) => order_time = order_time.max(t),
                None => {
                    core.block_on(ti, [WaitChannel::SectionDone(before)]);
                    return Step::Blocked;
                }
            }
        }

        // RULE 3/4: take the (possibly DLS-pruned) lockset atomically.
        let lockset = if self.use_dls {
            dynamic_lockset(node, &self.tt.plan, |s| self.is_finished(s))
        } else {
            node.lockset.clone()
        };
        let mut lockset_free_time = Time::ZERO;
        let mut any_held = false;
        for lock in &lockset {
            if self.aux_held[lock.index()] {
                any_held = true;
            } else {
                lockset_free_time = lockset_free_time.max(self.aux_free_since[lock.index()]);
            }
        }
        if any_held {
            // Wake on any held lock's release — or, under DLS, on a source
            // section finishing (which may prune the held lock from the
            // lockset entirely).
            let held = lockset
                .iter()
                .filter(|l| self.aux_held[l.index()])
                .map(|l| WaitChannel::AuxLock(*l));
            let prunes = node
                .sources
                .iter()
                .filter(|s| self.use_dls && !self.is_finished(**s))
                .map(|s| WaitChannel::SectionDone(*s));
            core.block_on(ti, held.chain(prunes));
            return Step::Blocked;
        }

        let dls_cost = if self.use_dls {
            core.config.dls_check_cost * node.sources.len() as u64
        } else {
            Time::ZERO
        };
        let op_cost = core.config.lockset_op_cost * lockset.len() as u64;
        let start = clock.max(dep_time).max(order_time).max(lockset_free_time);
        let completion = start + core.config.lock_acquire_cost + op_cost + dls_cost;

        let requested = core.threads[ti].request_time.unwrap_or(clock);
        core.threads[ti].timing.lock_wait += start.saturating_sub(requested);
        core.threads[ti].timing.busy += core.config.lock_acquire_cost + op_cost + dls_cost;
        self.lockset_ops += lockset.len() as u64;
        self.lockset_overhead += op_cost + dls_cost;

        for lock in &lockset {
            self.aux_held[lock.index()] = true;
        }
        self.section_locks[sid.index()] = lockset;
        core.complete(ti, idx, completion);
        Step::Completed
    }

    fn on_release(&mut self, core: &mut EngineCore, ti: usize, idx: usize, _lock: LockId) -> Step {
        let clock = core.threads[ti].clock;
        let Some(sid) = self.sections.get(ti, idx) else {
            core.complete(ti, idx, clock);
            return Step::Completed;
        };
        if self.tt.node(sid).strip_lock {
            self.finish_times[sid.index()] = Some(clock);
            core.complete(ti, idx, clock);
            core.notify(WaitChannel::SectionDone(sid));
            return Step::Completed;
        }
        let held = std::mem::take(&mut self.section_locks[sid.index()]);
        let op_cost = core.config.lockset_op_cost * held.len() as u64;
        let completion = clock + core.config.lock_release_cost + op_cost;
        core.threads[ti].timing.busy += core.config.lock_release_cost + op_cost;
        self.lockset_ops += held.len() as u64;
        self.lockset_overhead += op_cost;
        for lock in &held {
            self.aux_held[lock.index()] = false;
            self.aux_free_since[lock.index()] = completion;
        }
        self.finish_times[sid.index()] = Some(completion);
        core.complete(ti, idx, completion);
        for lock in &held {
            core.notify(WaitChannel::AuxLock(*lock));
        }
        core.notify(WaitChannel::SectionDone(sid));
        Step::Completed
    }

    fn lockset_totals(&self) -> (u64, Time) {
        (self.lockset_ops, self.lockset_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::original::Replayer;
    use crate::schedule::ReplaySchedule;
    use perfplay_detect::{Detector, NoGain};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_transform::Transformer;

    /// Records the program and detects its plan; tests transform it with
    /// `Transformer::default()`.
    fn pipeline(
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (perfplay_trace::Trace, perfplay_detect::DetectionPlan) {
        let mut b = ProgramBuilder::new("free-replay-test");
        build(&mut b);
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let plan = Detector::default().plan(&trace, NoGain);
        (trace, plan)
    }

    fn read_heavy(threads: usize, iters: u32) -> impl FnOnce(&mut ProgramBuilder) {
        move |b: &mut ProgramBuilder| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("rh.c", "reader", 1);
            for i in 0..threads {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(iters, |l| {
                        l.locked(lock, site, |cs| {
                            cs.read(x);
                            cs.compute_ns(500);
                        });
                        l.compute_ns(100);
                    });
                });
            }
        }
    }

    #[test]
    fn ulcp_free_replay_is_faster_for_read_heavy_contention() {
        let (trace, plan) = pipeline(read_heavy(4, 10));
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let original = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::default().replay(&tt).unwrap();
        assert!(
            free.total_time < original.total_time,
            "ULCP-free {:?} should beat original {:?}",
            free.total_time,
            original.total_time
        );
        // All sections were standalone, so no lockset overhead at all.
        assert_eq!(free.lockset_ops, 0);
    }

    #[test]
    fn true_contention_is_preserved_by_the_transformation() {
        let (trace, plan) = pipeline(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("tc.c", "writer", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(5, |l| {
                        l.locked(lock, site, |cs| {
                            let v = cs.read_into(x);
                            cs.write_add(x, 1);
                            cs.compute_ns(600);
                            let _ = v;
                        });
                    });
                });
            }
        });
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let original = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::default().replay(&tt).unwrap();
        // Truly conflicting sections stay serialized: the bodies (600ns * 10)
        // can never overlap, so the free replay cannot drop below that bound.
        assert!(free.total_time >= Time::from_nanos(6_000));
        // And it cannot be dramatically faster than the original replay.
        assert!(free.total_time.as_nanos() as f64 >= 0.7 * original.total_time.as_nanos() as f64);
        assert!(free.lockset_ops > 0);
    }

    #[test]
    fn order_constraints_keep_causal_sections_in_original_order() {
        let (trace, plan) = pipeline(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("oc.c", "writer", 1);
            for i in 0..3 {
                b.thread(format!("t{i}"), |t| {
                    t.compute_ns(100 * (i as u64 + 1));
                    t.locked(lock, site, |cs| {
                        let v = cs.read_into(x);
                        cs.write_set(x, i as i64);
                        cs.compute_ns(400);
                        let _ = v;
                    });
                });
            }
        });
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let free = UlcpFreeReplayer::default().replay(&tt).unwrap();
        for c in &tt.order_constraints {
            let before = &tt.sections[c.before.index()];
            let after = &tt.sections[c.after.index()];
            let before_release = free.event_times[before.thread.index()][before.release_index];
            let after_acquire = free.event_times[after.thread.index()][after.acquire_index];
            assert!(
                after_acquire >= before_release,
                "constraint {:?} -> {:?} violated",
                c.before,
                c.after
            );
        }
    }

    #[test]
    fn dls_reduces_lockset_operations_and_overhead() {
        let (trace, plan) = pipeline(|b| {
            // Writers with gaps between them: by the time a later section
            // starts, its causal sources have usually finished, so DLS can
            // skip their auxiliary locks.
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("dls.c", "writer", 1);
            for i in 0..4 {
                b.thread(format!("t{i}"), |t| {
                    t.compute_us(5 * (i as u64 + 1));
                    t.locked(lock, site, |cs| {
                        let v = cs.read_into(x);
                        cs.write_set(x, i as i64 + 1);
                        cs.compute_ns(300);
                        let _ = v;
                    });
                });
            }
        });
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let with_dls = UlcpFreeReplayer::default().replay(&tt).unwrap();
        let without_dls = UlcpFreeReplayer::default()
            .with_dls(false)
            .replay(&tt)
            .unwrap();
        assert!(with_dls.lockset_ops <= without_dls.lockset_ops);
        assert!(with_dls.lockset_overhead <= without_dls.lockset_overhead);
        assert!(without_dls.lockset_ops > 0);
    }

    #[test]
    fn free_replay_is_deterministic() {
        let (trace, plan) = pipeline(read_heavy(3, 6));
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let r1 = UlcpFreeReplayer::default().replay(&tt).unwrap();
        let r2 = UlcpFreeReplayer::default().replay(&tt).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn null_lock_sections_cost_nothing_in_the_free_replay() {
        let (trace, plan) = pipeline(|b| {
            let lock = b.lock("m");
            let _x = b.shared("x", 0);
            let site = b.site("nl.c", "empty", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(10, |l| {
                        l.locked(lock, site, |_| {});
                        l.compute_ns(50);
                    });
                });
            }
        });
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let original = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::default().replay(&tt).unwrap();
        assert!(free.total_time < original.total_time);
        assert_eq!(free.lockset_ops, 0);
        assert_eq!(free.lockset_overhead, Time::ZERO);
    }

    #[test]
    fn condvar_traces_replay_without_sticking() {
        let (trace, plan) = pipeline(|b| {
            let lock = b.lock("m");
            let cv = b.condvar("cv");
            let flag = b.shared("flag", 0);
            let site_w = b.site("cvf.c", "waiter", 1);
            let site_s = b.site("cvf.c", "signaller", 2);
            b.thread("waiter", |t| {
                t.locked(lock, site_w, |cs| {
                    cs.cond_wait(cv, lock);
                    cs.read(flag);
                });
            });
            b.thread("signaller", |t| {
                t.compute_us(4);
                t.locked(lock, site_s, |cs| {
                    cs.write_set(flag, 1);
                    cs.cond_signal(cv);
                });
            });
        });
        let tt = Transformer::default().transform_from_plan(&trace, &plan);
        let free = UlcpFreeReplayer::default().replay(&tt).unwrap();
        assert!(free.per_thread[0].finish_time >= Time::from_micros(4));
    }
}
