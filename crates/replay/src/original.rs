//! Replay of the *original* recorded trace under the four scheduling schemes
//! (ORIG-S, ELSC-S, SYNC-S, MEM-S).
//!
//! The replayer is a discrete-event loop over the recorded per-thread event
//! streams: computation and memory accesses are charged their model cost,
//! lock acquisitions are granted subject to the active schedule's admission
//! rule, and condition-variable / barrier waits follow the recorded partial
//! order. The result carries per-event completion times so that the report
//! layer can evaluate the paper's Equation 1.
//!
//! The loop itself lives in the shared [`engine`](crate::engine); this module
//! supplies the [`OriginalOrder`] policy — the admission rules of the four
//! schemes — and targeted wake-ups replacing the reference loop's wake-all:
//!
//! * **ELSC-S / MEM-S**: the recorded grant order names exactly one eligible
//!   next acquirer per lock, so a release wakes only that thread;
//! * **SYNC-S**: the ticket order names the one thread whose turn arrived;
//! * **ORIG-S**: all waiters of the released lock race; the ready heap's
//!   `(clock, thread-id)` order picks the same winner the reference scan
//!   would;
//! * **MEM-S** memory ordering: completing access `k` wakes only the owner
//!   of access `k + 1`.

use perfplay_trace::{Event, LockId, Time, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::common::{lock_table_len, EventRef, ReplayConfig};
use crate::engine::{Engine, EngineCore, ReplayPolicy, Status, Step, WaitChannel};
use crate::reference::mem_order_of;
use crate::result::{ReplayError, ReplayResult};
use crate::schedule::{ReplaySchedule, ScheduleKind};

/// Replays original (untransformed) traces.
#[derive(Debug, Clone, Default)]
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// Creates a replayer with the default cost model.
    pub fn new(config: ReplayConfig) -> Self {
        Replayer { config }
    }

    /// Replays the trace once under the given schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Stuck`] if the trace and schedule are mutually
    /// inconsistent, or [`ReplayError::StepLimitExceeded`] for runaway
    /// replays.
    pub fn replay(
        &self,
        trace: &Trace,
        schedule: ReplaySchedule,
    ) -> Result<ReplayResult, ReplayError> {
        let policy = OriginalOrder::new(schedule, trace);
        Engine::new(&self.config, trace, policy).run()
    }
}

/// Admission rules of the four original-trace schedules.
///
/// Lock state is indexed by [`LockId`] and the schedule tables by thread,
/// ordinal or position, so no admission decision searches a map. Only the
/// active [`ScheduleKind`]'s tables are built: ELSC-S the per-lock grant
/// order, SYNC-S the ticket tables, MEM-S both the grant order and the
/// memory-access order, ORIG-S none.
pub(crate) struct OriginalOrder {
    schedule: ReplaySchedule,
    // Lock state, by lock index.
    holder: Vec<Option<usize>>,
    last_holder: Vec<Option<usize>>,
    free_since: Vec<Time>,
    // ELSC-S / MEM-S: per-lock recorded grant order and progress.
    elsc_order: Vec<Vec<EventRef>>,
    elsc_next: Vec<usize>,
    // SYNC-S: round-robin admission over (ordinal, thread) tickets.
    /// Ticket position of each thread's acquisition, by ordinal.
    sync_ticket: Vec<Vec<usize>>,
    /// Ticket position -> thread holding it, for targeted turn wake-ups.
    sync_owner: Vec<usize>,
    sync_next: usize,
    sync_completed: Vec<bool>,
    sync_last_completion: Time,
    /// Thread allowed to bypass SYNC-S admission once, used to break the
    /// circular waits nested locks can create under a rigid ticket order.
    sync_bypass: Option<usize>,
    // MEM-S: global memory-access order.
    /// Order position of each thread's memory accesses, in event order.
    mem_pos: Vec<Vec<usize>>,
    /// Per-thread count of completed memory accesses (index into `mem_pos`).
    mem_done: Vec<usize>,
    /// Order position -> thread performing that access.
    mem_owner: Vec<usize>,
    mem_next: usize,
    mem_last_completion: Time,
    /// Per-thread count of completed acquisitions (SYNC-S ticket ordinal).
    acquires_done: Vec<usize>,
    rng: ChaCha8Rng,
}

/// ELSC: projects the recorded total grant order onto each lock.
fn elsc_order_of(trace: &Trace, locks: usize) -> Vec<Vec<EventRef>> {
    let mut grants: Vec<_> = trace.lock_schedule.iter().collect();
    grants.sort_by_key(|g| g.seq);
    let mut order = vec![Vec::new(); locks];
    for g in grants {
        order[g.lock.index()].push((g.thread.index(), g.event_index));
    }
    order
}

/// SYNC-S: deterministic round-robin ticket order over per-thread
/// acquisition ordinals, derived from the input alone. Returns each
/// thread's ticket positions by ordinal, and the owner of each position.
fn sync_tickets_of(trace: &Trace) -> (Vec<Vec<usize>>, Vec<usize>) {
    let counts: Vec<usize> = trace
        .threads
        .iter()
        .map(|t| t.acquisition_count())
        .collect();
    let max = counts.iter().copied().max().unwrap_or(0);
    let mut tickets: Vec<Vec<usize>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut owner = Vec::with_capacity(counts.iter().sum());
    for ordinal in 0..max {
        for (ti, &count) in counts.iter().enumerate() {
            if ordinal < count {
                tickets[ti].push(owner.len());
                owner.push(ti);
            }
        }
    }
    (tickets, owner)
}

/// MEM-S: the global access order as per-thread positions in event order,
/// and the owner thread of each position.
fn mem_positions_of(trace: &Trace) -> (Vec<Vec<usize>>, Vec<usize>) {
    let order = mem_order_of(trace);
    let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); trace.num_threads()];
    for (pos, &(ti, ei)) in order.iter().enumerate() {
        rows[ti].push((ei, pos));
    }
    let positions = rows
        .into_iter()
        .map(|mut row| {
            row.sort_unstable();
            row.into_iter().map(|(_, pos)| pos).collect()
        })
        .collect();
    (positions, order.into_iter().map(|(ti, _)| ti).collect())
}

impl OriginalOrder {
    pub(crate) fn new(schedule: ReplaySchedule, trace: &Trace) -> Self {
        let locks = lock_table_len(trace);
        let threads = trace.num_threads();
        let kind = schedule.kind;
        let uses_grants = matches!(kind, ScheduleKind::ElscS | ScheduleKind::MemS);
        let (elsc_order, elsc_next) = if uses_grants {
            (elsc_order_of(trace, locks), vec![0; locks])
        } else {
            (Vec::new(), Vec::new())
        };
        let (sync_ticket, sync_owner) = if kind == ScheduleKind::SyncS {
            sync_tickets_of(trace)
        } else {
            (Vec::new(), Vec::new())
        };
        let (mem_pos, mem_owner) = if kind == ScheduleKind::MemS {
            mem_positions_of(trace)
        } else {
            (Vec::new(), Vec::new())
        };
        OriginalOrder {
            schedule,
            holder: vec![None; locks],
            last_holder: vec![None; locks],
            free_since: vec![Time::ZERO; locks],
            elsc_order,
            elsc_next,
            sync_completed: vec![false; sync_owner.len()],
            sync_ticket,
            sync_owner,
            sync_next: 0,
            sync_last_completion: Time::ZERO,
            sync_bypass: None,
            mem_pos,
            mem_done: vec![0; threads],
            mem_owner,
            mem_next: 0,
            mem_last_completion: Time::ZERO,
            acquires_done: vec![0; threads],
            rng: ChaCha8Rng::seed_from_u64(schedule.seed),
        }
    }

    /// The event the ELSC/MEM-S grant order expects next on this lock, if
    /// the recorded order still has entries.
    fn expected_grant(&self, lock: LockId) -> Option<EventRef> {
        let order = &self.elsc_order[lock.index()];
        order.get(self.elsc_next[lock.index()]).copied()
    }

    /// The SYNC-S ticket position of the thread's next acquisition.
    fn sync_ticket(&self, ti: usize) -> Option<usize> {
        self.sync_ticket[ti].get(self.acquires_done[ti]).copied()
    }

    fn held_by_other(&self, lock: LockId, ti: usize) -> bool {
        matches!(self.holder[lock.index()], Some(h) if h != ti)
    }
}

impl ReplayPolicy for OriginalOrder {
    fn on_memory(&mut self, core: &mut EngineCore, ti: usize, idx: usize) -> Step {
        let clock = core.threads[ti].clock;
        let cost = core.config.mem_access_cost;
        if self.schedule.kind != ScheduleKind::MemS {
            core.threads[ti].timing.busy += cost;
            core.complete(ti, idx, clock + cost);
            return Step::Completed;
        }
        // Memory events complete in program order, so the thread's count
        // of completed accesses indexes this access's order position.
        match self.mem_pos[ti].get(self.mem_done[ti]) {
            Some(&pos) if pos != self.mem_next => {
                // Woken when the order reaches this position: each completed
                // access wakes the owner of the next one.
                core.block_on(ti, []);
                return Step::Blocked;
            }
            _ => {}
        }
        let cost = cost + core.config.mem_order_overhead;
        let start = clock.max(self.mem_last_completion);
        core.threads[ti].timing.sync_wait += start - clock;
        core.threads[ti].timing.busy += cost;
        let completion = start + cost;
        self.mem_last_completion = completion;
        self.mem_next += 1;
        self.mem_done[ti] += 1;
        core.complete(ti, idx, completion);
        if let Some(&owner) = self.mem_owner.get(self.mem_next) {
            core.wake(owner);
        }
        Step::Completed
    }

    fn on_acquire(&mut self, core: &mut EngineCore, ti: usize, idx: usize, lock: LockId) -> Step {
        let clock = core.threads[ti].clock;
        let first_attempt = core.threads[ti].request_time.is_none();
        if first_attempt {
            core.threads[ti].request_time = Some(clock);
        }

        // Recorded partial order for condition-variable wake-ups. When the
        // dependency is unmet the dep watcher delivers the wake.
        let Ok(dep_time) = core.wake_dep_time(ti, idx) else {
            core.block_on(ti, []);
            return Step::Blocked;
        };

        // Schedule admission. MEM-S enforces the recorded order of *all*
        // shared accesses, which subsumes the lock acquisitions themselves,
        // so it reuses the per-lock recorded grant order like ELSC-S does.
        let mut admission_time = Time::ZERO;
        let mut sync_pos = None;
        match self.schedule.kind {
            ScheduleKind::ElscS | ScheduleKind::MemS => {
                if matches!(self.expected_grant(lock), Some(expected) if expected != (ti, idx)) {
                    // Woken when our grant comes up: each release of this
                    // lock wakes the then-expected acquirer directly. The
                    // channel registration covers the tail case where the
                    // recorded order runs out before reaching us (hand-built
                    // or truncated traces): the release that exhausts the
                    // order notifies the channel instead.
                    core.block_on(ti, [WaitChannel::Lock(lock)]);
                    return Step::Blocked;
                }
            }
            ScheduleKind::SyncS => {
                if let Some(pos) = self.sync_ticket(ti) {
                    if pos != self.sync_next && self.sync_bypass != Some(ti) {
                        // Woken when the turn order reaches this ticket.
                        core.block_on(ti, []);
                        return Step::Blocked;
                    }
                    admission_time = self.sync_last_completion + core.config.sync_turn_overhead;
                    sync_pos = Some(pos);
                }
            }
            ScheduleKind::OrigS => {}
        }

        // Lock availability.
        if self.held_by_other(lock, ti) {
            if self.schedule.kind == ScheduleKind::OrigS
                && !self.schedule.jitter.is_zero()
                && first_attempt
            {
                // OS scheduling noise: a blocked thread wakes up a little
                // late, which perturbs who wins the next grant. Drawn once
                // per blocking episode so retries stay pure.
                let jitter = self.rng.gen_range(0..=self.schedule.jitter.as_nanos());
                core.threads[ti].clock = clock + Time::from_nanos(jitter);
            }
            core.block_on(ti, [WaitChannel::Lock(lock)]);
            return Step::Blocked;
        }

        let free_since = self.free_since[lock.index()];
        let start = clock.max(free_since).max(dep_time).max(admission_time);
        let handoff = match self.last_holder[lock.index()] {
            Some(last) if last != ti => core.config.lock_handoff_cost,
            _ => Time::ZERO,
        };
        let noise = if self.schedule.kind == ScheduleKind::OrigS && !self.schedule.jitter.is_zero()
        {
            Time::from_nanos(self.rng.gen_range(0..=self.schedule.jitter.as_nanos() / 16))
        } else {
            Time::ZERO
        };
        let completion = start + core.config.lock_acquire_cost + handoff + noise;

        let requested = core.threads[ti].request_time.unwrap_or(clock);
        core.threads[ti].timing.lock_wait += start.saturating_sub(requested);
        core.threads[ti].timing.busy += core.config.lock_acquire_cost;

        self.holder[lock.index()] = Some(ti);
        self.last_holder[lock.index()] = Some(ti);
        match self.schedule.kind {
            ScheduleKind::ElscS | ScheduleKind::MemS => {
                self.elsc_next[lock.index()] += 1;
            }
            ScheduleKind::SyncS => {
                if let Some(pos) = sync_pos {
                    self.sync_completed[pos] = true;
                    while self.sync_completed.get(self.sync_next) == Some(&true) {
                        self.sync_next += 1;
                    }
                }
                self.sync_bypass = None;
                self.sync_last_completion = completion;
                // The turn advanced: wake the thread holding the new ticket.
                if let Some(&owner) = self.sync_owner.get(self.sync_next) {
                    core.wake(owner);
                }
            }
            ScheduleKind::OrigS => {}
        }
        self.acquires_done[ti] += 1;
        core.complete(ti, idx, completion);
        Step::Completed
    }

    fn on_release(&mut self, core: &mut EngineCore, ti: usize, idx: usize, lock: LockId) -> Step {
        let clock = core.threads[ti].clock;
        let cost = core.config.lock_release_cost;
        let completion = clock + cost;
        core.threads[ti].timing.busy += cost;
        self.holder[lock.index()] = None;
        self.last_holder[lock.index()] = Some(ti);
        self.free_since[lock.index()] = completion;
        core.complete(ti, idx, completion);
        // The lock is free: under the ordered schedules only the recorded /
        // ticketed next acquirer can take it, so wake exactly that thread;
        // under ORIG-S every waiter races and the ready heap arbitrates.
        match self.schedule.kind {
            ScheduleKind::ElscS | ScheduleKind::MemS => {
                // While the recorded order has entries, only its expected
                // next acquirer can pass admission — wake exactly that
                // thread. Once the order is exhausted (or the lock never
                // appeared in it), admission no longer constrains anyone, so
                // fall back to waking every channel waiter.
                match self.expected_grant(lock) {
                    Some((owner, _)) => core.wake(owner),
                    None => core.notify(WaitChannel::Lock(lock)),
                }
            }
            ScheduleKind::SyncS => {
                if let Some(&owner) = self.sync_owner.get(self.sync_next) {
                    core.wake(owner);
                }
                core.notify(WaitChannel::Lock(lock));
            }
            ScheduleKind::OrigS => core.notify(WaitChannel::Lock(lock)),
        }
        Step::Completed
    }

    fn rescue(&mut self, core: &EngineCore) -> Option<usize> {
        // Under SYNC-S, nested locks can deadlock a rigid ticket order (the
        // next-ticket thread waits for a lock whose holder waits for its own
        // ticket). Let the blocked thread whose next acquire targets a
        // *free* lock bypass admission once.
        if self.schedule.kind != ScheduleKind::SyncS || self.sync_bypass.is_some() {
            return None;
        }
        let candidate = core
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Blocked)
            .filter(|(ti, t)| {
                let events = &core.trace.threads[*ti].events;
                match events.get(t.idx).map(|te| &te.event) {
                    Some(Event::LockAcquire { lock, .. }) => !self.held_by_other(*lock, *ti),
                    _ => false,
                }
            })
            .min_by_key(|(ti, _)| self.sync_ticket(*ti).unwrap_or(usize::MAX))
            .map(|(ti, _)| ti)?;
        self.sync_bypass = Some(candidate);
        Some(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    fn contended_trace(threads: usize, iters: u32) -> Trace {
        let mut b = ProgramBuilder::new("replay-test");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("r.c", "work", 1);
        for i in 0..threads {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(iters, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                        cs.compute_ns(400);
                    });
                    l.compute_ns(300);
                });
            });
        }
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    #[test]
    fn elsc_replay_matches_recorded_total_time() {
        let trace = contended_trace(3, 8);
        let result = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let recorded = trace.total_time.as_nanos() as f64;
        let replayed = result.total_time.as_nanos() as f64;
        let relative_error = (replayed - recorded).abs() / recorded;
        assert!(
            relative_error < 0.02,
            "ELSC replay {replayed}ns differs from recorded {recorded}ns by {relative_error}"
        );
    }

    #[test]
    fn elsc_replay_is_deterministic() {
        let trace = contended_trace(4, 6);
        let r1 = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let r2 = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn orig_replay_varies_with_seed_but_stays_close_to_recorded() {
        let trace = contended_trace(4, 10);
        let times: Vec<Time> = (0..6)
            .map(|seed| {
                Replayer::default()
                    .replay(&trace, ReplaySchedule::orig(seed))
                    .unwrap()
                    .total_time
            })
            .collect();
        let min = times.iter().min().unwrap().as_nanos();
        let max = times.iter().max().unwrap().as_nanos();
        assert!(max > min, "ORIG-S should show run-to-run variation");
        // But the mean stays within 20% of the recorded execution.
        let mean: f64 = times.iter().map(|t| t.as_nanos() as f64).sum::<f64>() / times.len() as f64;
        let recorded = trace.total_time.as_nanos() as f64;
        assert!((mean - recorded).abs() / recorded < 0.2);
    }

    #[test]
    fn sync_replay_is_deterministic_and_not_faster_than_elsc() {
        let trace = contended_trace(4, 8);
        let sync1 = Replayer::default()
            .replay(&trace, ReplaySchedule::sync())
            .unwrap();
        let sync2 = Replayer::default()
            .replay(&trace, ReplaySchedule::sync())
            .unwrap();
        assert_eq!(sync1, sync2);
        let elsc = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        assert!(sync1.total_time >= elsc.total_time);
    }

    #[test]
    fn mem_replay_is_much_slower_than_elsc() {
        let mut b = ProgramBuilder::new("mem-heavy");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("m.c", "work", 1);
        for i in 0..4 {
            b.thread(format!("t{i}"), |t| {
                // One lock acquisition, then memory-access-dominated work
                // that would otherwise run fully in parallel.
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.loop_n(60, |l| {
                    l.read(x);
                    l.read(x);
                    l.read(x);
                    l.read(x);
                });
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let elsc = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let mem = Replayer::default()
            .replay(&trace, ReplaySchedule::mem())
            .unwrap();
        assert!(
            mem.total_time.as_nanos() as f64 > 1.5 * elsc.total_time.as_nanos() as f64,
            "MEM-S {:?} should be much slower than ELSC-S {:?}",
            mem.total_time,
            elsc.total_time
        );
        assert!(mem.per_thread.iter().any(|t| t.sync_wait > Time::ZERO));
    }

    #[test]
    fn event_times_are_monotone_per_thread() {
        let trace = contended_trace(2, 5);
        let result = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        for times in &result.event_times {
            for pair in times.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
        }
        assert_eq!(result.event_times.len(), trace.num_threads());
    }

    #[test]
    fn condvar_trace_replays_without_getting_stuck() {
        let mut b = ProgramBuilder::new("cv-replay");
        let lock = b.lock("m");
        let cv = b.condvar("cv");
        let flag = b.shared("flag", 0);
        let site_w = b.site("cv.c", "waiter", 1);
        let site_s = b.site("cv.c", "signaller", 2);
        b.thread("waiter", |t| {
            t.locked(lock, site_w, |cs| {
                cs.cond_wait(cv, lock);
                cs.read(flag);
            });
        });
        b.thread("signaller", |t| {
            t.compute_us(5);
            t.locked(lock, site_s, |cs| {
                cs.write_set(flag, 1);
                cs.cond_signal(cv);
            });
        });
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        for schedule in [
            ReplaySchedule::elsc(),
            ReplaySchedule::orig(3),
            ReplaySchedule::sync(),
            ReplaySchedule::mem(),
        ] {
            let result = Replayer::default().replay(&trace, schedule).unwrap();
            // The waiter cannot finish before the signaller signalled (~5us in).
            assert!(result.per_thread[0].finish_time >= Time::from_micros(5));
        }
    }

    #[test]
    fn barrier_trace_replays_with_synchronized_release() {
        let mut b = ProgramBuilder::new("barrier-replay");
        let bar = b.barrier("sync", 3);
        for i in 0..3u32 {
            let pre = u64::from(i + 1) * 10;
            b.thread(format!("t{i}"), move |t| {
                t.compute_us(pre);
                t.barrier(bar);
                t.compute_us(1);
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let result = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        for t in &result.per_thread {
            assert!(t.finish_time >= Time::from_micros(31));
        }
        assert!(result.per_thread[0].sync_wait >= Time::from_micros(19));
    }

    #[test]
    fn lock_wait_appears_under_contention() {
        let trace = contended_trace(2, 4);
        let result = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        assert!(result.total_lock_wait() > Time::ZERO);
        assert_eq!(result.lockset_ops, 0);
    }
}
