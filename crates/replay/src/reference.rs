//! The naive replay loops kept as executable specifications.
//!
//! These are the historical implementations of [`Replayer::replay`] and
//! [`UlcpFreeReplayer::replay`]: every step scans all `T` threads to find the
//! next runnable one (`O(T)` per step) and every completion wakes every
//! blocked thread, so each grant costs `O(T^2)` scheduler work under
//! contention. The unified engine in [`engine`](crate::engine) must produce
//! bit-identical [`ReplayResult`]s — the property suite and the
//! `replay_scaling` benchmark both compare against these functions.
//!
//! The only semantic pin applied to the historical code: under ORIG-S the
//! scheduling-noise jitter is drawn once per blocking episode (on the first
//! blocked attempt of an acquisition), not once per retry. Retries are pure,
//! so the RNG stream no longer depends on how often a blocked thread is
//! woken — the property that makes an indexed ready set able to reproduce
//! the reference bit-for-bit.
//!
//! Note that `max_steps` here counts every loop iteration, including the
//! blocked retries wake-all causes; the engine only counts productive steps.
//! Equivalence therefore covers successful replays and `Stuck` errors, not
//! the exact point at which an undersized step limit trips.
//!
//! [`Replayer::replay`]: crate::Replayer::replay
//! [`UlcpFreeReplayer::replay`]: crate::UlcpFreeReplayer::replay

use std::collections::{BTreeMap, BTreeSet};

use perfplay_trace::{AuxLockId, Event, LockId, SectionId, Time, Trace};
use perfplay_transform::{dynamic_lockset, TransformedTrace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::common::{build_sync_deps, EventRef, ReplayConfig, SyncDeps};
use crate::result::{ReplayError, ReplayResult, ThreadCursor, ThreadReplayTiming};
use crate::schedule::{ReplaySchedule, ScheduleKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Blocked,
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    idx: usize,
    clock: Time,
    status: Status,
    timing: ThreadReplayTiming,
    request_time: Option<Time>,
    acquires_done: usize,
}

enum Outcome {
    Completed,
    Blocked,
    Finished,
}

fn cursors(threads: &[ThreadState], trace: &Trace, only_unfinished: bool) -> Vec<ThreadCursor> {
    threads
        .iter()
        .enumerate()
        .filter(|(_, t)| !only_unfinished || t.status != Status::Finished)
        .map(|(i, t)| ThreadCursor {
            thread: trace.threads[i].thread,
            next_event: t.idx,
            total_events: trace.threads[i].events.len(),
        })
        .collect()
}

/// Replays an original trace with the naive scan-and-wake-all loop.
///
/// # Errors
///
/// Returns [`ReplayError::Stuck`] if the trace and schedule are mutually
/// inconsistent, or [`ReplayError::StepLimitExceeded`] for runaway replays.
pub fn reference_replay_original(
    config: &ReplayConfig,
    trace: &Trace,
    schedule: ReplaySchedule,
) -> Result<ReplayResult, ReplayError> {
    RefOriginal::new(config, schedule, trace).run()
}

struct RefOriginal<'a> {
    config: ReplayConfig,
    schedule: ReplaySchedule,
    trace: &'a Trace,
    deps: SyncDeps,
    threads: Vec<ThreadState>,
    event_times: Vec<Vec<Time>>,
    // Lock state.
    holder: BTreeMap<LockId, Option<usize>>,
    last_holder: BTreeMap<LockId, usize>,
    free_since: BTreeMap<LockId, Time>,
    // ELSC: per-lock recorded grant order and progress.
    elsc_order: BTreeMap<LockId, Vec<EventRef>>,
    elsc_next: BTreeMap<LockId, usize>,
    // SYNC-S: round-robin admission over (ordinal, thread) tickets.
    sync_order: BTreeMap<(usize, usize), usize>,
    sync_next: usize,
    sync_completed: BTreeSet<usize>,
    sync_last_completion: Time,
    /// Thread allowed to bypass SYNC-S admission once, used to break the
    /// circular waits nested locks can create under a rigid ticket order.
    sync_bypass: Option<usize>,
    // MEM-S: global memory-access order.
    mem_order: BTreeMap<EventRef, usize>,
    mem_next: usize,
    mem_last_completion: Time,
    // Barrier arrivals.
    barrier_arrivals: BTreeMap<EventRef, Time>,
    rng: ChaCha8Rng,
}

/// ELSC: projects the recorded total grant order onto each lock.
fn elsc_order_of(trace: &Trace) -> BTreeMap<LockId, Vec<EventRef>> {
    let mut elsc_order: BTreeMap<LockId, Vec<EventRef>> = BTreeMap::new();
    let mut schedule_entries = trace.lock_schedule.clone();
    schedule_entries.sort_by_key(|g| g.seq);
    for g in &schedule_entries {
        elsc_order
            .entry(g.lock)
            .or_default()
            .push((g.thread.index(), g.event_index));
    }
    elsc_order
}

/// SYNC-S: deterministic round-robin ticket order over per-thread
/// acquisition ordinals, derived from the input alone.
fn sync_order_of(trace: &Trace) -> BTreeMap<(usize, usize), usize> {
    let mut sync_order = BTreeMap::new();
    let acq_counts: Vec<usize> = trace
        .threads
        .iter()
        .map(|t| t.acquisition_count())
        .collect();
    let max = acq_counts.iter().copied().max().unwrap_or(0);
    let mut position = 0usize;
    for ordinal in 0..max {
        for (ti, count) in acq_counts.iter().enumerate() {
            if ordinal < *count {
                sync_order.insert((ordinal, ti), position);
                position += 1;
            }
        }
    }
    sync_order
}

/// MEM-S: global order of all shared-memory accesses by recorded time.
pub(crate) fn mem_order_of(trace: &Trace) -> Vec<EventRef> {
    let mut mem_events: Vec<(Time, EventRef)> = Vec::new();
    for (ti, tt) in trace.threads.iter().enumerate() {
        for (ei, te) in tt.events.iter().enumerate() {
            if te.event.is_memory_access() {
                mem_events.push((te.at, (ti, ei)));
            }
        }
    }
    mem_events.sort_by_key(|(at, (ti, ei))| (*at, *ti, *ei));
    mem_events.into_iter().map(|(_, r)| r).collect()
}

impl<'a> RefOriginal<'a> {
    fn new(config: &ReplayConfig, schedule: ReplaySchedule, trace: &'a Trace) -> Self {
        let deps = build_sync_deps(trace);
        let mem_order = mem_order_of(trace)
            .into_iter()
            .enumerate()
            .map(|(pos, r)| (r, pos))
            .collect();

        RefOriginal {
            config: *config,
            schedule,
            trace,
            deps,
            threads: trace
                .threads
                .iter()
                .map(|_| ThreadState {
                    idx: 0,
                    clock: Time::ZERO,
                    status: Status::Ready,
                    timing: ThreadReplayTiming::default(),
                    request_time: None,
                    acquires_done: 0,
                })
                .collect(),
            event_times: trace
                .threads
                .iter()
                .map(|t| vec![Time::ZERO; t.events.len()])
                .collect(),
            holder: BTreeMap::new(),
            last_holder: BTreeMap::new(),
            free_since: BTreeMap::new(),
            elsc_order: elsc_order_of(trace),
            elsc_next: BTreeMap::new(),
            sync_order: sync_order_of(trace),
            sync_next: 0,
            sync_completed: BTreeSet::new(),
            sync_last_completion: Time::ZERO,
            sync_bypass: None,
            mem_order,
            mem_next: 0,
            mem_last_completion: Time::ZERO,
            barrier_arrivals: BTreeMap::new(),
            rng: ChaCha8Rng::seed_from_u64(schedule.seed),
        }
    }

    fn run(mut self) -> Result<ReplayResult, ReplayError> {
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > self.config.max_steps {
                return Err(ReplayError::StepLimitExceeded {
                    limit: self.config.max_steps,
                    cursors: cursors(&self.threads, self.trace, false),
                });
            }
            let next = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Ready)
                .min_by_key(|(i, t)| (t.clock, *i))
                .map(|(i, _)| i);
            let Some(ti) = next else {
                if self.threads.iter().all(|t| t.status == Status::Finished) {
                    break;
                }
                // Under SYNC-S, nested locks can deadlock a rigid ticket
                // order (the next-ticket thread waits for a lock whose holder
                // waits for its own ticket). Let the blocked thread whose
                // next acquire targets a *free* lock bypass admission once.
                if self.schedule.kind == ScheduleKind::SyncS && self.sync_bypass.is_none() {
                    if let Some(candidate) = self.find_sync_bypass_candidate() {
                        self.sync_bypass = Some(candidate);
                        self.threads[candidate].status = Status::Ready;
                        continue;
                    }
                }
                return Err(ReplayError::Stuck {
                    cursors: cursors(&self.threads, self.trace, true),
                });
            };
            match self.try_event(ti) {
                Outcome::Completed => self.wake_all(),
                Outcome::Blocked => {
                    self.threads[ti].status = Status::Blocked;
                }
                Outcome::Finished => {
                    self.threads[ti].status = Status::Finished;
                    self.threads[ti].timing.finish_time = self.threads[ti].clock;
                    self.wake_all();
                }
            }
        }
        let total_time = self
            .threads
            .iter()
            .map(|t| t.timing.finish_time)
            .max()
            .unwrap_or(Time::ZERO);
        Ok(ReplayResult {
            total_time,
            per_thread: self.threads.iter().map(|t| t.timing).collect(),
            event_times: self.event_times,
            lockset_ops: 0,
            lockset_overhead: Time::ZERO,
        })
    }

    fn wake_all(&mut self) {
        for t in &mut self.threads {
            if t.status == Status::Blocked {
                t.status = Status::Ready;
            }
        }
    }

    /// Among blocked threads, finds one whose next event is a lock
    /// acquisition of a currently-free lock (so only admission stops it).
    fn find_sync_bypass_candidate(&self) -> Option<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Blocked)
            .filter(|(ti, t)| {
                let events = &self.trace.threads[*ti].events;
                match events.get(t.idx).map(|te| &te.event) {
                    Some(Event::LockAcquire { lock, .. }) => {
                        !matches!(self.holder.get(lock), Some(Some(h)) if h != ti)
                    }
                    _ => false,
                }
            })
            .min_by_key(|(ti, t)| {
                self.sync_order
                    .get(&(t.acquires_done, *ti))
                    .copied()
                    .unwrap_or(usize::MAX)
            })
            .map(|(ti, _)| ti)
    }

    fn complete(&mut self, ti: usize, idx: usize, completion: Time) {
        self.event_times[ti][idx] = completion;
        self.threads[ti].clock = completion;
        self.threads[ti].idx = idx + 1;
        self.threads[ti].request_time = None;
    }

    fn try_event(&mut self, ti: usize) -> Outcome {
        let trace = self.trace;
        let events = &trace.threads[ti].events;
        let idx = self.threads[ti].idx;
        if idx >= events.len() {
            return Outcome::Finished;
        }
        let clock = self.threads[ti].clock;
        match events[idx].event {
            Event::Compute { cost }
            | Event::SkipRegion {
                saved_cost: cost, ..
            } => {
                self.threads[ti].timing.busy += cost;
                self.complete(ti, idx, clock + cost);
                Outcome::Completed
            }
            Event::Read { .. } | Event::Write { .. } => {
                let cost = self.config.mem_access_cost;
                if self.schedule.kind == ScheduleKind::MemS {
                    match self.mem_order.get(&(ti, idx)) {
                        Some(&pos) if pos != self.mem_next => return Outcome::Blocked,
                        _ => {}
                    }
                    let cost = cost + self.config.mem_order_overhead;
                    let start = clock.max(self.mem_last_completion);
                    self.threads[ti].timing.sync_wait += start - clock;
                    self.threads[ti].timing.busy += cost;
                    let completion = start + cost;
                    self.mem_last_completion = completion;
                    self.mem_next += 1;
                    self.complete(ti, idx, completion);
                } else {
                    self.threads[ti].timing.busy += cost;
                    self.complete(ti, idx, clock + cost);
                }
                Outcome::Completed
            }
            Event::LockAcquire { lock, .. } => self.try_acquire(ti, idx, lock),
            Event::LockRelease { lock } => {
                let cost = self.config.lock_release_cost;
                let completion = clock + cost;
                self.threads[ti].timing.busy += cost;
                self.holder.insert(lock, None);
                self.last_holder.insert(lock, ti);
                self.free_since.insert(lock, completion);
                self.complete(ti, idx, completion);
                Outcome::Completed
            }
            Event::CondWait { .. } | Event::Checkpoint { .. } | Event::ThreadExit => {
                self.complete(ti, idx, clock);
                Outcome::Completed
            }
            Event::CondSignal { .. } => {
                let cost = self.config.cond_signal_cost;
                self.threads[ti].timing.busy += cost;
                self.complete(ti, idx, clock + cost);
                Outcome::Completed
            }
            Event::BarrierWait { .. } => {
                self.barrier_arrivals.entry((ti, idx)).or_insert(clock);
                let Some(group) = self.deps.barrier_groups.get(&(ti, idx)) else {
                    self.complete(ti, idx, clock + self.config.barrier_release_cost);
                    return Outcome::Completed;
                };
                let arrivals: Vec<Time> = group
                    .iter()
                    .filter_map(|r| self.barrier_arrivals.get(r).copied())
                    .collect();
                if arrivals.len() < group.len() {
                    return Outcome::Blocked;
                }
                let release = arrivals.iter().copied().max().unwrap_or(clock)
                    + self.config.barrier_release_cost;
                self.threads[ti].timing.sync_wait += release - clock;
                self.complete(ti, idx, release);
                Outcome::Completed
            }
        }
    }

    fn try_acquire(&mut self, ti: usize, idx: usize, lock: LockId) -> Outcome {
        let clock = self.threads[ti].clock;
        let first_attempt = self.threads[ti].request_time.is_none();
        if first_attempt {
            self.threads[ti].request_time = Some(clock);
        }

        // Recorded partial order for condition-variable wake-ups.
        let mut dep_time = Time::ZERO;
        if let Some(dep) = self.deps.wake_deps.get(&(ti, idx)) {
            let (dti, dei) = *dep;
            if self.threads[dti].idx <= dei {
                return Outcome::Blocked;
            }
            dep_time = self.event_times[dti][dei];
        }

        // Schedule admission. MEM-S enforces the recorded order of *all*
        // shared accesses, which subsumes the lock acquisitions themselves,
        // so it reuses the per-lock recorded grant order like ELSC-S does.
        let mut admission_time = Time::ZERO;
        let mut sync_pos = None;
        match self.schedule.kind {
            ScheduleKind::ElscS | ScheduleKind::MemS => {
                if let Some(order) = self.elsc_order.get(&lock) {
                    let next = self.elsc_next.get(&lock).copied().unwrap_or(0);
                    if let Some(&expected) = order.get(next) {
                        if expected != (ti, idx) {
                            return Outcome::Blocked;
                        }
                    }
                }
            }
            ScheduleKind::SyncS => {
                let ticket = (self.threads[ti].acquires_done, ti);
                if let Some(&pos) = self.sync_order.get(&ticket) {
                    if pos != self.sync_next && self.sync_bypass != Some(ti) {
                        return Outcome::Blocked;
                    }
                    admission_time = self.sync_last_completion + self.config.sync_turn_overhead;
                    sync_pos = Some(pos);
                }
            }
            ScheduleKind::OrigS => {}
        }

        // Lock availability.
        if matches!(self.holder.get(&lock), Some(Some(h)) if *h != ti) {
            if self.schedule.kind == ScheduleKind::OrigS
                && !self.schedule.jitter.is_zero()
                && first_attempt
            {
                // OS scheduling noise: a blocked thread wakes up a little
                // late, which perturbs who wins the next grant. Drawn once
                // per blocking episode so retries stay pure.
                let jitter = self.rng.gen_range(0..=self.schedule.jitter.as_nanos());
                self.threads[ti].clock = clock + Time::from_nanos(jitter);
            }
            return Outcome::Blocked;
        }

        let free_since = self.free_since.get(&lock).copied().unwrap_or(Time::ZERO);
        let start = clock.max(free_since).max(dep_time).max(admission_time);
        let handoff = match self.last_holder.get(&lock) {
            Some(last) if *last != ti => self.config.lock_handoff_cost,
            None => Time::ZERO,
            _ => Time::ZERO,
        };
        let noise = if self.schedule.kind == ScheduleKind::OrigS && !self.schedule.jitter.is_zero()
        {
            Time::from_nanos(self.rng.gen_range(0..=self.schedule.jitter.as_nanos() / 16))
        } else {
            Time::ZERO
        };
        let completion = start + self.config.lock_acquire_cost + handoff + noise;

        let requested = self.threads[ti].request_time.unwrap_or(clock);
        self.threads[ti].timing.lock_wait += start.saturating_sub(requested);
        self.threads[ti].timing.busy += self.config.lock_acquire_cost;

        self.holder.insert(lock, Some(ti));
        self.last_holder.insert(lock, ti);
        match self.schedule.kind {
            ScheduleKind::ElscS | ScheduleKind::MemS => {
                *self.elsc_next.entry(lock).or_insert(0) += 1;
            }
            ScheduleKind::SyncS => {
                if let Some(pos) = sync_pos {
                    self.sync_completed.insert(pos);
                    while self.sync_completed.contains(&self.sync_next) {
                        self.sync_next += 1;
                    }
                }
                self.sync_bypass = None;
                self.sync_last_completion = completion;
            }
            _ => {}
        }
        self.threads[ti].acquires_done += 1;
        self.complete(ti, idx, completion);
        Outcome::Completed
    }
}

/// Replays a ULCP-free transformed trace with the naive scan-and-wake-all
/// loop.
///
/// # Errors
///
/// Returns [`ReplayError`] if the transformed synchronization cannot make
/// progress (which would indicate a transformation bug) or the step limit is
/// exceeded.
pub fn reference_replay_free(
    config: &ReplayConfig,
    use_dls: bool,
    transformed: &TransformedTrace,
) -> Result<ReplayResult, ReplayError> {
    RefFree::new(config, use_dls, transformed).run()
}

struct RefFree<'a> {
    config: ReplayConfig,
    use_dls: bool,
    tt: &'a TransformedTrace,
    deps: SyncDeps,
    /// Section delimited by each acquire / release event.
    by_acquire: BTreeMap<EventRef, SectionId>,
    by_release: BTreeMap<EventRef, SectionId>,
    constraints: BTreeMap<SectionId, Vec<SectionId>>,
    threads: Vec<ThreadState>,
    event_times: Vec<Vec<Time>>,
    aux_holder: BTreeMap<AuxLockId, SectionId>,
    aux_free_since: BTreeMap<AuxLockId, Time>,
    section_locks: BTreeMap<SectionId, BTreeSet<AuxLockId>>,
    finished: BTreeSet<SectionId>,
    finish_times: BTreeMap<SectionId, Time>,
    barrier_arrivals: BTreeMap<EventRef, Time>,
    lockset_ops: u64,
    lockset_overhead: Time,
}

impl<'a> RefFree<'a> {
    fn new(config: &ReplayConfig, use_dls: bool, tt: &'a TransformedTrace) -> Self {
        let deps = build_sync_deps(&tt.original);
        let mut by_acquire = BTreeMap::new();
        let mut by_release = BTreeMap::new();
        for s in &tt.sections {
            by_acquire.insert((s.thread.index(), s.acquire_index), s.id);
            by_release.insert((s.thread.index(), s.release_index), s.id);
        }
        let mut constraints: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        for c in &tt.order_constraints {
            constraints.entry(c.after).or_default().push(c.before);
        }
        RefFree {
            config: *config,
            use_dls,
            tt,
            deps,
            by_acquire,
            by_release,
            constraints,
            threads: tt
                .original
                .threads
                .iter()
                .map(|_| ThreadState {
                    idx: 0,
                    clock: Time::ZERO,
                    status: Status::Ready,
                    timing: ThreadReplayTiming::default(),
                    request_time: None,
                    acquires_done: 0,
                })
                .collect(),
            event_times: tt
                .original
                .threads
                .iter()
                .map(|t| vec![Time::ZERO; t.events.len()])
                .collect(),
            aux_holder: BTreeMap::new(),
            aux_free_since: BTreeMap::new(),
            section_locks: BTreeMap::new(),
            finished: BTreeSet::new(),
            finish_times: BTreeMap::new(),
            barrier_arrivals: BTreeMap::new(),
            lockset_ops: 0,
            lockset_overhead: Time::ZERO,
        }
    }

    fn run(mut self) -> Result<ReplayResult, ReplayError> {
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > self.config.max_steps {
                return Err(ReplayError::StepLimitExceeded {
                    limit: self.config.max_steps,
                    cursors: cursors(&self.threads, &self.tt.original, false),
                });
            }
            let next = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Ready)
                .min_by_key(|(i, t)| (t.clock, *i))
                .map(|(i, _)| i);
            let Some(ti) = next else {
                if self.threads.iter().all(|t| t.status == Status::Finished) {
                    break;
                }
                return Err(ReplayError::Stuck {
                    cursors: cursors(&self.threads, &self.tt.original, true),
                });
            };
            match self.try_event(ti) {
                Outcome::Completed => self.wake_all(),
                Outcome::Blocked => self.threads[ti].status = Status::Blocked,
                Outcome::Finished => {
                    self.threads[ti].status = Status::Finished;
                    self.threads[ti].timing.finish_time = self.threads[ti].clock;
                    self.wake_all();
                }
            }
        }
        let total_time = self
            .threads
            .iter()
            .map(|t| t.timing.finish_time)
            .max()
            .unwrap_or(Time::ZERO);
        Ok(ReplayResult {
            total_time,
            per_thread: self.threads.iter().map(|t| t.timing).collect(),
            event_times: self.event_times,
            lockset_ops: self.lockset_ops,
            lockset_overhead: self.lockset_overhead,
        })
    }

    fn wake_all(&mut self) {
        for t in &mut self.threads {
            if t.status == Status::Blocked {
                t.status = Status::Ready;
            }
        }
    }

    fn complete(&mut self, ti: usize, idx: usize, completion: Time) {
        self.event_times[ti][idx] = completion;
        self.threads[ti].clock = completion;
        self.threads[ti].idx = idx + 1;
        self.threads[ti].request_time = None;
    }

    fn try_event(&mut self, ti: usize) -> Outcome {
        let trace = &self.tt.original;
        let events = &trace.threads[ti].events;
        let idx = self.threads[ti].idx;
        if idx >= events.len() {
            return Outcome::Finished;
        }
        let clock = self.threads[ti].clock;
        match events[idx].event {
            Event::Compute { cost }
            | Event::SkipRegion {
                saved_cost: cost, ..
            } => {
                self.threads[ti].timing.busy += cost;
                self.complete(ti, idx, clock + cost);
                Outcome::Completed
            }
            Event::Read { .. } | Event::Write { .. } => {
                let cost = self.config.mem_access_cost;
                self.threads[ti].timing.busy += cost;
                self.complete(ti, idx, clock + cost);
                Outcome::Completed
            }
            Event::LockAcquire { .. } => self.try_enter_section(ti, idx),
            Event::LockRelease { .. } => self.exit_section(ti, idx),
            Event::CondWait { .. } | Event::Checkpoint { .. } | Event::ThreadExit => {
                self.complete(ti, idx, clock);
                Outcome::Completed
            }
            Event::CondSignal { .. } => {
                let cost = self.config.cond_signal_cost;
                self.threads[ti].timing.busy += cost;
                self.complete(ti, idx, clock + cost);
                Outcome::Completed
            }
            Event::BarrierWait { .. } => {
                self.barrier_arrivals.entry((ti, idx)).or_insert(clock);
                let Some(group) = self.deps.barrier_groups.get(&(ti, idx)) else {
                    self.complete(ti, idx, clock + self.config.barrier_release_cost);
                    return Outcome::Completed;
                };
                let arrivals: Vec<Time> = group
                    .iter()
                    .filter_map(|r| self.barrier_arrivals.get(r).copied())
                    .collect();
                if arrivals.len() < group.len() {
                    return Outcome::Blocked;
                }
                let release = arrivals.iter().copied().max().unwrap_or(clock)
                    + self.config.barrier_release_cost;
                self.threads[ti].timing.sync_wait += release - clock;
                self.complete(ti, idx, release);
                Outcome::Completed
            }
        }
    }

    fn try_enter_section(&mut self, ti: usize, idx: usize) -> Outcome {
        let clock = self.threads[ti].clock;
        // The recorded partial order of condition-variable wake-ups still
        // applies in the ULCP-free replay.
        let mut dep_time = Time::ZERO;
        if let Some(dep) = self.deps.wake_deps.get(&(ti, idx)) {
            let (dti, dei) = *dep;
            if self.threads[dti].idx <= dei {
                return Outcome::Blocked;
            }
            dep_time = self.event_times[dti][dei];
        }

        let Some(&sid) = self.by_acquire.get(&(ti, idx)) else {
            self.complete(ti, idx, clock.max(dep_time));
            return Outcome::Completed;
        };
        let node = self.tt.node(sid);

        if node.strip_lock {
            self.complete(ti, idx, clock.max(dep_time));
            return Outcome::Completed;
        }

        if self.threads[ti].request_time.is_none() {
            self.threads[ti].request_time = Some(clock);
        }

        // RULE 2: ordered predecessors must have finished.
        let mut order_time = Time::ZERO;
        if let Some(befores) = self.constraints.get(&sid) {
            for before in befores {
                match self.finish_times.get(before) {
                    Some(t) => order_time = order_time.max(*t),
                    None => return Outcome::Blocked,
                }
            }
        }

        // RULE 3/4: take the (possibly DLS-pruned) lockset atomically.
        let lockset = if self.use_dls {
            dynamic_lockset(node, &self.tt.plan, |s| self.finished.contains(&s))
        } else {
            node.lockset.clone()
        };
        let mut lockset_free_time = Time::ZERO;
        for lock in &lockset {
            if self.aux_holder.contains_key(lock) {
                return Outcome::Blocked;
            }
            lockset_free_time =
                lockset_free_time.max(self.aux_free_since.get(lock).copied().unwrap_or(Time::ZERO));
        }

        let dls_cost = if self.use_dls {
            self.config.dls_check_cost * node.sources.len() as u64
        } else {
            Time::ZERO
        };
        let op_cost = self.config.lockset_op_cost * lockset.len() as u64;
        let start = clock.max(dep_time).max(order_time).max(lockset_free_time);
        let completion = start + self.config.lock_acquire_cost + op_cost + dls_cost;

        let requested = self.threads[ti].request_time.unwrap_or(clock);
        self.threads[ti].timing.lock_wait += start.saturating_sub(requested);
        self.threads[ti].timing.busy += self.config.lock_acquire_cost + op_cost + dls_cost;
        self.lockset_ops += lockset.len() as u64;
        self.lockset_overhead += op_cost + dls_cost;

        for lock in &lockset {
            self.aux_holder.insert(*lock, sid);
        }
        self.section_locks.insert(sid, lockset);
        self.complete(ti, idx, completion);
        Outcome::Completed
    }

    fn exit_section(&mut self, ti: usize, idx: usize) -> Outcome {
        let clock = self.threads[ti].clock;
        let Some(&sid) = self.by_release.get(&(ti, idx)) else {
            self.complete(ti, idx, clock);
            return Outcome::Completed;
        };
        let node = self.tt.node(sid);
        if node.strip_lock {
            self.finished.insert(sid);
            self.finish_times.insert(sid, clock);
            self.complete(ti, idx, clock);
            return Outcome::Completed;
        }
        let held = self.section_locks.remove(&sid).unwrap_or_default();
        let op_cost = self.config.lockset_op_cost * held.len() as u64;
        let completion = clock + self.config.lock_release_cost + op_cost;
        self.threads[ti].timing.busy += self.config.lock_release_cost + op_cost;
        self.lockset_ops += held.len() as u64;
        self.lockset_overhead += op_cost;
        for lock in held {
            self.aux_holder.remove(&lock);
            self.aux_free_since.insert(lock, completion);
        }
        self.finished.insert(sid);
        self.finish_times.insert(sid, completion);
        self.complete(ti, idx, completion);
        Outcome::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ReplaySchedule;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    fn contended_trace(threads: usize, iters: u32) -> Trace {
        let mut b = ProgramBuilder::new("reference-test");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("ref.c", "work", 1);
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
    fn reference_elsc_matches_recorded_total_time() {
        let trace = contended_trace(3, 8);
        let result =
            reference_replay_original(&ReplayConfig::default(), &trace, ReplaySchedule::elsc())
                .unwrap();
        let recorded = trace.total_time.as_nanos() as f64;
        let replayed = result.total_time.as_nanos() as f64;
        assert!((replayed - recorded).abs() / recorded < 0.02);
    }

    #[test]
    fn reference_is_deterministic_per_schedule() {
        let trace = contended_trace(4, 6);
        for schedule in [
            ReplaySchedule::elsc(),
            ReplaySchedule::orig(9),
            ReplaySchedule::sync(),
            ReplaySchedule::mem(),
        ] {
            let r1 = reference_replay_original(&ReplayConfig::default(), &trace, schedule).unwrap();
            let r2 = reference_replay_original(&ReplayConfig::default(), &trace, schedule).unwrap();
            assert_eq!(r1, r2, "{:?} should be repeatable", schedule.kind);
        }
    }

    #[test]
    fn order_projections_cover_all_acquisitions() {
        let trace = contended_trace(3, 4);
        let elsc = elsc_order_of(&trace);
        let total: usize = elsc.values().map(Vec::len).sum();
        assert_eq!(total, trace.num_acquisitions());
        let sync = sync_order_of(&trace);
        assert_eq!(sync.len(), trace.num_acquisitions());
        let mem = mem_order_of(&trace);
        assert!(mem
            .iter()
            .all(|&(ti, ei)| trace.threads[ti].events[ei].event.is_memory_access()));
    }
}
