//! The shared event-driven scheduler core both replayers run on.
//!
//! The naive loops in [`reference`](crate::reference) pay `O(T)` per step to
//! scan every thread for the next runnable one, and wake *every* blocked
//! thread after *any* progress — `O(T^2)` scheduler work per lock grant under
//! contention. This module replaces both with one engine:
//!
//! * a **clock-keyed ready set** (`BinaryHeap` over `(clock, thread)`, ties
//!   broken by thread id) makes picking the next runnable thread `O(log T)`
//!   and reproduces the reference's deterministic `min_by_key` order exactly;
//! * **targeted wake lists** ([`WaitChannel`]) wake only the threads whose
//!   blocking condition may actually have changed: waiters of a released
//!   lock, the next thread in a recorded grant order, members of a completed
//!   barrier group, watchers of a condition-variable signal;
//! * **dense tables**: wake lists are vectors indexed by the channel's id,
//!   and the sparse condvar and barrier tables are per-thread rows sorted by
//!   event index, so no per-event lookup searches an ordered map. The
//!   policies keep the same discipline for their own state.
//!
//! The schedule-specific *admission rules* — who may take a lock, and when —
//! live in a [`ReplayPolicy`]: `OriginalOrder` (the four `ScheduleKind`
//! schemes) and `UlcpFree` (RULE 2/3/4 lockset semantics with the dynamic
//! locking strategy). Everything else — thread table, event cursors, cost
//! application, condvar/barrier dependency resolution, the step loop — is
//! shared here.
//!
//! # Equivalence with the reference loops
//!
//! The engine is bit-identical to the reference because (a) blocked attempts
//! are *pure* — they mutate nothing, so the reference's extra retries are
//! no-ops, (b) wake channels are *complete* — whenever a blocked thread's
//! condition may have changed it is notified on a registered channel or woken
//! directly, and (c) both pick the minimum `(clock, thread-id)` runnable
//! thread. Spurious wake-ups are allowed (the thread re-blocks, harmlessly);
//! missed wake-ups are not. The property suite replays random traces through
//! both paths and asserts equal [`ReplayResult`]s.
//!
//! One caveat: `max_steps` counts *productive* scheduler decisions here
//! (threads picked from the ready set), while the reference loops also burn
//! iterations on the blocked retries their wake-all strategy causes.
//! Successful replays and `Stuck` errors are bit-identical across both
//! paths; a replay that hits the step limit does so at a different logical
//! point in each (with the default 100M-step limit this is unreachable for
//! real traces).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use perfplay_trace::{AuxLockId, Event, LockId, SectionId, Time, Trace};

use crate::common::{build_sync_deps, EventRef, ReplayConfig};
use crate::result::{ReplayError, ReplayResult, ThreadCursor, ThreadReplayTiming};

/// Scheduling state of one replayed thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Present in the ready heap, will be stepped.
    Ready,
    /// Waiting for a wake channel notification or a direct wake.
    Blocked,
    /// Played every event of its stream.
    Finished,
}

/// Per-thread replay state shared by all policies.
#[derive(Debug)]
pub(crate) struct ThreadState {
    /// Index of the next unplayed event.
    pub idx: usize,
    /// The thread's virtual clock (completion time of its last event).
    pub clock: Time,
    /// Scheduling status.
    pub status: Status,
    /// Timing account reported in the result.
    pub timing: ThreadReplayTiming,
    /// Virtual time at which the pending acquisition was first requested.
    pub request_time: Option<Time>,
    /// Invalidates stale wake-channel registrations from earlier episodes.
    wait_epoch: u64,
}

/// What a blocked thread is waiting for.
///
/// Channels are notification *hints*: a notification may wake a thread that
/// still cannot progress (it simply re-blocks), but a thread whose blocking
/// condition changed must always be reachable through a registered channel
/// or a direct [`EngineCore::wake`] — the engine's equivalence with the
/// reference loops rests on that completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitChannel {
    /// An application lock was released (or its grant order advanced).
    Lock(LockId),
    /// An auxiliary (lockset) lock was released.
    AuxLock(AuxLockId),
    /// A critical section finished (RULE 2 predecessors, DLS prunes).
    SectionDone(SectionId),
}

/// Outcome of attempting one thread's next event.
pub(crate) enum Step {
    /// The event completed; the thread stays in the ready set.
    Completed,
    /// The thread cannot progress; it leaves the ready set until woken.
    Blocked,
    /// The thread has no events left.
    Finished,
}

/// Blocked threads registered on one wake channel, each tagged with the
/// registration epoch.
type WaitList = Vec<(usize, u64)>;

/// Wake lists indexed by the channel's dense id, one table per channel
/// kind. Tables grow on first registration, so no policy has to size them.
#[derive(Default)]
struct WaitLists {
    lock: Vec<WaitList>,
    aux: Vec<WaitList>,
    section: Vec<WaitList>,
}

impl WaitLists {
    fn table(&mut self, channel: WaitChannel) -> (&mut Vec<WaitList>, usize) {
        match channel {
            WaitChannel::Lock(l) => (&mut self.lock, l.index()),
            WaitChannel::AuxLock(l) => (&mut self.aux, l.index()),
            WaitChannel::SectionDone(s) => (&mut self.section, s.index()),
        }
    }

    fn list_mut(&mut self, channel: WaitChannel) -> &mut WaitList {
        let (table, i) = self.table(channel);
        if table.len() <= i {
            table.resize_with(i + 1, Vec::new);
        }
        &mut table[i]
    }

    fn take(&mut self, channel: WaitChannel) -> WaitList {
        let (table, i) = self.table(channel);
        table.get_mut(i).map(std::mem::take).unwrap_or_default()
    }
}

/// Sparse per-thread rows of `(event index, value)` entries, each row sorted
/// by event index: the layout of the condvar and barrier tables, which name
/// only a few events of a trace.
type EventRows<T> = Vec<Vec<(usize, T)>>;

/// Positions of the entries keyed by one event index in a sorted row.
fn entries_at<T>(row: &[(usize, T)], idx: usize) -> Range<usize> {
    let lo = row.partition_point(|e| e.0 < idx);
    lo..lo + row[lo..].partition_point(|e| e.0 == idx)
}

/// The value of the first entry keyed by one event index in a sorted row.
fn first_at<T>(row: &[(usize, T)], idx: usize) -> Option<&T> {
    row.get(row.partition_point(|e| e.0 < idx))
        .filter(|e| e.0 == idx)
        .map(|e| &e.1)
}

/// Builds sorted per-thread rows from `(event, value)` pairs.
fn event_rows<T>(threads: usize, pairs: impl IntoIterator<Item = (EventRef, T)>) -> EventRows<T> {
    let mut rows: EventRows<T> = (0..threads).map(|_| Vec::new()).collect();
    for ((ti, idx), value) in pairs {
        rows[ti].push((idx, value));
    }
    for row in &mut rows {
        row.sort_by_key(|e| e.0);
    }
    rows
}

/// One recorded barrier crossing: its members and who has arrived so far.
struct BarrierGroup {
    /// Thread of each member arrival event.
    threads: Vec<usize>,
    /// First-arrival virtual time per member slot.
    arrivals: Vec<Option<Time>>,
}

/// The state shared by every policy: thread table, event cursors, ready
/// heap, wake lists, and the cross-thread condvar/barrier dependencies.
pub(crate) struct EngineCore<'a> {
    pub config: ReplayConfig,
    pub trace: &'a Trace,
    pub threads: Vec<ThreadState>,
    pub event_times: Vec<Vec<Time>>,
    /// Min-heap over `(clock, thread id)` of `Ready` threads. Each ready
    /// thread appears exactly once, except the one being stepped and the
    /// one the run loop has already picked to step next; a thread's clock
    /// only changes while it is out of the heap, so entries never go stale.
    ready: BinaryHeap<Reverse<(Time, usize)>>,
    /// Blocked threads by wake channel.
    waiters: WaitLists,
    /// Recorded condvar partial order: the lock re-acquisition keyed by the
    /// row must wait for the listed signal event.
    wake_deps: EventRows<EventRef>,
    /// Reverse of `wake_deps`: completion of the keyed signal event wakes
    /// the listed threads (condvar waiters re-acquiring their lock).
    dep_watchers: EventRows<usize>,
    /// Barrier crossings: `(group, member slot)` per arrival event.
    barrier_slots: EventRows<(usize, usize)>,
    barrier_groups: Vec<BarrierGroup>,
}

impl<'a> EngineCore<'a> {
    fn new(config: &ReplayConfig, trace: &'a Trace) -> Self {
        let threads = trace.num_threads();
        let deps = build_sync_deps(trace);
        let wake_deps = event_rows(threads, deps.wake_deps.iter().map(|(w, d)| (*w, *d)));
        let dep_watchers = event_rows(threads, deps.wake_deps.iter().map(|(w, d)| (*d, w.0)));
        let barrier_slots = event_rows(
            threads,
            deps.barrier_crossings
                .iter()
                .enumerate()
                .flat_map(|(gid, members)| {
                    members
                        .iter()
                        .enumerate()
                        .map(move |(slot, m)| (*m, (gid, slot)))
                }),
        );
        let barrier_groups = deps
            .barrier_crossings
            .into_iter()
            .map(|members| BarrierGroup {
                arrivals: vec![None; members.len()],
                threads: members.into_iter().map(|(ti, _)| ti).collect(),
            })
            .collect();
        let mut ready = BinaryHeap::with_capacity(threads);
        for ti in 0..threads {
            ready.push(Reverse((Time::ZERO, ti)));
        }
        EngineCore {
            config: *config,
            trace,
            threads: trace
                .threads
                .iter()
                .map(|_| ThreadState {
                    idx: 0,
                    clock: Time::ZERO,
                    status: Status::Ready,
                    timing: ThreadReplayTiming::default(),
                    request_time: None,
                    wait_epoch: 0,
                })
                .collect(),
            event_times: trace
                .threads
                .iter()
                .map(|t| vec![Time::ZERO; t.events.len()])
                .collect(),
            ready,
            waiters: WaitLists::default(),
            wake_deps,
            dep_watchers,
            barrier_slots,
            barrier_groups,
        }
    }

    /// Marks an event complete: records its time, advances the cursor, and
    /// wakes any condvar waiter whose recorded dependency this event was.
    /// Each event completes exactly once, so its watchers fire once.
    pub fn complete(&mut self, ti: usize, idx: usize, completion: Time) {
        self.event_times[ti][idx] = completion;
        let t = &mut self.threads[ti];
        t.clock = completion;
        t.idx = idx + 1;
        t.request_time = None;
        for k in entries_at(&self.dep_watchers[ti], idx) {
            let watcher = self.dep_watchers[ti][k].1;
            self.wake(watcher);
        }
    }

    /// Moves a blocked thread back into the ready heap. No-op for threads
    /// that are already ready or finished, so spurious wakes are harmless.
    pub fn wake(&mut self, ti: usize) {
        let t = &mut self.threads[ti];
        if t.status == Status::Blocked {
            t.status = Status::Ready;
            self.ready.push(Reverse((t.clock, ti)));
        }
    }

    /// Registers the (about-to-block) thread on the given wake channels.
    /// A registration-free block is allowed when some other mechanism
    /// (dep watchers, barrier completion, a policy's direct wake) is
    /// guaranteed to deliver the wake.
    pub fn block_on(&mut self, ti: usize, channels: impl IntoIterator<Item = WaitChannel>) {
        let t = &mut self.threads[ti];
        t.wait_epoch += 1;
        let epoch = t.wait_epoch;
        for ch in channels {
            let list = self.waiters.list_mut(ch);
            // A spuriously woken thread that re-blocks on the same channel
            // leaves a stale (older-epoch) entry behind; refreshing a
            // trailing entry in place keeps repeated wake/re-block cycles
            // (e.g. the SYNC-S turn owner waiting out a held lock) from
            // growing the list.
            match list.last_mut() {
                Some((last, e)) if *last == ti => *e = epoch,
                _ => list.push((ti, epoch)),
            }
        }
    }

    /// Wakes every thread whose current blocking episode registered on the
    /// channel. Stale registrations (older epochs) are dropped.
    pub fn notify(&mut self, channel: WaitChannel) {
        for (ti, epoch) in self.waiters.take(channel) {
            if self.threads[ti].wait_epoch == epoch {
                self.wake(ti);
            }
        }
    }

    /// Checks the recorded condvar partial order for an acquisition.
    /// Returns the dependency's completion time, or `None` when the
    /// dependency has not completed yet (the dep watcher will wake us; the
    /// caller must return [`Step::Blocked`] without registering channels).
    pub fn wake_dep_time(&self, ti: usize, idx: usize) -> Result<Time, ()> {
        match first_at(&self.wake_deps[ti], idx) {
            Some(&(dti, dei)) => {
                if self.threads[dti].idx <= dei {
                    Err(())
                } else {
                    Ok(self.event_times[dti][dei])
                }
            }
            None => Ok(Time::ZERO),
        }
    }

    /// Barrier arrival: blocks until the whole recorded crossing has
    /// arrived; the final arriver wakes the other members directly.
    fn barrier_wait(&mut self, ti: usize, idx: usize) -> Step {
        let clock = self.threads[ti].clock;
        let Some(&(gid, slot)) = first_at(&self.barrier_slots[ti], idx) else {
            self.complete(ti, idx, clock + self.config.barrier_release_cost);
            return Step::Completed;
        };
        let group = &mut self.barrier_groups[gid];
        group.arrivals[slot].get_or_insert(clock);
        let mut arrived = 0usize;
        let mut latest = Time::ZERO;
        for at in group.arrivals.iter().flatten() {
            arrived += 1;
            latest = latest.max(*at);
        }
        if arrived < group.threads.len() {
            // Woken directly by the final arriver; no channel registration.
            self.block_on(ti, []);
            return Step::Blocked;
        }
        let release = latest.max(clock) + self.config.barrier_release_cost;
        self.threads[ti].timing.sync_wait += release - clock;
        self.complete(ti, idx, release);
        for k in 0..self.barrier_groups[gid].threads.len() {
            let member = self.barrier_groups[gid].threads[k];
            if member != ti {
                self.wake(member);
            }
        }
        Step::Completed
    }

    fn cursors(&self, only_unfinished: bool) -> Vec<ThreadCursor> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !only_unfinished || t.status != Status::Finished)
            .map(|(i, t)| ThreadCursor {
                thread: self.trace.threads[i].thread,
                next_event: t.idx,
                total_events: self.trace.threads[i].events.len(),
            })
            .collect()
    }
}

/// The schedule-specific part of a replayer: lock admission (and, for MEM-S,
/// memory-access ordering). Everything a policy does besides blocking /
/// granting goes through the [`EngineCore`] it is handed.
pub(crate) trait ReplayPolicy {
    /// Handles a `Read` / `Write` event. The default charges the plain
    /// memory-access cost; MEM-S overrides it to enforce the recorded
    /// global access order.
    fn on_memory(&mut self, core: &mut EngineCore, ti: usize, idx: usize) -> Step {
        let clock = core.threads[ti].clock;
        let cost = core.config.mem_access_cost;
        core.threads[ti].timing.busy += cost;
        core.complete(ti, idx, clock + cost);
        Step::Completed
    }

    /// Handles a `LockAcquire` event: admission, availability, cost.
    fn on_acquire(&mut self, core: &mut EngineCore, ti: usize, idx: usize, lock: LockId) -> Step;

    /// Handles a `LockRelease` event and notifies the released waiters.
    fn on_release(&mut self, core: &mut EngineCore, ti: usize, idx: usize, lock: LockId) -> Step;

    /// Called when the ready set empties while unfinished threads remain;
    /// may designate one blocked thread to wake (the SYNC-S admission
    /// bypass). Returning `None` makes the replay report [`ReplayError::Stuck`].
    fn rescue(&mut self, _core: &EngineCore) -> Option<usize> {
        None
    }

    /// Lockset accounting for the final [`ReplayResult`].
    fn lockset_totals(&self) -> (u64, Time) {
        (0, Time::ZERO)
    }
}

/// The unified replay engine: the shared core driven by one policy.
pub(crate) struct Engine<'a, P: ReplayPolicy> {
    core: EngineCore<'a>,
    policy: P,
}

impl<'a, P: ReplayPolicy> Engine<'a, P> {
    pub fn new(config: &ReplayConfig, trace: &'a Trace, policy: P) -> Self {
        Engine {
            core: EngineCore::new(config, trace),
            policy,
        }
    }

    /// Runs the replay to completion.
    pub fn run(mut self) -> Result<ReplayResult, ReplayError> {
        let mut steps: u64 = 0;
        // The thread to step next when the previous step already knows it,
        // saving the heap a push and a pop.
        let mut next: Option<Reverse<(Time, usize)>> = None;
        loop {
            let Some(Reverse((_, ti))) = next.take().or_else(|| self.core.ready.pop()) else {
                if self
                    .core
                    .threads
                    .iter()
                    .all(|t| t.status == Status::Finished)
                {
                    break;
                }
                if let Some(candidate) = self.policy.rescue(&self.core) {
                    self.core.wake(candidate);
                    continue;
                }
                return Err(ReplayError::Stuck {
                    cursors: self.core.cursors(true),
                });
            };
            debug_assert_eq!(self.core.threads[ti].status, Status::Ready);
            steps += 1;
            if steps > self.core.config.max_steps {
                return Err(ReplayError::StepLimitExceeded {
                    limit: self.core.config.max_steps,
                    cursors: self.core.cursors(false),
                });
            }
            match self.step(ti) {
                Step::Completed => {
                    // A thread that is still the earliest ready one steps
                    // again; otherwise it takes the heap top's place, and the
                    // top is next — one sift instead of a push and a pop.
                    let entry = Reverse((self.core.threads[ti].clock, ti));
                    next = Some(match self.core.ready.peek_mut() {
                        Some(mut top) if *top > entry => std::mem::replace(&mut *top, entry),
                        _ => entry,
                    });
                }
                Step::Blocked => self.core.threads[ti].status = Status::Blocked,
                Step::Finished => {
                    let t = &mut self.core.threads[ti];
                    t.status = Status::Finished;
                    t.timing.finish_time = t.clock;
                }
            }
        }
        let total_time = self
            .core
            .threads
            .iter()
            .map(|t| t.timing.finish_time)
            .max()
            .unwrap_or(Time::ZERO);
        let (lockset_ops, lockset_overhead) = self.policy.lockset_totals();
        Ok(ReplayResult {
            total_time,
            per_thread: self.core.threads.iter().map(|t| t.timing).collect(),
            event_times: self.core.event_times,
            lockset_ops,
            lockset_overhead,
        })
    }

    /// Attempts the thread's next event. Dispatches on a *borrowed* event —
    /// payloads are copied out as scalars, so stepping allocates nothing.
    fn step(&mut self, ti: usize) -> Step {
        let core = &mut self.core;
        let trace = core.trace;
        let events = &trace.threads[ti].events;
        let idx = core.threads[ti].idx;
        if idx >= events.len() {
            return Step::Finished;
        }
        let clock = core.threads[ti].clock;
        match events[idx].event {
            Event::Compute { cost }
            | Event::SkipRegion {
                saved_cost: cost, ..
            } => {
                core.threads[ti].timing.busy += cost;
                core.complete(ti, idx, clock + cost);
                Step::Completed
            }
            Event::Read { .. } | Event::Write { .. } => self.policy.on_memory(core, ti, idx),
            Event::LockAcquire { lock, .. } => self.policy.on_acquire(core, ti, idx, lock),
            Event::LockRelease { lock } => self.policy.on_release(core, ti, idx, lock),
            Event::CondWait { .. } | Event::Checkpoint { .. } | Event::ThreadExit => {
                core.complete(ti, idx, clock);
                Step::Completed
            }
            Event::CondSignal { .. } => {
                let cost = core.config.cond_signal_cost;
                core.threads[ti].timing.busy += cost;
                core.complete(ti, idx, clock + cost);
                Step::Completed
            }
            Event::BarrierWait { .. } => core.barrier_wait(ti, idx),
        }
    }
}
