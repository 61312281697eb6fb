//! Wall-clock recording of real threads.
//!
//! The simulated [`Recorder`](crate::Recorder) is what the analysis pipeline
//! uses, because its traces are deterministic. This module demonstrates the
//! other half of the paper's design point: the recording API can wrap real
//! synchronization primitives (here `parking_lot::Mutex`) so that genuine
//! multi-threaded executions are captured with the same [`Trace`] format —
//! lock acquisitions, shared accesses attributed to code sites, and the
//! global lock-grant schedule.
//!
//! Timestamps come from a monotonic wall clock, so traces recorded this way
//! are *not* reproducible run-to-run; they are useful for inspecting the API
//! shape and for the lockset-overhead micro-benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use perfplay_trace::{
    CodeSite, CodeSiteId, Event, LockGrant, LockId, ObjectId, SiteTable, ThreadId, Time, Trace,
    TraceMeta, WriteOp,
};

/// Shared state of a wall-clock recording session.
#[derive(Debug)]
struct SessionState {
    program: String,
    epoch: Instant,
    sites: Mutex<SiteTable>,
    lock_names: Mutex<Vec<String>>,
    object_values: Mutex<Vec<(String, i64)>>,
    grant_seq: AtomicU64,
    schedule: Mutex<Vec<LockGrant>>,
    lock_cells: Mutex<Vec<Arc<Mutex<()>>>>,
}

impl SessionState {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// A wall-clock recording session over real threads.
///
/// ```
/// use perfplay_record::WallClockRecorder;
///
/// let recorder = WallClockRecorder::new("wallclock-demo");
/// let lock = recorder.mutex("counter_mutex");
/// let counter = recorder.shared("counter", 0);
/// let site = recorder.site("demo.rs", "increment", 12);
///
/// let trace = recorder.run(2, |worker| {
///     for _ in 0..3 {
///         let cs = worker.lock(&lock, site);
///         let v = cs.read(&counter);
///         cs.write_set(&counter, v + 1);
///     }
/// });
/// assert_eq!(trace.num_acquisitions(), 6);
/// assert!(trace.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct WallClockRecorder {
    state: Arc<SessionState>,
}

/// Handle to an instrumented mutex.
#[derive(Debug, Clone)]
pub struct RecMutex {
    id: LockId,
    cell: Arc<Mutex<()>>,
}

/// Handle to an instrumented shared variable.
#[derive(Debug, Clone)]
pub struct RecShared {
    id: ObjectId,
    cell: Arc<Mutex<i64>>,
}

impl WallClockRecorder {
    /// Starts a new recording session.
    pub fn new(program: impl Into<String>) -> Self {
        WallClockRecorder {
            state: Arc::new(SessionState {
                program: program.into(),
                epoch: Instant::now(),
                sites: Mutex::new(SiteTable::new()),
                lock_names: Mutex::new(Vec::new()),
                object_values: Mutex::new(Vec::new()),
                grant_seq: AtomicU64::new(0),
                schedule: Mutex::new(Vec::new()),
                lock_cells: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Declares an instrumented mutex.
    pub fn mutex(&self, name: impl Into<String>) -> RecMutex {
        let mut names = self.state.lock_names.lock();
        let mut cells = self.state.lock_cells.lock();
        let id = LockId::new(names.len() as u32);
        names.push(name.into());
        let cell = Arc::new(Mutex::new(()));
        cells.push(Arc::clone(&cell));
        RecMutex { id, cell }
    }

    /// Declares an instrumented shared variable with an initial value.
    pub fn shared(&self, name: impl Into<String>, init: i64) -> RecShared {
        let mut objects = self.state.object_values.lock();
        let id = ObjectId::new(objects.len() as u64);
        objects.push((name.into(), init));
        RecShared {
            id,
            cell: Arc::new(Mutex::new(init)),
        }
    }

    /// Interns a code site.
    pub fn site(&self, file: &str, function: &str, line: u32) -> CodeSiteId {
        self.state
            .sites
            .lock()
            .intern(CodeSite::new(file, function, line))
    }

    /// Spawns `num_threads` real threads running `body` and collects the
    /// recorded trace. The closure receives a per-thread [`RecWorker`].
    pub fn run<F>(&self, num_threads: usize, body: F) -> Trace
    where
        F: Fn(&RecWorker) + Send + Sync,
    {
        let mut per_thread_events: Vec<Vec<(Time, Event)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..num_threads {
                let state = Arc::clone(&self.state);
                let body = &body;
                handles.push(scope.spawn(move || {
                    let worker = RecWorker {
                        thread: ThreadId::new(i as u32),
                        state,
                        events: Mutex::new(Vec::new()),
                    };
                    body(&worker);
                    worker.events.into_inner()
                }));
            }
            for handle in handles {
                per_thread_events.push(handle.join().expect("recorded worker panicked"));
            }
        });
        self.assemble(per_thread_events)
    }

    fn assemble(&self, per_thread_events: Vec<Vec<(Time, Event)>>) -> Trace {
        let num_threads = per_thread_events.len();
        let mut trace = Trace::new(
            TraceMeta {
                program: self.state.program.clone(),
                num_threads,
                num_locks: self.state.lock_names.lock().len(),
                num_objects: self.state.object_values.lock().len(),
                input: "wall-clock".into(),
            },
            num_threads,
        );
        trace.sites = self.state.sites.lock().clone();
        for (i, events) in per_thread_events.into_iter().enumerate() {
            for (at, event) in events {
                trace.threads[i].push(at, event);
            }
            let finish = trace.threads[i].finish_time;
            trace.total_time = trace.total_time.max(finish);
        }
        let mut schedule = self.state.schedule.lock().clone();
        schedule.sort_by_key(|g| g.seq);
        trace.lock_schedule = schedule;
        trace
    }
}

/// Per-thread recording handle passed to the worker closure.
#[derive(Debug)]
pub struct RecWorker {
    thread: ThreadId,
    state: Arc<SessionState>,
    events: Mutex<Vec<(Time, Event)>>,
}

impl RecWorker {
    /// The thread id assigned to this worker.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    fn record(&self, event: Event) -> usize {
        let mut events = self.events.lock();
        events.push((self.state.now(), event));
        events.len() - 1
    }

    /// Records a computation segment of the given virtual cost (no actual
    /// delay is inserted).
    pub fn compute(&self, cost: Time) {
        self.record(Event::Compute { cost });
    }

    /// Acquires an instrumented mutex, recording the acquisition and its
    /// place in the global grant schedule. The returned guard records the
    /// release when dropped.
    pub fn lock<'a>(&'a self, mutex: &'a RecMutex, site: CodeSiteId) -> RecGuard<'a> {
        let guard = mutex.cell.lock();
        let event_index = self.record(Event::LockAcquire {
            lock: mutex.id,
            site,
        });
        let seq = self.state.grant_seq.fetch_add(1, Ordering::SeqCst);
        self.state.schedule.lock().push(LockGrant {
            seq,
            lock: mutex.id,
            thread: self.thread,
            event_index,
            at: self.state.now(),
        });
        RecGuard {
            worker: self,
            lock: mutex.id,
            _guard: guard,
        }
    }
}

/// Guard over an acquired instrumented mutex; provides the shared-memory
/// operations that are attributed to the enclosing critical section.
#[derive(Debug)]
pub struct RecGuard<'a> {
    worker: &'a RecWorker,
    lock: LockId,
    _guard: parking_lot::MutexGuard<'a, ()>,
}

impl RecGuard<'_> {
    /// Reads a shared variable inside the critical section.
    pub fn read(&self, shared: &RecShared) -> i64 {
        let value = *shared.cell.lock();
        self.worker.record(Event::Read {
            obj: shared.id,
            value,
        });
        value
    }

    /// Stores an absolute value into a shared variable.
    pub fn write_set(&self, shared: &RecShared, value: i64) {
        *shared.cell.lock() = value;
        self.worker.record(Event::Write {
            obj: shared.id,
            op: WriteOp::Set(value),
            value,
        });
    }

    /// Adds a delta to a shared variable.
    pub fn write_add(&self, shared: &RecShared, delta: i64) {
        let mut cell = shared.cell.lock();
        *cell = cell.wrapping_add(delta);
        let value = *cell;
        drop(cell);
        self.worker.record(Event::Write {
            obj: shared.id,
            op: WriteOp::Add(delta),
            value,
        });
    }
}

impl Drop for RecGuard<'_> {
    fn drop(&mut self) {
        self.worker.record(Event::LockRelease { lock: self.lock });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_trace::extract_critical_sections;

    #[test]
    fn records_balanced_critical_sections_from_real_threads() {
        let recorder = WallClockRecorder::new("wc-test");
        let lock = recorder.mutex("m");
        let counter = recorder.shared("c", 0);
        let site = recorder.site("wc.rs", "worker", 1);
        let trace = recorder.run(4, |worker| {
            for _ in 0..5 {
                worker.compute(Time::from_nanos(100));
                let cs = worker.lock(&lock, site);
                let v = cs.read(&counter);
                cs.write_set(&counter, v + 1);
            }
        });
        assert!(trace.validate().is_ok());
        assert_eq!(trace.num_threads(), 4);
        assert_eq!(trace.num_acquisitions(), 20);
        assert_eq!(trace.lock_schedule.len(), 20);
        let sections = extract_critical_sections(&trace);
        assert_eq!(sections.len(), 20);
        assert!(sections.iter().all(|s| !s.is_access_free()));
    }

    #[test]
    fn grant_schedule_is_a_permutation_of_acquisitions() {
        let recorder = WallClockRecorder::new("wc-sched");
        let lock = recorder.mutex("m");
        let x = recorder.shared("x", 0);
        let site = recorder.site("wc.rs", "bump", 2);
        let trace = recorder.run(3, |worker| {
            for _ in 0..7 {
                let cs = worker.lock(&lock, site);
                cs.write_add(&x, 1);
            }
        });
        let seqs: Vec<u64> = trace.lock_schedule.iter().map(|g| g.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(seqs.len(), 21);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn shared_updates_are_mutually_excluded() {
        let recorder = WallClockRecorder::new("wc-mutex");
        let lock = recorder.mutex("m");
        let x = recorder.shared("x", 0);
        let site = recorder.site("wc.rs", "inc", 3);
        let iterations = 50;
        let threads = 4;
        let trace = recorder.run(threads, |worker| {
            for _ in 0..iterations {
                let cs = worker.lock(&lock, site);
                let v = cs.read(&x);
                cs.write_set(&x, v + 1);
            }
        });
        // The final recorded write value must equal the total increment count.
        let final_value = trace
            .iter_events()
            .filter_map(|(_, _, te)| match te.event {
                Event::Write { value, .. } => Some(value),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(final_value, (iterations * threads) as i64);
    }

    #[test]
    fn distinct_mutexes_and_objects_get_distinct_ids() {
        let recorder = WallClockRecorder::new("wc-ids");
        let a = recorder.mutex("a");
        let b = recorder.mutex("b");
        let x = recorder.shared("x", 1);
        let y = recorder.shared("y", 2);
        assert_ne!(a.id, b.id);
        assert_ne!(x.id, y.id);
    }
}
