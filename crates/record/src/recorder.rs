//! The simulated recorder: PerfPlay's recording phase over the deterministic
//! simulator.
//!
//! The paper's recorder (Section 5.1) must record *all* instructions and
//! memory accesses between lock and unlock operations; outside critical
//! sections it may record selectively (state deltas for system calls, library
//! calls and spin-loop bodies) to keep traces small and replay fast. The
//! [`Recorder`] mirrors that: [`RecordingMode::Complete`] keeps every event,
//! [`RecordingMode::Selective`] compresses runs of computation outside
//! critical sections into single [`Event::SkipRegion`] entries whose cost
//! equals the compressed events' cost, so replay timing is unchanged.

use perfplay_program::Program;
use perfplay_sim::{ExecutionResult, ExecutionTiming, Executor, SimConfig, SimError};
use perfplay_trace::{CodeSite, Event, ThreadTrace, Time, Trace};

/// How much of the execution the recorder keeps verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordingMode {
    /// Record every event (complete recording).
    #[default]
    Complete,
    /// Compress computation outside critical sections into state-delta
    /// [`Event::SkipRegion`] entries (selective recording, Section 5.1).
    Selective,
}

/// A recorded execution: the trace plus the timing and memory outcome of the
/// recording run.
#[derive(Debug, Clone)]
pub struct RecordedExecution {
    /// The recorded trace.
    pub trace: Trace,
    /// Timing of the recording run (the "original" performance the paper
    /// compares replays against).
    pub timing: ExecutionTiming,
    /// Final shared-memory contents of the recording run.
    pub final_memory: std::collections::BTreeMap<perfplay_trace::ObjectId, i64>,
}

/// PerfPlay's recording phase.
///
/// ```
/// use perfplay_program::ProgramBuilder;
/// use perfplay_record::{Recorder, RecordingMode};
/// use perfplay_sim::SimConfig;
///
/// let mut b = ProgramBuilder::new("rec-demo");
/// let lock = b.lock("m");
/// let x = b.shared("x", 0);
/// let site = b.site("demo.c", "work", 10);
/// b.thread("t0", |t| {
///     t.compute_us(2);
///     t.locked(lock, site, |cs| { cs.write_add(x, 1); });
/// });
/// let program = b.build();
/// let recording = Recorder::new(SimConfig::default())
///     .mode(RecordingMode::Selective)
///     .record(&program)?;
/// assert!(recording.trace.validate().is_ok());
/// # Ok::<(), perfplay_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    config: SimConfig,
    mode: RecordingMode,
}

impl Recorder {
    /// Creates a recorder with the given machine model.
    pub fn new(config: SimConfig) -> Self {
        Recorder {
            config,
            mode: RecordingMode::Complete,
        }
    }

    /// Sets the recording mode.
    pub fn mode(mut self, mode: RecordingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Executes the program on the simulator and records its trace.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the execution.
    pub fn record(&self, program: &Program) -> Result<RecordedExecution, SimError> {
        let ExecutionResult {
            trace,
            timing,
            final_memory,
        } = Executor::new(program, self.config).run()?;
        let trace = match self.mode {
            RecordingMode::Complete => trace,
            RecordingMode::Selective => selective_compress(trace),
        };
        Ok(RecordedExecution {
            trace,
            timing,
            final_memory,
        })
    }
}

/// Compresses runs of `Compute` events that occur outside any critical
/// section into a single `SkipRegion` of the same total cost.
///
/// Events inside critical sections are never touched (the paper requires all
/// instructions and memory accesses between lock and unlock to be recorded),
/// and the lock-grant schedule stays valid because acquire-event indices are
/// remapped.
pub fn selective_compress(trace: Trace) -> Trace {
    let mut out = Trace::new(trace.meta.clone(), trace.threads.len());
    out.sites = trace.sites.clone();
    out.total_time = trace.total_time;

    // The synthetic code site used for compressed regions.
    let skip_site = out
        .sites
        .intern(CodeSite::new("<recorder>", "selective_skip", 0));

    // Remap (thread, old event index) -> new event index for acquires.
    let mut index_maps: Vec<Vec<Option<usize>>> = Vec::with_capacity(trace.threads.len());

    for (ti, tt) in trace.threads.iter().enumerate() {
        let mut new_thread = ThreadTrace::new(tt.thread);
        let mut index_map: Vec<Option<usize>> = vec![None; tt.events.len()];
        let mut depth = 0usize;
        let mut pending_cost = Time::ZERO;
        let mut pending_end = Time::ZERO;

        let flush =
            |new_thread: &mut ThreadTrace, pending_cost: &mut Time, pending_end: &mut Time| {
                if !pending_cost.is_zero() {
                    new_thread.push(
                        *pending_end,
                        Event::SkipRegion {
                            site: skip_site,
                            saved_cost: *pending_cost,
                        },
                    );
                    *pending_cost = Time::ZERO;
                    *pending_end = Time::ZERO;
                }
            };

        for (idx, te) in tt.events.iter().enumerate() {
            let compressible = depth == 0 && matches!(te.event, Event::Compute { .. });
            if compressible {
                pending_cost += te.event.intrinsic_cost();
                pending_end = te.at;
                continue;
            }
            flush(&mut new_thread, &mut pending_cost, &mut pending_end);
            match &te.event {
                Event::LockAcquire { .. } => depth += 1,
                Event::LockRelease { .. } => depth = depth.saturating_sub(1),
                _ => {}
            }
            index_map[idx] = Some(new_thread.events.len());
            new_thread.push(te.at, te.event.clone());
        }
        flush(&mut new_thread, &mut pending_cost, &mut pending_end);
        new_thread.finish_time = tt.finish_time;
        out.threads[ti] = new_thread;
        index_maps.push(index_map);
    }

    out.lock_schedule = trace
        .lock_schedule
        .iter()
        .filter_map(|g| {
            index_maps[g.thread.index()][g.event_index].map(|new_idx| perfplay_trace::LockGrant {
                event_index: new_idx,
                ..*g
            })
        })
        .collect();
    out
}

/// Location of a checkpoint marker within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointLocation {
    /// Checkpoint id.
    pub id: u32,
    /// Thread that emitted the marker.
    pub thread: perfplay_trace::ThreadId,
    /// Index of the marker event in that thread's stream.
    pub event_index: usize,
    /// Original timestamp of the marker.
    pub at: Time,
}

/// Finds every checkpoint marker in a trace, in timestamp order.
///
/// Checkpoints let programmers focus the replay-based debugging on a smaller
/// code region (Section 5.1).
pub fn checkpoints(trace: &Trace) -> Vec<CheckpointLocation> {
    let mut found = Vec::new();
    for (thread, idx, te) in trace.iter_events() {
        if let Event::Checkpoint { id } = te.event {
            found.push(CheckpointLocation {
                id,
                thread,
                event_index: idx,
                at: te.at,
            });
        }
    }
    found.sort_by_key(|c| (c.at, c.thread));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_program::ProgramBuilder;
    use perfplay_trace::extract_critical_sections;

    fn demo_program() -> Program {
        let mut b = ProgramBuilder::new("record-demo");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("r.c", "work", 5);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.compute_ns(100);
                t.compute_ns(200);
                t.checkpoint(7);
                t.locked(lock, site, |cs| {
                    cs.write_add(x, 1);
                    cs.compute_ns(50);
                });
                t.compute_ns(300);
            });
        }
        b.build()
    }

    #[test]
    fn complete_recording_matches_raw_execution() {
        let p = demo_program();
        let rec = Recorder::new(SimConfig::default()).record(&p).unwrap();
        let raw = Executor::new(&p, SimConfig::default()).run().unwrap();
        assert_eq!(rec.trace, raw.trace);
        assert_eq!(rec.timing, raw.timing);
        assert_eq!(rec.final_memory, raw.final_memory);
    }

    #[test]
    fn selective_recording_compresses_outside_critical_sections() {
        let p = demo_program();
        let complete = Recorder::new(SimConfig::default()).record(&p).unwrap();
        let selective = Recorder::new(SimConfig::default())
            .mode(RecordingMode::Selective)
            .record(&p)
            .unwrap();
        assert!(selective.trace.num_events() < complete.trace.num_events());
        assert!(selective.trace.validate().is_ok());
        // Critical-section contents are preserved.
        let cs_complete = extract_critical_sections(&complete.trace);
        let cs_selective = extract_critical_sections(&selective.trace);
        assert_eq!(cs_complete.len(), cs_selective.len());
        for (a, b) in cs_complete.iter().zip(&cs_selective) {
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.writes, b.writes);
            assert_eq!(a.body_cost, b.body_cost);
        }
        // Total intrinsic cost per thread is preserved (replay timing parity).
        for (a, b) in complete.trace.threads.iter().zip(&selective.trace.threads) {
            assert_eq!(a.intrinsic_cost(), b.intrinsic_cost());
        }
        // The grant schedule survives the index remapping.
        assert_eq!(
            complete.trace.lock_schedule.len(),
            selective.trace.lock_schedule.len()
        );
    }

    #[test]
    fn checkpoints_are_located_in_time_order() {
        let p = demo_program();
        let rec = Recorder::new(SimConfig::default()).record(&p).unwrap();
        let cps = checkpoints(&rec.trace);
        assert_eq!(cps.len(), 2);
        assert!(cps.iter().all(|c| c.id == 7));
        assert!(cps[0].at <= cps[1].at);
    }

    #[test]
    fn selective_compression_is_idempotent_on_compressed_traces() {
        let p = demo_program();
        let selective = Recorder::new(SimConfig::default())
            .mode(RecordingMode::Selective)
            .record(&p)
            .unwrap();
        let twice = selective_compress(selective.trace.clone());
        assert_eq!(twice.num_events(), selective.trace.num_events());
    }

    #[test]
    fn recorder_propagates_simulation_errors() {
        let mut b = ProgramBuilder::new("bad");
        b.thread("t", |t| {
            t.read(perfplay_trace::ObjectId::new(3));
        });
        let p = b.build();
        assert!(Recorder::new(SimConfig::default()).record(&p).is_err());
    }
}
