//! Integration tests of the unified replay engine: barrier edge cases
//! checked against the reference loops, the SYNC-S admission-bypass path,
//! and the structured replay errors.

use perfplay_program::ProgramBuilder;
use perfplay_record::Recorder;
use perfplay_replay::{
    reference_replay_free, reference_replay_original, ReplayConfig, ReplayError, ReplaySchedule,
    Replayer, UlcpFreeReplayer,
};
use perfplay_sim::SimConfig;
use perfplay_trace::{CodeSiteId, Event, LockId, ThreadId, Time, Trace, TraceMeta};

fn all_schedules(seed: u64) -> [ReplaySchedule; 4] {
    [
        ReplaySchedule::orig(seed),
        ReplaySchedule::elsc(),
        ReplaySchedule::sync(),
        ReplaySchedule::mem(),
    ]
}

/// Asserts the unified engine and the reference loop agree bit-for-bit on
/// one trace under every schedule, and on the ULCP-free replay of its
/// transformation (with and without DLS).
fn assert_engine_matches_reference(trace: &Trace) {
    let config = ReplayConfig::default();
    let replayer = Replayer::default();
    for schedule in all_schedules(11) {
        let reference = reference_replay_original(&config, trace, schedule);
        let engine = replayer.replay(trace, schedule);
        assert_eq!(
            reference, engine,
            "engine diverged from reference under {:?}",
            schedule.kind
        );
    }
    let plan = perfplay_detect::Detector::default().plan(trace, perfplay_detect::NoGain);
    let transformed = perfplay_transform::Transformer::default().transform_from_plan(trace, &plan);
    for use_dls in [true, false] {
        let reference = reference_replay_free(&config, use_dls, &transformed);
        let engine = UlcpFreeReplayer::new(config)
            .with_dls(use_dls)
            .replay(&transformed);
        assert_eq!(
            reference, engine,
            "free engine diverged from reference (dls={use_dls})"
        );
    }
}

fn record(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
    let mut b = ProgramBuilder::new("unified-engine-test");
    build(&mut b);
    Recorder::new(SimConfig::default())
        .record(&b.build())
        .unwrap()
        .trace
}

#[test]
fn sole_member_barrier_group_releases_immediately() {
    let trace = record(|b| {
        let solo = b.barrier("solo", 1);
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("bar.c", "one", 1);
        b.thread("alone", |t| {
            t.compute_ns(200);
            t.barrier(solo);
            t.locked(lock, site, |cs| {
                cs.read(x);
            });
        });
        // A second thread that never touches the barrier, so the trace has
        // real cross-thread scheduling around the one-member crossing.
        b.thread("other", |t| {
            t.compute_ns(500);
            t.locked(lock, site, |cs| {
                cs.read(x);
            });
        });
    });
    assert_engine_matches_reference(&trace);
    // A sole member never waits at its own barrier.
    let result = Replayer::default()
        .replay(&trace, ReplaySchedule::elsc())
        .unwrap();
    assert_eq!(result.per_thread[1].sync_wait, Time::ZERO);
}

#[test]
fn interleaved_barrier_groups_across_the_same_threads() {
    let trace = record(|b| {
        let first = b.barrier("first", 3);
        let second = b.barrier("second", 3);
        for i in 0..3u32 {
            let skew = u64::from(i + 1) * 7;
            b.thread(format!("t{i}"), move |t| {
                t.compute_us(skew);
                t.barrier(first);
                t.compute_us(10 - u64::from(i) * 3);
                t.barrier(second);
                t.compute_us(skew);
                // The same barrier objects are crossed a second time, so two
                // dynamic groups per barrier interleave across the threads.
                t.barrier(first);
                t.compute_ns(300);
                t.barrier(second);
            });
        }
    });
    assert_engine_matches_reference(&trace);
    let result = Replayer::default()
        .replay(&trace, ReplaySchedule::elsc())
        .unwrap();
    // Every thread crossed four barriers; the fastest arrivals must have
    // accumulated synchronization wait at each crossing.
    assert!(result.per_thread.iter().any(|t| t.sync_wait > Time::ZERO));
    // All threads share the final barrier release, so no thread can finish
    // much before another (only the trailing compute differs).
    let finishes: Vec<Time> = result.per_thread.iter().map(|t| t.finish_time).collect();
    let spread = *finishes.iter().max().unwrap() - *finishes.iter().min().unwrap();
    assert!(spread <= Time::from_micros(1));
}

#[test]
fn nested_locks_exercise_the_sync_bypass_path() {
    let trace = record(|b| {
        let outer = b.lock("outer");
        let inner = b.lock("inner");
        let x = b.shared("x", 0);
        let site_o = b.site("nest.c", "outer", 1);
        let site_i = b.site("nest.c", "inner", 2);
        for i in 0..3 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(4, |l| {
                    l.locked(outer, site_o, |cs| {
                        cs.read(x);
                        cs.locked(inner, site_i, |cs2| {
                            cs2.write_add(x, 1);
                        });
                    });
                    l.compute_ns(250);
                });
            });
        }
    });
    assert_engine_matches_reference(&trace);
}

#[test]
fn condvar_and_barrier_mix_matches_reference() {
    let trace = record(|b| {
        let lock = b.lock("m");
        let cv = b.condvar("cv");
        let bar = b.barrier("sync", 2);
        let flag = b.shared("flag", 0);
        let site_w = b.site("mix.c", "waiter", 1);
        let site_s = b.site("mix.c", "signaller", 2);
        b.thread("waiter", |t| {
            t.barrier(bar);
            t.locked(lock, site_w, |cs| {
                cs.cond_wait(cv, lock);
                cs.read(flag);
            });
        });
        b.thread("signaller", |t| {
            t.barrier(bar);
            t.compute_us(3);
            t.locked(lock, site_s, |cs| {
                cs.write_set(flag, 1);
                cs.cond_signal(cv);
            });
        });
    });
    assert_engine_matches_reference(&trace);
}

/// Hand-builds a trace whose two threads acquire two locks in opposite
/// order — a classic deadlock no recorded execution would produce, used to
/// pin the structured `Stuck` error.
fn deadlocked_trace() -> Trace {
    let meta = TraceMeta {
        program: "deadlock".into(),
        num_threads: 2,
        num_locks: 2,
        num_objects: 0,
        input: "synthetic".into(),
    };
    let mut trace = Trace::new(meta, 2);
    let site = CodeSiteId::new(0);
    let (a, b) = (LockId::new(0), LockId::new(1));
    let orders = [[a, b], [b, a]];
    for (ti, order) in orders.iter().enumerate() {
        let t = &mut trace.threads[ti];
        t.push(
            Time::from_nanos(10),
            Event::LockAcquire {
                lock: order[0],
                site,
            },
        );
        t.push(
            Time::from_nanos(20),
            Event::LockAcquire {
                lock: order[1],
                site,
            },
        );
        t.push(Time::from_nanos(30), Event::LockRelease { lock: order[1] });
        t.push(Time::from_nanos(40), Event::LockRelease { lock: order[0] });
        t.push(Time::from_nanos(40), Event::ThreadExit);
    }
    trace.total_time = Time::from_nanos(40);
    trace
}

/// A recorded grant order that covers only *some* acquisitions of a lock
/// (possible in hand-built or truncated traces) must not strand the
/// uncovered acquirers: once the order is exhausted, a release has to wake
/// the channel waiters. Regression test for a missed-wake bug where the
/// admission-blocked thread registered no channel and the engine reported a
/// spurious `Stuck` that the reference loop did not.
#[test]
fn acquisitions_beyond_the_recorded_grant_order_still_complete() {
    let meta = TraceMeta {
        program: "truncated-order".into(),
        num_threads: 2,
        num_locks: 1,
        num_objects: 0,
        input: "synthetic".into(),
    };
    let mut trace = Trace::new(meta, 2);
    let site = CodeSiteId::new(0);
    let lock = LockId::new(0);
    // T0 computes first, then takes the lock; T1 tries the lock right away,
    // so T1 blocks on admission (the recorded order expects T0 first).
    trace.threads[0].push(
        Time::from_nanos(100),
        Event::Compute {
            cost: Time::from_nanos(100),
        },
    );
    trace.threads[0].push(Time::from_nanos(110), Event::LockAcquire { lock, site });
    trace.threads[0].push(Time::from_nanos(120), Event::LockRelease { lock });
    trace.threads[0].push(Time::from_nanos(120), Event::ThreadExit);
    trace.threads[1].push(Time::from_nanos(130), Event::LockAcquire { lock, site });
    trace.threads[1].push(Time::from_nanos(140), Event::LockRelease { lock });
    trace.threads[1].push(Time::from_nanos(140), Event::ThreadExit);
    // The schedule records only T0's grant; T1's acquisition is beyond the
    // recorded order.
    trace.lock_schedule = vec![perfplay_trace::LockGrant {
        seq: 0,
        lock,
        thread: ThreadId::new(0),
        event_index: 1,
        at: Time::from_nanos(110),
    }];
    trace.total_time = Time::from_nanos(140);

    let config = ReplayConfig::default();
    for schedule in [ReplaySchedule::elsc(), ReplaySchedule::mem()] {
        let engine = Replayer::default().replay(&trace, schedule);
        let reference = reference_replay_original(&config, &trace, schedule);
        assert_eq!(engine, reference, "divergence under {:?}", schedule.kind);
        let result = engine
            .unwrap_or_else(|e| panic!("replay must complete under {:?}, got {e}", schedule.kind));
        // T1 really did wait for T0's recorded turn.
        assert!(result.event_times[1][0] > result.event_times[0][1]);
    }
}

#[test]
fn deadlocked_trace_reports_structured_stuck_error() {
    let trace = deadlocked_trace();
    let err = Replayer::default()
        .replay(&trace, ReplaySchedule::elsc())
        .unwrap_err();
    let ReplayError::Stuck { cursors } = &err else {
        panic!("expected Stuck, got {err:?}");
    };
    // Both threads hang on their *second* acquisition (event index 1).
    assert_eq!(cursors.len(), 2);
    for (ti, c) in cursors.iter().enumerate() {
        assert_eq!(c.thread, ThreadId::new(ti as u32));
        assert_eq!(
            c.next_event, 1,
            "thread {ti} should hang on its nested acquire"
        );
        assert_eq!(c.total_events, 5);
        assert!(!c.is_finished());
    }
    assert_eq!(
        err.blocked_threads(),
        vec![ThreadId::new(0), ThreadId::new(1)]
    );
    // The reference loop reports the identical structured error.
    let reference_err =
        reference_replay_original(&ReplayConfig::default(), &trace, ReplaySchedule::elsc())
            .unwrap_err();
    assert_eq!(err, reference_err);
}

#[test]
fn step_limit_exhaustion_carries_every_cursor() {
    let trace = record(|b| {
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("lim.c", "work", 1);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(6, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                });
            });
        }
    });
    let config = ReplayConfig {
        max_steps: 5,
        ..ReplayConfig::default()
    };
    let err = Replayer::new(config)
        .replay(&trace, ReplaySchedule::elsc())
        .unwrap_err();
    let ReplayError::StepLimitExceeded { limit, cursors } = &err else {
        panic!("expected StepLimitExceeded, got {err:?}");
    };
    assert_eq!(*limit, 5);
    // Every thread's position is reported, replayed a strict prefix.
    assert_eq!(cursors.len(), trace.num_threads());
    for (ti, c) in cursors.iter().enumerate() {
        assert_eq!(c.thread, ThreadId::new(ti as u32));
        assert_eq!(c.total_events, trace.threads[ti].events.len());
        assert!(c.next_event < c.total_events);
    }
    // The display names the first unfinished thread and its event index.
    let rendered = err.to_string();
    assert!(rendered.contains("step limit of 5"));
    assert!(rendered.contains("T0"));
}
