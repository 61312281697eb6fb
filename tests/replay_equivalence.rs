//! Bit-identical equivalence of the unified replay engine against the
//! retained naive reference loops, over randomly generated traces.
//!
//! The unified engine (`crates/replay/src/engine.rs`) replaces the
//! reference's O(T)-per-step thread scan and wake-everyone strategy with a
//! clock-keyed ready heap and targeted wake lists. These properties pin the
//! refactor: for arbitrary generated programs, every schedule kind — ORIG-S
//! (including its seeded scheduling noise), ELSC-S, SYNC-S and MEM-S — and
//! the ULCP-free lockset replay (with and without the dynamic locking
//! strategy) must produce exactly the same [`ReplayResult`]: total time,
//! per-thread timing accounts, per-event completion times, lockset
//! operation counts and overhead.
//!
//! `random_workload` emits no condition variables, no barriers and no nested
//! locks. A deterministic sweep over recorded models covers the engine's
//! condvar dependency, barrier-arrival and SYNC-S admission-bypass tables:
//! the Table 1 application models, the case-study bugs and fixes (barriers,
//! nested locks) and a condition-variable hand-off.
//!
//! [`ReplayResult`]: perfplay::prelude::ReplayResult

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{
    cases, random_workload, App, GeneratorConfig, InputSize, WorkloadConfig,
};
use perfplay_replay::{reference_replay_free, reference_replay_original};

/// Two waiters block on a condition variable under the lock until a
/// signaller broadcasts; a fourth thread contends on the same lock.
fn condvar_handoff() -> Program {
    let mut b = ProgramBuilder::new("condvar-handoff");
    let lock = b.lock("m");
    let cv = b.condvar("ready");
    let flag = b.shared("flag", 0);
    let site_w = b.site("cv.c", "wait_ready", 1);
    let site_s = b.site("cv.c", "set_ready", 2);
    let site_p = b.site("cv.c", "poll", 3);
    for i in 0..2 {
        b.thread(format!("waiter{i}"), |t| {
            t.locked(lock, site_w, |cs| {
                cs.cond_wait(cv, lock);
                cs.read(flag);
            });
        });
    }
    b.thread("signaller", |t| {
        t.compute_us(5);
        t.locked(lock, site_s, |cs| {
            cs.write_set(flag, 1);
            cs.cond_broadcast(cv);
        });
    });
    b.thread("poller", |t| {
        t.loop_n(6, |l| {
            l.locked(lock, site_p, |cs| {
                cs.read(flag);
            });
            l.compute_ns(700);
        });
    });
    b.build()
}

/// Every application model, case study and the condvar hand-off, at 4
/// threads and a quarter of the default input: the engine matches the
/// reference under all four schedule kinds, and the ULCP-free replay
/// matches with DLS on and off.
#[test]
fn unified_engine_matches_reference_on_app_models() {
    let config = WorkloadConfig::new(4, InputSize::Custom(0.25));
    let mut programs: Vec<Program> = App::ALL.iter().map(|app| app.build(&config)).collect();
    programs.extend([
        cases::bug1_openldap_spinwait(&config),
        cases::bug1_fixed_barrier(&config),
        cases::bug2_pbzip2_join(&config),
        cases::bug2_fixed_signal(&config),
        cases::mysql_68573_query_cache(&config),
        condvar_handoff(),
    ]);
    let replay_config = ReplayConfig::default();
    let replayer = Replayer::default();
    let (mut cond_waits, mut barrier_waits, mut nested) = (0, 0, 0);
    for program in &programs {
        let app = &program.name;
        let trace = Recorder::new(SimConfig::default())
            .record(program)
            .unwrap()
            .trace;
        let stats = TraceStats::of(&trace);
        cond_waits += stats.cond_waits;
        barrier_waits += stats.barrier_waits;
        nested += perfplay_trace::extract_critical_sections(&trace)
            .iter()
            .filter(|s| s.depth > 0)
            .count();
        for schedule in [
            ReplaySchedule::orig(7),
            ReplaySchedule::elsc(),
            ReplaySchedule::sync(),
            ReplaySchedule::mem(),
        ] {
            let reference = reference_replay_original(&replay_config, &trace, schedule);
            let engine = replayer.replay(&trace, schedule);
            assert!(
                reference.is_ok(),
                "{app} under {:?}: {reference:?}",
                schedule.kind
            );
            assert!(
                reference == engine,
                "engine diverged from reference on {app} under {:?}",
                schedule.kind
            );
        }
        let analysis = Detector::default().analyze(&trace);
        let transformed = Transformer::default().transform(&trace, &analysis);
        for use_dls in [true, false] {
            let reference = reference_replay_free(&replay_config, use_dls, &transformed);
            let engine = UlcpFreeReplayer::new(replay_config)
                .with_dls(use_dls)
                .replay(&transformed);
            assert!(
                reference.is_ok(),
                "{app} free (dls={use_dls}): {reference:?}"
            );
            assert!(
                reference == engine,
                "free engine diverged from reference on {app} (dls={use_dls})"
            );
        }
    }
    // The sweep reaches what the random generator never emits.
    assert!(cond_waits > 0, "no condition-variable waits in the sweep");
    assert!(barrier_waits > 0, "no barrier waits in the sweep");
    assert!(nested > 0, "no nested critical sections in the sweep");
}

fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..6, 1usize..4, 2usize..6, 4u32..14).prop_map(
        |(threads, locks, objects, sections_per_thread)| GeneratorConfig {
            threads,
            locks,
            objects,
            sections_per_thread,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unified engine is bit-identical to the reference loop for the
    /// original-trace replay under all four schedule kinds.
    #[test]
    fn unified_engine_matches_reference_for_all_schedules(
        seed in 0u64..5_000,
        config in generator_config(),
    ) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let replay_config = ReplayConfig::default();
        let replayer = Replayer::default();
        for schedule in [
            ReplaySchedule::orig(seed.wrapping_mul(0x9e37) | 1),
            ReplaySchedule::elsc(),
            ReplaySchedule::sync(),
            ReplaySchedule::mem(),
        ] {
            let reference = reference_replay_original(&replay_config, &trace, schedule);
            let engine = replayer.replay(&trace, schedule);
            prop_assert!(
                reference == engine,
                "engine diverged from reference under {:?} (seed {seed})",
                schedule.kind
            );
        }
    }

    /// The unified engine is bit-identical to the reference loop for the
    /// ULCP-free replay, with and without the dynamic locking strategy.
    #[test]
    fn unified_free_engine_matches_reference(
        seed in 0u64..5_000,
        config in generator_config(),
    ) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let analysis = Detector::default().analyze(&trace);
        let transformed = Transformer::default().transform(&trace, &analysis);
        let replay_config = ReplayConfig::default();
        for use_dls in [true, false] {
            let reference = reference_replay_free(&replay_config, use_dls, &transformed);
            let engine = UlcpFreeReplayer::new(replay_config)
                .with_dls(use_dls)
                .replay(&transformed);
            prop_assert!(
                reference == engine,
                "free engine diverged from reference (dls={use_dls}, seed {seed})"
            );
        }
    }
}
