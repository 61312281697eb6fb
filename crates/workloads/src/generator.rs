//! Random lock-program generator, used by property-based tests to exercise
//! the whole PerfPlay pipeline on inputs nobody hand-crafted.

use perfplay_program::{Program, ProgramBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Number of threads to generate.
    pub threads: usize,
    /// Number of locks to declare.
    pub locks: usize,
    /// Number of shared objects to declare.
    pub objects: usize,
    /// Critical sections per thread.
    pub sections_per_thread: u32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 12,
        }
    }
}

impl GeneratorConfig {
    /// Average recorded events per generated critical section: acquire +
    /// release + ~1.4 in-section accesses + the pacing compute + the 30%
    /// outside read, plus the amortized thread exit. Calibrated against the
    /// recorder (see `event_target_lands_near_the_mark`).
    pub const EVENTS_PER_SECTION: f64 = 4.7;

    /// Shapes a workload so recording it produces roughly `target_events`
    /// events (within ~15%): the scale knob, used to build the
    /// >=10M-event trace of the acceptance test.
    pub fn for_event_target(
        threads: usize,
        locks: usize,
        objects: usize,
        target_events: u64,
    ) -> Self {
        let total_sections = (target_events as f64 / Self::EVENTS_PER_SECTION).ceil();
        let sections_per_thread = (total_sections / threads.max(1) as f64).ceil() as u32;
        GeneratorConfig {
            threads: threads.max(1),
            locks: locks.max(1),
            objects: objects.max(1),
            sections_per_thread: sections_per_thread.max(1),
        }
    }
}

/// Generates a random, structurally valid, deadlock-free lock program.
///
/// The generated sections mix reads, disjoint writes, benign writes and
/// read-modify-write conflicts; nested locks are never generated, so the
/// program always terminates and never deadlocks under the simulator.
pub fn random_workload(seed: u64, config: &GeneratorConfig) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("random-{seed}"));
    b.input(format!("seed-{seed}"));

    let locks: Vec<_> = (0..config.locks.max(1))
        .map(|i| b.lock(format!("lock{i}")))
        .collect();
    let objects: Vec<_> = (0..config.objects.max(1))
        .map(|i| b.shared(format!("obj{i}"), rng.gen_range(0..4)))
        .collect();
    let sites: Vec<_> = (0..config.locks.max(1) * 3)
        .map(|i| b.site("random.c", format!("section{i}"), i as u32))
        .collect();

    for thread_index in 0..config.threads.max(1) {
        let locks = locks.clone();
        let objects = objects.clone();
        let sites = sites.clone();
        // Per-thread RNG so thread bodies are independent of iteration order.
        let mut trng = ChaCha8Rng::seed_from_u64(seed ^ (thread_index as u64).wrapping_mul(0x9e37));
        b.thread(format!("worker{thread_index}"), |t| {
            for _ in 0..config.sections_per_thread {
                let lock = locks[trng.gen_range(0..locks.len())];
                let site = sites[trng.gen_range(0..sites.len())];
                let obj = objects[trng.gen_range(0..objects.len())];
                let behaviour = trng.gen_range(0..5u32);
                t.locked(lock, site, |cs| match behaviour {
                    0 => {
                        cs.read(obj);
                    }
                    1 => {
                        cs.read(obj);
                        cs.read(objects[0]);
                    }
                    2 => {
                        cs.write_set(obj, 1);
                    }
                    3 => {
                        let v = cs.read_into(obj);
                        cs.write_add(obj, 1);
                        let _ = v;
                    }
                    _ => {
                        cs.compute_ns(50);
                    }
                });
                t.compute_ns(trng.gen_range(50..800));
                if trng.gen_bool(0.3) {
                    t.read(objects[trng.gen_range(0..objects.len())]);
                }
            }
        });
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::Detector;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    #[test]
    fn generated_programs_validate_and_record() {
        for seed in 0..10 {
            let program = random_workload(seed, &GeneratorConfig::default());
            assert!(program.validate().is_ok(), "seed {seed}");
            let recording = Recorder::new(SimConfig::default())
                .record(&program)
                .unwrap();
            assert!(recording.trace.validate().is_ok(), "seed {seed}");
            let _ = Detector::default().analyze(&recording.trace);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_workload(7, &GeneratorConfig::default());
        let b = random_workload(7, &GeneratorConfig::default());
        assert_eq!(a, b);
        let c = random_workload(8, &GeneratorConfig::default());
        assert_ne!(a, c);
    }

    #[test]
    fn event_target_lands_near_the_mark() {
        let cfg = GeneratorConfig::for_event_target(4, 4, 32, 20_000);
        let program = random_workload(3, &cfg);
        let recording = Recorder::new(SimConfig::default())
            .record(&program)
            .unwrap();
        let events = recording.trace.num_events() as f64;
        assert!(
            (events - 20_000.0).abs() / 20_000.0 < 0.15,
            "target 20000, recorded {events}"
        );
    }

    #[test]
    fn config_controls_the_shape() {
        let cfg = GeneratorConfig {
            threads: 5,
            locks: 3,
            objects: 2,
            sections_per_thread: 4,
        };
        let program = random_workload(1, &cfg);
        assert_eq!(program.num_threads(), 5);
        assert_eq!(program.num_locks(), 3);
        assert_eq!(program.stats().static_critical_sections, 5 * 4);
    }
}
