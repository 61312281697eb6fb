//! # perfplay-workloads
//!
//! Synthetic workload models for the PerfPlay reproduction.
//!
//! The paper evaluates PerfPlay on five real-world programs (OpenLDAP, MySQL,
//! pbzip2, TransmissionBT, HandBrake) and the PARSEC benchmark suite; none of
//! those can be linked into a Rust library, so this crate models each of them
//! as a `perfplay-program` whose *behaviour mix* (read-read, disjoint-write,
//! null-lock, benign and truly conflicting critical sections) follows the
//! application's Table 1 breakdown. The absolute dynamic counts are scaled
//! down roughly an order of magnitude so the whole evaluation runs in
//! seconds; the relative mix per application is preserved.
//!
//! * [`App`] — the sixteen application models, parameterized by thread count
//!   and [`InputSize`] (`simsmall` / `simmedium` / `simlarge`).
//! * [`cases`] — faithful models of the paper's case-study bugs (#BUG 1
//!   OpenLDAP spin-wait, #BUG 2 pbzip2 join, MySQL #68573) and of their
//!   fixes.
//! * [`random_workload`] — a seeded random program generator for
//!   property-based testing of the full pipeline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod apps;
pub mod cases;
mod generator;
mod profile;

pub use apps::App;
pub use generator::{random_workload, GeneratorConfig};
pub use profile::{
    build_lock_free_program, build_program, InputSize, Profile, SectionMix, WorkloadConfig,
};
