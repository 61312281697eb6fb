//! Workspace umbrella crate.
//!
//! This crate exists so that the repository-level `examples/` and `tests/`
//! directories, and the `perfplay` command-line tool (`src/bin/perfplay.rs`),
//! have a Cargo package to attach to. It re-exports the main entry point
//! crate for convenience.

#![forbid(unsafe_code)]

pub use perfplay;
