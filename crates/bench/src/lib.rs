//! Experiment implementations behind the `gate` binary's rows (the
//! `paper` subcommand regenerates the whole evaluation) and the
//! workspace integration tests.
//!
//! One function per paper artifact — see `DESIGN.md` §3 for the full
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod alloc_track;
pub mod experiments;
pub mod gate;
pub mod workload;

pub use experiments::*;
