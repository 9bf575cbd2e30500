//! Experiment implementations shared by the `report` binary, the
//! criterion benches, and the workspace integration tests.
//!
//! One function per paper artifact — see `DESIGN.md` §3 for the full
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

pub mod alloc_track;
pub mod experiments;
pub mod workload;

pub use experiments::*;

/// JSON field both gates record [`calibrate`]'s value under.
pub const CALIBRATION_FIELD: &str = "calibration_xorshift64_steps_per_sec";

/// Host-speed calibration for the time gates: xorshift64 steps per
/// second, the best of five short rounds (the maximum is robust
/// against a transient frequency dip, which would otherwise inflate
/// the expected-throughput band).
///
/// The loop is three shifts and three xors on one register: it calls
/// no code of this workspace, so a change that speeds up a primitive
/// cannot move the scale every other row is judged by (it used to be
/// SHA-256 digests per second, and a faster SHA-256 made every row
/// that does not hash look slower). Throughput comparisons divide by
/// this, so a slower CI runner does not read as a regression.
pub fn calibrate() -> f64 {
    const STEPS: u32 = 2_000_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.max(f64::from(STEPS) / t0.elapsed().as_secs_f64());
    }
    best
}
