//! One pass: set up a deployment from the seed, run the timed ops,
//! take the counts, check the result.

use crate::workload::{Deployment, Driver, Laps, Spec};
use mykil::group::GroupHandle;
use mykil::invariants::InvariantChecker;
use mykil_net::{Duration, Recovered, Stats, Time};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The end-to-end driver: the simulator's own loop, nothing around it
/// but a count of the events each `advance` processed (the traced pass
/// replays those counts one step at a time).
#[derive(Debug, Default)]
pub struct Untraced {
    pub advance_events: Vec<u64>,
}

impl Driver for Untraced {
    fn act<T>(&mut self, g: &mut GroupHandle, f: impl FnOnce(&mut GroupHandle) -> T) -> T {
        f(g)
    }

    fn advance(&mut self, g: &mut GroupHandle, deadline: Time) {
        let before = g.sim.events_processed();
        g.sim.run_until(deadline);
        self.advance_events.push(g.sim.events_processed() - before);
    }
}

/// The end-to-end driver of the measured passes: replays the event
/// counts a counting pass found, one [`Simulator::step`] at a time, and
/// records the wall time from the end of one step (or harness action)
/// to the end of the next. The laps of an op add up to its wall time.
///
/// [`Simulator::step`]: mykil_net::Simulator::step
#[derive(Debug)]
pub struct Lapped {
    expected: VecDeque<u64>,
    last: Instant,
    pub laps: Vec<u32>,
    /// Index into `laps` of each op's first lap.
    pub op_start: Vec<usize>,
}

impl Lapped {
    /// `advance_events` is what the counting pass's [`Untraced`] saw.
    pub fn new(advance_events: &[u64]) -> Lapped {
        Lapped {
            expected: advance_events.iter().copied().collect(),
            last: Instant::now(),
            laps: Vec::with_capacity(advance_events.iter().sum::<u64>() as usize),
            op_start: Vec::new(),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        // A lap is one protocol handler: far below the 4.3 s a u32 holds.
        self.laps.push((now - self.last).as_nanos() as u32);
        self.last = now;
    }
}

impl Driver for Lapped {
    fn op_begin(&mut self, _i: usize, _now: Time) {
        self.op_start.push(self.laps.len());
        self.last = Instant::now();
    }

    fn op_end(&mut self) {
        self.lap();
    }

    fn act<T>(&mut self, g: &mut GroupHandle, f: impl FnOnce(&mut GroupHandle) -> T) -> T {
        let out = f(g);
        self.lap();
        out
    }

    fn advance(&mut self, g: &mut GroupHandle, deadline: Time) {
        let events = self
            .expected
            .pop_front()
            .expect("lapped pass ran more advances than the counting pass");
        for _ in 0..events {
            g.sim.step();
            self.lap();
        }
        assert!(g.now() <= deadline, "lapped pass stepped past its slot");
        g.sim.run_until(deadline);
    }
}

/// Everything a pass counted over its timed ops. Two passes of the same
/// workload, seed and op count must compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub events_per_op: Vec<u64>,
    /// Per message kind: messages sent, bytes sent, deliveries.
    pub kinds: BTreeMap<&'static str, [u64; 3]>,
    /// The protocol's own counters (`ac-rekeys`, `member-joins`, ...).
    pub custom: BTreeMap<&'static str, i64>,
    pub syncs: u64,
    pub checkpoints: u64,
    pub failed_ops: u64,
    pub handshake_virt_us: Vec<u64>,
}

impl Counts {
    pub fn events(&self) -> u64 {
        self.events_per_op.iter().sum()
    }

    pub fn kind(&self, kind: &str) -> [u64; 3] {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    pub fn custom(&self, key: &str) -> i64 {
        self.custom.get(key).copied().unwrap_or(0)
    }

    pub fn msgs_sent(&self) -> u64 {
        self.kinds.values().map(|k| k[0]).sum()
    }

    pub fn bytes_sent(&self) -> u64 {
        self.kinds.values().map(|k| k[1]).sum()
    }

    pub fn deliveries(&self) -> u64 {
        self.kinds.values().map(|k| k[2]).sum()
    }
}

struct Snapshot {
    stats: Stats,
    syncs: u64,
    checkpoints: u64,
}

impl Snapshot {
    fn take(g: &GroupHandle) -> Snapshot {
        let nodes = std::iter::once(g.rs())
            .chain(g.primaries.iter().copied())
            .chain(g.backups.iter().copied())
            .chain(g.members.iter().copied());
        let (mut syncs, mut checkpoints) = (0, 0);
        for node in nodes {
            syncs += g.sim.storage(node).sync_count();
            checkpoints += g.sim.storage(node).checkpoint_count();
        }
        Snapshot {
            stats: g.stats().clone(),
            syncs,
            checkpoints,
        }
    }
}

/// Untimed ops at the end of every set-up; a multiple of every
/// workload's area count, so the timed ops start at area 0.
const WARMUP_OPS: usize = 8;

/// A fixed integer loop, timed before every pass: it costs the same on
/// an idle host every time, so a slow processor (frequency, stolen
/// time) shows here. It runs in registers and does not see contention
/// for cache or memory, which slows the protocol code and not this
/// loop; the run's note on its slowest pass shows that.
pub fn calibrate() -> u64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..10_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_nanos() as u64
}

/// Crashes the primary of every non-root area once and lets its backup
/// take over (crash, 1 s, restart, 1 s). Returns per takeover the
/// virtual time from crash to promotion and the wall time of the second
/// in which it happened.
///
/// Only a first takeover repeats: a second takeover of the same area
/// strands its members, so this is an untimed epilogue and not a
/// workload.
fn takeover_epilogue(d: &mut Deployment) -> Vec<(u64, u64)> {
    let second = Duration::from_secs(1);
    let mut out = Vec::new();
    for area in 1..d.spec.areas {
        let primary = d.g.primaries[area];
        let takeovers = d.g.stats().counter("ac-takeovers");
        let crashed_at = d.g.now();
        let start = Instant::now();
        d.g.sim.crash(primary);
        let mut promoted_at = None;
        while d.g.now() < crashed_at + second && d.g.sim.step() {
            if promoted_at.is_none() && d.g.stats().counter("ac-takeovers") > takeovers {
                promoted_at = Some(d.g.now());
            }
        }
        d.g.sim.run_until(crashed_at + second);
        let wall_ns = start.elapsed().as_nanos() as u64;
        d.g.sim.restart(primary);
        d.g.run_for(second);
        if let Some(at) = promoted_at {
            out.push(((at - crashed_at).as_micros(), wall_ns));
        }
    }
    out
}

/// What one pass produced.
#[derive(Debug)]
pub struct PassOutput {
    pub calib_ns: u64,
    /// Wall time of each stage of the set-up, warm-up ops included.
    pub setup_ns: Vec<u64>,
    pub op_ns: Vec<u64>,
    pub counts: Counts,
    /// Self-check misses; empty when the pass is correct.
    pub problems: Vec<String>,
    /// Per takeover of the epilogue: virtual µs to promotion, wall ns.
    pub takeovers: Vec<(u64, u64)>,
    /// What area 0's controller holds on stable storage at the end (a
    /// real checkpoint and WAL for the replay unit cost).
    pub ac_storage: Recovered,
}

/// Runs one pass of `ops` ops under `driver`. With `epilogue`, every
/// non-root area's backup takes over once after the timed ops and
/// before the final checks.
pub fn run_pass<D: Driver>(
    spec: &'static Spec,
    seed: u64,
    ops: usize,
    driver: &mut D,
    epilogue: bool,
) -> PassOutput {
    let calib_ns = calibrate();

    // Set-up ends after a few untimed ops: the first ops after the
    // fill still see its tail (every member's first path refresh).
    let mut laps = Laps::start();
    let mut d = Deployment::build(spec, seed, driver.store_log(), &mut laps);
    for i in 0..WARMUP_OPS {
        d.run_op(i, &mut Untraced::default());
        laps.lap();
    }

    driver.attach(&mut d);
    let sizes_before = d.controller_counts();
    let before = Snapshot::take(&d.g);
    let mut op_ns = Vec::with_capacity(ops);
    let mut events_per_op = Vec::with_capacity(ops);
    let mut handshake_virt_us = Vec::new();
    let mut failed_ops = 0;
    for i in 0..ops {
        let events = d.g.sim.events_processed();
        let outcome = d.run_op(i, driver);
        events_per_op.push(d.g.sim.events_processed() - events);
        op_ns.push(outcome.wall_ns);
        handshake_virt_us.extend(outcome.handshake_virt_us);
        failed_ops += u64::from(!outcome.ok);
    }
    let after = Snapshot::take(&d.g);
    driver.detach(&mut d);

    let mut kinds = BTreeMap::new();
    for (kind, now) in after.stats.kinds() {
        let was = before.stats.kind(kind);
        kinds.insert(
            kind,
            [
                now.messages_sent - was.messages_sent,
                now.bytes_sent - was.bytes_sent,
                now.messages_delivered - was.messages_delivered,
            ],
        );
    }
    let custom = after
        .stats
        .counters()
        .map(|(key, now)| (key, now as i64 - before.stats.counter(key) as i64))
        .collect();
    let counts = Counts {
        events_per_op,
        kinds,
        custom,
        syncs: after.syncs - before.syncs,
        checkpoints: after.checkpoints - before.checkpoints,
        failed_ops,
        handshake_virt_us,
    };

    let mut problems = Vec::new();
    if failed_ops > 0 {
        problems.push(format!(
            "{failed_ops} of {ops} ops missed their postcondition"
        ));
    }
    // Stationarity: the same op must cost the same work at the end of
    // a pass as at its start, and leave every area the size it was.
    let fifth = ops / 5;
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let (first, last) = (
        mean(&counts.events_per_op[..fifth]),
        mean(&counts.events_per_op[ops - fifth..]),
    );
    if (last - first).abs() > 0.02 * first {
        problems.push(format!(
            "not stationary: {first:.1} events/op over the first fifth of ops, {last:.1} over the last"
        ));
    }
    if d.controller_counts() != sizes_before {
        problems.push(format!(
            "area sizes changed: {sizes_before:?} before, {:?} after",
            d.controller_counts()
        ));
    }

    let takeovers = if epilogue {
        let takeovers = takeover_epilogue(&mut d);
        if takeovers.len() != spec.areas - 1 {
            problems.push(format!(
                "{} of {} backups took over in the epilogue",
                takeovers.len(),
                spec.areas - 1
            ));
        }
        takeovers
    } else {
        Vec::new()
    };

    for violation in InvariantChecker::new().check(&d.g) {
        problems.push(format!("invariant: {violation}"));
    }
    if !d.all_members_in_place() {
        problems.push("a member is not active in its area at the end of the pass".into());
    }
    if !d.final_data_reaches_everyone() {
        problems.push("the final multicast did not reach every member".into());
    }

    let ac_storage = d.g.sim.storage(d.g.primaries[0]).load();
    PassOutput {
        ac_storage,
        calib_ns,
        setup_ns: laps.ns,
        op_ns,
        counts,
        problems,
        takeovers,
    }
}
