//! `gate scale` and `gate mobility`: the hybrid hot/cold million-member
//! harness under the counting allocator and the scale invariant
//! checker — a flash-crowd join plus mass leave, and inter-area ticket
//! rejoins under a generated chaos fault plan against durable
//! controllers, with the per-fault recovery envelope. A stall or an
//! invariant violation aborts the gate (exit 2): it must not publish
//! numbers from a broken run.

use mykil::invariants::check_scale;
use mykil::scale::{ScaleConfig, ScaleGroup};
use mykil_bench::alloc_track::{peak_bytes, reset_peak};
use mykil_bench::gate::{write_artifacts, Gate, Limit, Ratio, Rep, Rule, Value};
use mykil_net::Duration;
use std::time::Instant;

/// Every scenario carries the first eight; the storms add the rest.
/// The counts are fixed by the seed — the recovery times are
/// virtual-clock. `peak_heap_bytes`, the scenario's high-water mark of
/// live heap above what the process held when it started, repeats to
/// the byte on one toolchain; a new growth policy in `std`'s
/// collections moves it, and the baseline is then re-recorded.
const COLUMNS: [(&str, Rule); 15] = [
    ("members", Rule::Exact),
    ("areas", Rule::Exact),
    ("events", Rule::Exact),
    ("events_per_sec", Rule::Info),
    ("wall_secs", Rule::Info),
    ("peak_heap_bytes", Rule::Exact),
    ("rekey_multicast_bytes", Rule::Exact),
    ("rekey_unicast_bytes", Rule::Exact),
    ("moves", Rule::Exact),
    ("faults", Rule::Exact),
    ("crashes", Rule::Exact),
    ("recovery_mean_micros", Rule::Exact),
    ("recovery_p50_micros", Rule::Exact),
    ("recovery_p99_micros", Rule::Exact),
    ("degraded_window_bytes", Rule::Exact),
];

/// A tenfold larger group must not cost more per event: how much the
/// 100k scenario may pull ahead of the 1M one, relative to the
/// baseline, before the gate fails.
const fn per_event_time(of: &'static str, over: &'static str) -> Ratio {
    Ratio {
        column: "events_per_sec",
        of,
        over,
        limit: Limit::Drift(25),
    }
}

pub const SCALE: Gate = Gate {
    name: "scale",
    baseline: "BENCH_scale.json",
    noun: "scenarios",
    rows: &[
        ("flash_crowd_100k", COLUMNS.split_at(8).0, |name, _| {
            run_scenario(name, ScaleConfig::smoke_100k())
        }),
        ("flash_crowd_1m", COLUMNS.split_at(8).0, |name, _| {
            run_scenario(name, ScaleConfig::paper_million())
        }),
    ],
    smoke_rows: 1,
    ratios: &[per_event_time("flash_crowd_100k", "flash_crowd_1m")],
};

pub const MOBILITY: Gate = Gate {
    name: "mobility",
    baseline: "BENCH_mobility.json",
    noun: "scenarios",
    rows: &[
        ("mobility_storm_100k", &COLUMNS, |name, dump_dir| {
            let cfg = ScaleConfig {
                members: 100_000,
                areas: 100,
                ..ScaleConfig::mobility_million()
            };
            run_storm(name, cfg, 10_000, 12, 300, dump_dir)
        }),
        // The acceptance scenario: 1M members / 1,000 areas, 100k
        // inter-area moves, 50+ injected faults (crashes, partitions,
        // storage).
        ("mobility_storm_1m", &COLUMNS, |name, dump_dir| {
            run_storm(
                name,
                ScaleConfig::mobility_million(),
                100_000,
                20,
                2_000,
                dump_dir,
            )
        }),
    ],
    smoke_rows: 1,
    ratios: &[per_event_time("mobility_storm_100k", "mobility_storm_1m")],
};

fn die(name: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("{name}: {why}");
    std::process::exit(2)
}

/// The columns every scenario carries, read off a finished run.
fn rep(cfg: &ScaleConfig, g: &ScaleGroup, t0: Instant, floor: u64) -> Rep {
    let secs = t0.elapsed().as_secs_f64();
    let events = g.sim.events_processed();
    Rep {
        secs,
        values: vec![
            Value::Int(cfg.members),
            Value::Int(cfg.areas as u64),
            Value::Int(events),
            Value::Real(events as f64 / secs),
            Value::Real(secs),
            Value::Int(peak_bytes() - floor),
            Value::Int(g.sim.stats().counter("scale-rekey-multicast-bytes")),
            Value::Int(g.sim.stats().counter("scale-rekey-unicast-bytes")),
        ],
        artifacts: Vec::new(),
    }
}

/// Drives one flash-crowd join + mass-leave to completion with the
/// invariant checker auditing both quiescent points.
fn run_scenario(name: &str, cfg: ScaleConfig) -> Rep {
    let floor = reset_peak();
    let t0 = Instant::now();
    let mut g = ScaleGroup::new(cfg);
    let audit = |g: &ScaleGroup, phase: &str, expected: u64| {
        let (violations, live) = (check_scale(g), g.live_members());
        if !violations.is_empty() || live != expected {
            let counts = format!("{live} members live after {phase}, expected {expected}");
            die(
                name,
                format_args!("{counts}; invariant violations: {violations:?}"),
            );
        }
    };
    g.run_flash_crowd_join()
        .unwrap_or_else(|stall| die(name, stall));
    audit(&g, "join", cfg.members);
    g.run_mass_leave().unwrap_or_else(|stall| die(name, stall));
    audit(&g, "leave", 0);
    rep(&cfg, &g, t0, floor)
}

/// Per-area ledger dump: enough to diff a failing run against a
/// healthy one without re-running it.
fn dump_ledger(g: &ScaleGroup) -> String {
    let mut out = String::from(
        "# area live joins hot_leaves cold_leaves moves_out moves_in epoch multicast_bytes unicast_bytes\n",
    );
    for (area, c) in g.controllers().enumerate() {
        let t = c.cold().traffic();
        out.push_str(&format!(
            "{area} {} {} {} {} {} {} {} {} {}\n",
            c.live_members(),
            c.joins(),
            c.hot_leaves(),
            c.cold_leaves(),
            c.moves_out(),
            c.moves_in(),
            c.cold().epoch(),
            t.multicast_bytes,
            t.unicast_bytes,
        ));
    }
    out
}

/// Drives one seeded mobility storm under its generated fault plan,
/// audits the quiescent point, and collects the recovery envelope. The
/// plan that ran and the per-area ledger ride along as failure
/// evidence: left under `--dump-dir` at once on a stall or violation,
/// and by the gate when the check fails.
fn run_storm(
    name: &str,
    cfg: ScaleConfig,
    moves: u64,
    episodes: usize,
    horizon_ms: u64,
    dump_dir: Option<&str>,
) -> Rep {
    let floor = reset_peak();
    let t0 = Instant::now();
    let mut g = ScaleGroup::new(cfg);
    g.seed_cold_population();
    let plan = g.mobility_fault_plan(episodes, 42, Duration::from_millis(horizon_ms));
    let outcome = g.run_mobility_storm(moves, &plan);
    let outcome = outcome
        .map_err(|stall| stall.to_string())
        .and_then(|report| {
            let violations = check_scale(&g);
            if violations.is_empty() && report.moves == moves {
                return Ok(report);
            }
            let counts = format!("{} of {moves} moves completed", report.moves);
            Err(format!("{counts}; invariant violations: {violations:#?}"))
        });
    let mut rep = rep(&cfg, &g, t0, floor);
    rep.artifacts = vec![
        (format!("{name}.plan.txt"), plan.serialize()),
        (format!("{name}.ledger.txt"), dump_ledger(&g)),
    ];
    let report = outcome.unwrap_or_else(|why| {
        write_artifacts(dump_dir, &rep.artifacts);
        die(name, why)
    });
    rep.values.extend([
        Value::Int(report.moves),
        Value::Int(report.faults_applied),
        Value::Int(report.crashes),
        Value::Int(report.mean_recovery_micros()),
        Value::Int(report.recovery_percentile_micros(0.50)),
        Value::Int(report.recovery_percentile_micros(0.99)),
        Value::Int(report.degraded_bytes_total()),
    ]);
    rep
}
