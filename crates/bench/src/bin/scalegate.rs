//! Million-member scale gate (ISSUEs 7 and 8).
//!
//! Runs the hybrid hot/cold scenarios under the counting allocator and
//! the scale invariant checker, and reports events/sec, wall time and
//! peak live-heap bytes (a deterministic RSS proxy) as machine-readable
//! JSON:
//!
//! - flash-crowd join + mass-leave (`BENCH_scale.json`), and
//! - with `--mobility`, the mobility-storm scenarios — inter-area
//!   ticket rejoins under a generated chaos fault plan against durable
//!   controllers (`BENCH_mobility.json`), including the per-fault
//!   recovery envelope (mean/p50/p99 recovery micros, degraded-window
//!   bytes).
//!
//! ```text
//! scalegate                  # flash-crowd scenarios, run and print
//! scalegate --mobility       # mobility-storm scenarios instead
//! scalegate --smoke          # smoke scenario only (bounded CI wall time)
//! scalegate --write          # run and (re)write the matching BENCH json
//! scalegate --check <path>   # run and fail (exit 1) on regression
//!           --tolerance 15   #   banded-metric tolerance, percent
//!           --out <path>     #   also dump the fresh JSON (CI artifact)
//!           --dump-dir <dir> #   on failure, write the fault plan and
//!                            #   per-area ledger dump there (CI artifacts)
//! ```
//!
//! Gate semantics mirror `perfgate` (DESIGN.md §10): event counts,
//! rekey bytes, move counts and degraded-window bytes are
//! bit-deterministic and gated exactly; peak heap, calibrated
//! events/sec and the recovery-time percentiles are gated at the
//! tolerance (the ISSUE 8 bar: fail on >15% p99 recovery regression).

use mykil::invariants::check_scale;
use mykil::scale::{MobilityReport, ScaleConfig, ScaleGroup};
use mykil_bench::alloc_track::{peak_bytes, reset_peak, CountingAllocator};
use mykil_bench::{calibrate, CALIBRATION_FIELD};
use mykil_net::{Duration, FaultPlan};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One scenario's measurements. Flash-crowd scenarios leave the
/// mobility block `None`; storm scenarios fill it.
struct Sample {
    name: &'static str,
    members: u64,
    areas: usize,
    events: u64,
    events_per_sec: f64,
    wall_secs: f64,
    peak_heap_bytes: u64,
    rekey_multicast_bytes: u64,
    rekey_unicast_bytes: u64,
    mobility: Option<MobilityBlock>,
}

/// The recovery section of a mobility sample.
struct MobilityBlock {
    moves: u64,
    faults: u64,
    crashes: u64,
    recovery_mean_micros: u64,
    recovery_p50_micros: u64,
    recovery_p99_micros: u64,
    degraded_bytes: u64,
    /// Serialized fault plan + per-area ledger, for failure artifacts.
    plan_text: String,
    ledger_dump: String,
}

/// One mobility-storm scenario's shape.
struct StormSpec {
    name: &'static str,
    cfg: ScaleConfig,
    moves: u64,
    episodes: usize,
    plan_seed: u64,
    horizon_ms: u64,
}

fn smoke_storm() -> StormSpec {
    StormSpec {
        name: "mobility_storm_100k",
        cfg: ScaleConfig {
            members: 100_000,
            areas: 100,
            ..ScaleConfig::mobility_million()
        },
        moves: 10_000,
        episodes: 12,
        plan_seed: 42,
        horizon_ms: 300,
    }
}

/// The ISSUE 8 acceptance scenario: 1M members / 1,000 areas, 100k
/// inter-area moves, 50+ injected faults (crashes, partitions, storage).
fn full_storm() -> StormSpec {
    StormSpec {
        name: "mobility_storm_1m",
        cfg: ScaleConfig::mobility_million(),
        moves: 100_000,
        episodes: 20,
        plan_seed: 42,
        horizon_ms: 2_000,
    }
}

/// Drives one flash-crowd join + mass-leave to completion with the
/// invariant checker auditing both quiescent points; any violation is
/// fatal (the gate must not publish numbers from a broken run).
fn run_scenario(name: &'static str, cfg: ScaleConfig) -> Sample {
    reset_peak();
    let t0 = Instant::now();
    let mut g = ScaleGroup::new(cfg);
    if let Err(stall) = g.run_flash_crowd_join() {
        eprintln!("{name}: {stall}");
        std::process::exit(2);
    }
    let join_violations = check_scale(&g);
    if !join_violations.is_empty() {
        eprintln!("{name}: invariant violations after join: {join_violations:?}");
        std::process::exit(2);
    }
    if g.live_members() != cfg.members {
        eprintln!(
            "{name}: {} members live after join, expected {}",
            g.live_members(),
            cfg.members
        );
        std::process::exit(2);
    }
    if let Err(stall) = g.run_mass_leave() {
        eprintln!("{name}: {stall}");
        std::process::exit(2);
    }
    let leave_violations = check_scale(&g);
    if !leave_violations.is_empty() {
        eprintln!("{name}: invariant violations after leave: {leave_violations:?}");
        std::process::exit(2);
    }
    if g.live_members() != 0 {
        eprintln!("{name}: {} members left behind after mass leave", g.live_members());
        std::process::exit(2);
    }
    let wall = t0.elapsed().as_secs_f64();
    let events = g.sim.events_processed();
    Sample {
        name,
        members: cfg.members,
        areas: cfg.areas,
        events,
        events_per_sec: events as f64 / wall,
        wall_secs: wall,
        peak_heap_bytes: peak_bytes(),
        rekey_multicast_bytes: g.sim.stats().counter("scale-rekey-multicast-bytes"),
        rekey_unicast_bytes: g.sim.stats().counter("scale-rekey-unicast-bytes"),
        mobility: None,
    }
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

fn write_failure_artifacts(dump_dir: Option<&str>, name: &str, plan: &FaultPlan, ledger: &str) {
    let Some(dir) = dump_dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create dump dir {dir}: {e}");
        return;
    }
    for (suffix, body) in [("plan.txt", plan.serialize()), ("ledger.txt", ledger.to_string())] {
        let path = format!("{dir}/{name}.{suffix}");
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote failure artifact {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

/// Drives one seeded mobility storm under its generated fault plan,
/// audits the quiescent point, and collects the recovery envelope. A
/// stall or invariant violation dumps the plan + ledger (when
/// `--dump-dir` is given) and aborts the gate.
fn run_storm(spec: &StormSpec, dump_dir: Option<&str>) -> Sample {
    reset_peak();
    let t0 = Instant::now();
    let mut g = ScaleGroup::new(spec.cfg);
    g.seed_cold_population();
    let plan = g.mobility_fault_plan(
        spec.episodes,
        spec.plan_seed,
        Duration::from_millis(spec.horizon_ms),
    );
    let report: MobilityReport = match g.run_mobility_storm(spec.moves, &plan) {
        Ok(r) => r,
        Err(stall) => {
            eprintln!("{}: {stall}", spec.name);
            write_failure_artifacts(dump_dir, spec.name, &plan, &dump_ledger(&g));
            std::process::exit(2);
        }
    };
    let violations = check_scale(&g);
    if !violations.is_empty() {
        eprintln!("{}: invariant violations after storm:", spec.name);
        for v in &violations {
            eprintln!("  {v}");
        }
        write_failure_artifacts(dump_dir, spec.name, &plan, &dump_ledger(&g));
        std::process::exit(2);
    }
    if report.moves != spec.moves {
        eprintln!(
            "{}: {} moves completed, expected {}",
            spec.name, report.moves, spec.moves
        );
        write_failure_artifacts(dump_dir, spec.name, &plan, &dump_ledger(&g));
        std::process::exit(2);
    }
    let wall = t0.elapsed().as_secs_f64();
    let events = g.sim.events_processed();
    Sample {
        name: spec.name,
        members: spec.cfg.members,
        areas: spec.cfg.areas,
        events,
        events_per_sec: events as f64 / wall,
        wall_secs: wall,
        peak_heap_bytes: peak_bytes(),
        rekey_multicast_bytes: g.sim.stats().counter("scale-rekey-multicast-bytes"),
        rekey_unicast_bytes: g.sim.stats().counter("scale-rekey-unicast-bytes"),
        mobility: Some(MobilityBlock {
            moves: report.moves,
            faults: report.faults_applied,
            crashes: report.crashes,
            recovery_mean_micros: report.mean_recovery_micros(),
            recovery_p50_micros: report.recovery_percentile_micros(0.50),
            recovery_p99_micros: report.recovery_percentile_micros(0.99),
            degraded_bytes: report.degraded_bytes_total(),
            plan_text: plan.serialize(),
            ledger_dump: dump_ledger(&g),
        }),
    }
}

fn render_json(samples: &[Sample], calibration: f64, mobility: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n");
    if mobility {
        out.push_str("  \"description\": \"mobility-storm scale gate; refresh with: cargo run --release -p mykil-bench --bin scalegate -- --mobility --write\",\n");
    } else {
        out.push_str("  \"description\": \"hybrid hot/cold scale gate; refresh with: cargo run --release -p mykil-bench --bin scalegate -- --write\",\n");
    }
    out.push_str(&format!(
        "  \"{CALIBRATION_FIELD}\": {calibration:.1},\n"
    ));
    out.push_str("  \"scenarios\": {\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"members\": {}, \"areas\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \"wall_secs\": {:.3}, \"peak_heap_bytes\": {}, \"rekey_multicast_bytes\": {}, \"rekey_unicast_bytes\": {}",
            s.name,
            s.members,
            s.areas,
            s.events,
            s.events_per_sec,
            s.wall_secs,
            s.peak_heap_bytes,
            s.rekey_multicast_bytes,
            s.rekey_unicast_bytes,
        ));
        if let Some(m) = &s.mobility {
            out.push_str(&format!(
                ", \"moves\": {}, \"faults\": {}, \"crashes\": {}, \"recovery_mean_micros\": {}, \"recovery_p50_micros\": {}, \"recovery_p99_micros\": {}, \"degraded_window_bytes\": {}",
                m.moves,
                m.faults,
                m.crashes,
                m.recovery_mean_micros,
                m.recovery_p50_micros,
                m.recovery_p99_micros,
                m.degraded_bytes,
            ));
        }
        out.push_str(&format!(
            " }}{}\n",
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Extracts `"key": <number>` from `text` scoped to the object that
/// follows `"scope"` (a flat scan is enough for the format we emit).
fn json_num(text: &str, scope: &str, key: &str) -> Option<f64> {
    let start = match scope.is_empty() {
        true => 0,
        false => text.find(&format!("\"{scope}\""))?,
    };
    let scoped = &text[start..];
    let end = scoped.find('}').unwrap_or(scoped.len());
    let scoped = &scoped[..end];
    let kpos = scoped.find(&format!("\"{key}\""))?;
    let after = &scoped[kpos..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let numlen = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..numlen].parse().ok()
}

struct Regression {
    what: String,
    base: f64,
    fresh: f64,
    limit_pct: f64,
}

/// Compares fresh samples against a committed baseline.
fn check(baseline: &str, samples: &[Sample], calibration: f64, tol_pct: f64) -> Vec<Regression> {
    let mut bad = Vec::new();
    let base_calib = json_num(baseline, "", CALIBRATION_FIELD).unwrap_or(calibration);
    for s in samples {
        let Some(base_events) = json_num(baseline, s.name, "events") else {
            bad.push(Regression {
                what: format!("{}: missing from baseline", s.name),
                base: 0.0,
                fresh: 0.0,
                limit_pct: 0.0,
            });
            continue;
        };

        // Event counts, rekey bytes, move counts, fault counts and
        // degraded-window bytes are bit-deterministic for a fixed
        // seed: any drift is a behavior change, not noise.
        if s.events as f64 != base_events {
            bad.push(Regression {
                what: format!("{}: events (deterministic)", s.name),
                base: base_events,
                fresh: s.events as f64,
                limit_pct: 0.0,
            });
        }
        let mut exact: Vec<(&'static str, f64)> = vec![
            ("rekey_multicast_bytes", s.rekey_multicast_bytes as f64),
            ("rekey_unicast_bytes", s.rekey_unicast_bytes as f64),
        ];
        if let Some(m) = &s.mobility {
            exact.push(("moves", m.moves as f64));
            exact.push(("faults", m.faults as f64));
            exact.push(("crashes", m.crashes as f64));
            exact.push(("degraded_window_bytes", m.degraded_bytes as f64));
        }
        for (key, fresh) in exact {
            if let Some(base) = json_num(baseline, s.name, key) {
                if fresh != base {
                    bad.push(Regression {
                        what: format!("{}: {key} (deterministic)", s.name),
                        base,
                        fresh,
                        limit_pct: 0.0,
                    });
                }
            }
        }

        // Peak heap is deterministic up to allocator growth policy;
        // band it at the tolerance. Recovery times are virtual-clock
        // and banded at the same tolerance (the ISSUE 8 bar: fail on
        // >15% p99 recovery-time regression).
        let mut banded: Vec<(&'static str, f64)> =
            vec![("peak_heap_bytes", s.peak_heap_bytes as f64)];
        if let Some(m) = &s.mobility {
            banded.push(("recovery_p99_micros", m.recovery_p99_micros as f64));
            banded.push(("recovery_mean_micros", m.recovery_mean_micros as f64));
        }
        for (key, fresh) in banded {
            if let Some(base) = json_num(baseline, s.name, key) {
                if fresh > base * (1.0 + tol_pct / 100.0) {
                    bad.push(Regression {
                        what: format!("{}: {key}", s.name),
                        base,
                        fresh,
                        limit_pct: tol_pct,
                    });
                }
            }
        }

        // Throughput: normalize by the calibration ratio (the ISSUE 7
        // bar — fail on >15% events/sec regression).
        let base_eps = json_num(baseline, s.name, "events_per_sec").unwrap_or(0.0);
        if base_eps > 0.0 && base_calib > 0.0 && calibration > 0.0 {
            let expected = base_eps * (calibration / base_calib);
            if s.events_per_sec < expected * (1.0 - tol_pct / 100.0) {
                bad.push(Regression {
                    what: format!("{}: events_per_sec (calibrated)", s.name),
                    base: expected,
                    fresh: s.events_per_sec,
                    limit_pct: tol_pct,
                });
            }
        }
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut smoke_only = false;
    let mut mobility = false;
    let mut check_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut dump_dir: Option<String> = None;
    let mut tolerance = 15.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--write" => write = true,
            "--smoke" => smoke_only = true,
            "--mobility" => mobility = true,
            "--check" => check_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            "--dump-dir" => dump_dir = it.next().cloned(),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or(tolerance)
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let calibration = calibrate();
    let samples: Vec<Sample> = if mobility {
        let mut v = vec![run_storm(&smoke_storm(), dump_dir.as_deref())];
        if !smoke_only {
            v.push(run_storm(&full_storm(), dump_dir.as_deref()));
        }
        v
    } else {
        let mut v = vec![run_scenario("flash_crowd_100k", ScaleConfig::smoke_100k())];
        if !smoke_only {
            v.push(run_scenario("flash_crowd_1m", ScaleConfig::paper_million()));
        }
        v
    };

    println!(
        "{:<20} {:>10} {:>12} {:>14} {:>10} {:>14}",
        "scenario", "members", "events", "events/sec", "wall s", "peak heap MB"
    );
    for s in &samples {
        println!(
            "{:<20} {:>10} {:>12} {:>14.0} {:>10.3} {:>14.1}",
            s.name,
            s.members,
            s.events,
            s.events_per_sec,
            s.wall_secs,
            s.peak_heap_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    if samples.iter().any(|s| s.mobility.is_some()) {
        println!();
        println!(
            "{:<20} {:>10} {:>8} {:>8} {:>14} {:>14} {:>16}",
            "recovery", "moves", "faults", "crashes", "mean us", "p99 us", "degraded bytes"
        );
        for s in &samples {
            let Some(m) = &s.mobility else { continue };
            println!(
                "{:<20} {:>10} {:>8} {:>8} {:>14} {:>14} {:>16}",
                s.name,
                m.moves,
                m.faults,
                m.crashes,
                m.recovery_mean_micros,
                m.recovery_p99_micros,
                m.degraded_bytes
            );
        }
    }
    println!("calibration: {calibration:.0} xorshift64 steps/sec");

    let json = render_json(&samples, calibration, mobility);
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if write {
        let target = if mobility {
            "BENCH_mobility.json"
        } else {
            "BENCH_scale.json"
        };
        if let Err(e) = std::fs::write(target, &json) {
            eprintln!("cannot write {target}: {e}");
            std::process::exit(2);
        }
        println!("wrote {target}");
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let bad = check(&baseline, &samples, calibration, tolerance);
        if bad.is_empty() {
            println!("scale gate: PASS (tolerance {tolerance}%)");
        } else {
            println!("scale gate: FAIL");
            for r in &bad {
                println!(
                    "  {} regressed beyond {:.0}%: baseline {:.2}, fresh {:.2}",
                    r.what, r.limit_pct, r.base, r.fresh
                );
            }
            // Leave the evidence behind: the exact plan that was run
            // and the per-area ledger, for artifact upload.
            for s in &samples {
                if let Some(m) = &s.mobility {
                    let plan = FaultPlan::parse(&m.plan_text).unwrap_or_default();
                    write_failure_artifacts(dump_dir.as_deref(), s.name, &plan, &m.ledger_dump);
                }
            }
            std::process::exit(1);
        }
    }
}
