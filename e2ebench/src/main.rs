//! `e2e`: wall-clock cost of the real Mykil protocol — registration
//! server, area controllers and members running real RSA, envelopes,
//! tree plans, wire codecs and WAL appends through the simulator — per
//! join, ticket rejoin, leave rekey and controller recovery.
//!
//! See `README.md` beside this package for the commands, the workloads
//! and how to read the output.

mod json;
mod pass;
mod report;
mod stats;
mod trace;
mod units;
mod workload;

use report::{
    end_to_end_defs, per_layer_defs, run_end_to_end, run_traced, scratch_root, Report, RUN_SECONDS,
};
use std::process::ExitCode;
use workload::{spec_named, Spec, WORKLOADS};

const USAGE: &str = "usage:
  e2e --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
  e2e --all [--seed <n>] [--seconds <n>] [--trace <0|1>]
  e2e --selftest [--seed <n>] [--seconds <n>]
  e2e --manifest
workloads: join_steady, rekey_fanout, mobility_batched, crash_recovery
--trace 0 (default) prints the end-to-end metrics from untraced passes,
--trace 1 the layer sheet from a reference pass and a traced pass.
The last line of standard output is the result as one JSON object.";

enum Mode {
    One(&'static Spec),
    All,
    Selftest,
    Manifest,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (1, RUN_SECONDS, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                mode = Some(Mode::One(
                    spec_named(&name).ok_or(format!("unknown workload {name}"))?,
                ));
            }
            "--all" => mode = Some(Mode::All),
            "--selftest" => mode = Some(Mode::Selftest),
            "--manifest" => mode = Some(Mode::Manifest),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds is a whole number from 1 to 60".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --all, --selftest, --manifest is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload, prints every metric by name and the result line.
fn run_and_print(spec: &'static Spec, args: &Args, trace: bool) -> Report {
    let (report, defs) = if trace {
        let spans = scratch_root().join("e2e-trace");
        (
            run_traced(spec, args.seed, args.seconds, &spans),
            per_layer_defs(),
        )
    } else {
        (
            run_end_to_end(spec, args.seed, args.seconds),
            end_to_end_defs(),
        )
    };
    report.print(&defs);
    if !env!("E2E_RUSTFLAGS").contains("-align-all-functions") {
        println!(
            "  WARNING: built without the alignment flags of e2ebench/cargo-config.toml (is RUSTFLAGS \
             set?): these timings are not comparable with those of a build that has them"
        );
    }
    println!("{}", report.result_line(&defs));
    report
}

/// `--all` twice, untraced whatever `--trace` says (the comparison is
/// of the end-to-end metrics); the two sets must agree within the
/// benchmark's own bounds, and exactly on everything that is a count.
fn selftest(args: &Args) -> bool {
    let defs = end_to_end_defs();
    let mut ok = true;
    let sets: Vec<Vec<Report>> = (0..2)
        .map(|set| {
            println!("== set {set} ==");
            WORKLOADS
                .iter()
                .map(|spec| run_and_print(spec, args, false))
                .collect()
        })
        .collect();
    println!("== comparison ==");
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "diff %", "bound %"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        ok &= a.correct() && b.correct();
        for d in &defs {
            let (x, y) = (a.value(&d.name), b.value(&d.name));
            let diff = (y - x).abs() / x;
            let bound = d.bound.expect("end-to-end metrics have bounds");
            // The allocator keeps what earlier workloads of this process
            // freed, so only a process that runs one workload (as the
            // driver's do) reads that workload's own peak.
            let verdict = if d.name == "peak_rss_mib" {
                "  (not compared: earlier workloads of this process are in it)"
            } else if diff <= bound {
                ""
            } else {
                ok = false;
                "  EXCEEDS"
            };
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>9.2} {:>7.0}{verdict}",
                a.workload,
                d.name,
                x,
                y,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.mode {
        Mode::Manifest => {
            print!("{}", report::manifest().pretty());
            true
        }
        Mode::One(spec) => run_and_print(spec, &args, args.trace).correct(),
        Mode::All => {
            let mut ok = true;
            for spec in &WORKLOADS {
                ok &= run_and_print(spec, &args, args.trace).correct();
            }
            ok
        }
        Mode::Selftest => selftest(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
