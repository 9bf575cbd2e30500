//! Runs a workload and turns what the passes measured into the named
//! metrics: the end-to-end row from untraced passes, the layer sheet
//! from one reference pass plus the traced observer pass.

use crate::json::Json;
use crate::pass::{run_pass, Counts, Lapped, PassOutput, Untraced};
use crate::stats::{fold_lap_min, op_sums, per_op_min, percentile, percentile_or_zero};
use crate::trace::{Parent, RoleTag, StoreLog, StoreOp, Tracer, KINDS};
use crate::units::unit_costs;
use crate::workload::{OpKind, Spec, OUTAGE_MS, WORKLOADS};
use mykil::config::BatchPolicy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Identical measured passes per worker thread, one after the other.
/// The host this was sized on slows down by about 1.7x for a second or
/// two at a time: a quarter of the time when calm, two thirds of the
/// time for minutes on end when not. More passes of fewer ops beat
/// fewer passes of more: only the number of passes decides how often a
/// piece of work is never seen undisturbed.
pub const PASSES: usize = 6;
/// Worker threads, each running [`PASSES`] passes of its own deployment
/// at the same time (fewer on a host with fewer processors): twice the
/// passes in the same wall time.
pub const MAX_WORKERS: usize = 2;
/// `run_seconds` of the manifest, and the default of `--seconds`: the
/// timed part of one worker's passes together.
pub const RUN_SECONDS: u64 = 10;

/// A metric as the manifest declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, the same on every workload.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("ops_per_s", "1/s", "higher", 0.10),
        bounded("op_ms_p50", "ms", "lower", 0.10),
        bounded("op_ms_p90", "ms", "lower", 0.10),
        bounded("wire_bytes_per_op", "B", "lower", 0.01),
        bounded("peak_rss_mib", "MiB", "lower", 0.10),
        bounded("setup_s", "s", "lower", 0.10),
    ]
}

/// The layer sheet's rows, in the order they are printed.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for name in [
        "net.events_per_op",
        "net.msgs_sent_per_op",
        "net.deliveries_per_op",
        "net.retransmits_per_op",
        "core.rekeys_per_op",
        "core.key_refreshes_per_op",
        "store.syncs_per_op",
        "store.checkpoints_per_op",
    ] {
        v.push(def(name, "count", "lower"));
    }
    for name in [
        "core.key_update_bytes_per_op",
        "core.key_unicast_bytes_per_op",
        "core.state_sync_bytes_per_op",
        "core.data_bytes_per_op",
        "core.handshake_bytes_per_op",
        "store.wal_bytes_per_op",
    ] {
        v.push(def(name, "B", "lower"));
    }
    for role in ["rs", "ac", "backup", "member"] {
        v.push(def(&format!("core.{role}_ms_per_op"), "ms", "lower"));
    }
    v.push(def("net.unlabelled_ms_per_op", "ms", "lower"));
    for kind in KINDS.iter().chain(&["other"]) {
        v.push(def(&format!("core.kind_ms_per_op.{kind}"), "ms", "lower"));
    }
    for op in ["append", "sync", "checkpoint", "load"] {
        v.push(def(&format!("store.{op}_ms_per_op"), "ms", "lower"));
    }
    v.push(def("core.recovery_ms_per_op", "ms", "lower"));
    v.push(def("bench.invoke_ms_per_op", "ms", "lower"));
    v.push(def("bench.harness_self_ms_per_op", "ms", "lower"));
    v.push(def("trace.coverage", "ratio", "higher"));
    v.push(def("trace.overhead_ratio", "ratio", "lower"));
    for name in [
        "core.virt_join_ms_p50",
        "core.virt_rejoin_ms_p50",
        "core.virt_rekey_converge_ms_p50",
        "core.virt_rekey_converge_ms_p99",
        "core.virt_recover_ms_p50",
        "core.virt_takeover_ms_p50",
        "core.takeover_wall_ms_p50",
        "crypto.rsa_keygen_ms",
    ] {
        v.push(def(name, "ms", "lower"));
    }
    for name in [
        "crypto.rsa_private_us",
        "crypto.rsa_public_us",
        "crypto.hybrid_encrypt_us",
        "crypto.hybrid_decrypt_us",
        "crypto.envelope_seal_us",
        "crypto.envelope_open_us",
        "crypto.hmac_16b_us",
    ] {
        v.push(def(name, "us", "lower"));
    }
    v.push(def("crypto.sha256_4k_mibs", "MiB/s", "higher"));
    for name in [
        "crypto.rc4_1k_us",
        "tree.plan_leave_us.explicit",
        "tree.plan_join_us.explicit",
        "tree.snapshot_us",
        "tree.restore_us",
        "wire.encode_plan_us",
        "wire.decode_apply_us",
        "tree.plan_leave_us.khf",
        "tree.plan_join_us.khf",
    ] {
        v.push(def(name, "us", "lower"));
    }
    v.push(def("net.dispatch_ns", "ns", "lower"));
    v.push(def("net.timer_ns", "ns", "lower"));
    for name in [
        "store.wal_commit_us.sim",
        "store.wal_commit_us.file",
        "store.checkpoint_us.file",
        "store.load_us.file",
        "durable.replay_ac_us",
    ] {
        v.push(def(name, "us", "lower"));
    }
    v.push(def("host.calib_ms", "ms", "lower"));
    v
}

/// `BENCHMARK.json`, generated from the tables above so the file and
/// the program cannot drift apart.
pub fn manifest() -> Json {
    let row = |d: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), Json::str(&d.name)),
            ("unit".to_string(), Json::str(d.unit)),
            ("better".to_string(), Json::str(d.better)),
        ];
        if let Some(bound) = d.bound {
            fields.push(("bound".to_string(), Json::Num(bound)));
        }
        Json::Obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--config",
        "e2ebench/cargo-config.toml",
        "--manifest-path",
        "e2ebench/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("e2ebench")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end_defs().iter().map(row).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer_defs().iter().map(row).collect()),
        ),
    ])
}

/// Where this process keeps file stores and span files: the directory
/// its executable is in, which under `cargo run` is inside the cargo
/// target directory — in the checkout, and ignored by git.
///
/// # Panics
///
/// Panics when the executable's path cannot be read.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent().expect("an executable is in a directory").to_path_buf()
}

/// A directory of this process's own under [`scratch_root`] for the
/// file-store unit costs, removed when dropped — also when a self-check
/// panics.
pub struct StoreRoot(pub PathBuf);

impl StoreRoot {
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn create() -> StoreRoot {
        let dir = scratch_root().join(format!("e2e-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        StoreRoot(dir)
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the peak the kernel remembers, so each workload of an
/// `--all` run reports its own. Best effort: without it the peak of an
/// earlier workload carries over.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What a run reports: named values plus the verdict.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub values: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Self-check misses; the run is correct when there are none.
    pub problems: Vec<String>,
    /// Lines for the human reader: per-pass totals, sample counts.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// The result line of the driver's contract.
    pub fn result_line(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs
            .iter()
            .map(|d| {
                let metric = Json::obj([
                    ("value", Json::Num(self.value(&d.name))),
                    ("unit", Json::str(d.unit)),
                ]);
                (d.name.clone(), metric)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self, defs: &[MetricDef]) {
        println!("workload {}", self.workload);
        for note in &self.notes {
            println!("  {note}");
        }
        for d in defs {
            let bound = d.bound.map_or(String::new(), |b| {
                format!("  (may worsen by {:.0} %)", b * 100.0)
            });
            println!(
                "  {:<36} {:>14.4} {}{}",
                d.name,
                self.value(&d.name),
                d.unit,
                bound
            );
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn pass_note(k: usize, out: &PassOutput) -> String {
    format!(
        "pass {k}: calib {:.2} ms, set-up {:.3} s, {} ops in {:.3} s",
        ms(out.calib_ns),
        out.setup_ns.iter().sum::<u64>() as f64 / 1e9,
        out.op_ns.len(),
        out.op_ns.iter().sum::<u64>() as f64 / 1e9
    )
}

/// What one worker thread measured: its passes, the per-lap minimum
/// over them, and where each op's laps start.
type Measured = (Vec<PassOutput>, Vec<u32>, Vec<usize>);

/// The end-to-end run: one counting pass, then [`PASSES`] identical
/// lap-timed passes on each worker thread.
pub fn run_end_to_end(spec: &'static Spec, seed: u64, seconds: u64) -> Report {
    reset_peak_rss();
    let ops = spec.ops_for(seconds, PASSES);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS));
    let mut notes = vec![format!(
        "{workers} x {PASSES} passes of {ops} ops, seed {seed}; injected link delay 200 us + 80 ns/B + \
         up to 50 us jitter (LatencyModel::lan), CryptoCost::pentium3"
    )];
    if spec.batch == BatchPolicy::OnDataOrTimer {
        notes.push(
            "rekey_interval is 1 h: rekeys are flushed by data only, the backstop timer never fires \
             (with the 2 s test value it races the flush and a multicast goes undecrypted)"
                .into(),
        );
    }
    let mut counter = Untraced::default();
    let counted = run_pass(spec, seed, ops, &mut counter, false);
    // Read before the workers start: one deployment on one thread is
    // what a user of the protocol holds in memory, and its peak is the
    // same from run to run; with two threads it depends on how their
    // passes happen to overlap.
    let peak_rss = peak_rss_mib();
    let events = counter.advance_events.as_slice();
    let measured: Vec<Measured> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let (mut lap_min, mut op_start) = (Vec::new(), Vec::new());
                    let passes = (0..PASSES)
                        .map(|_| {
                            let mut driver = Lapped::new(events);
                            let out = run_pass(spec, seed, ops, &mut driver, false);
                            fold_lap_min(&mut lap_min, &driver.laps);
                            op_start = driver.op_start;
                            out
                        })
                        .collect();
                    (passes, lap_min, op_start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut lap_min = Vec::new();
    let mut passes = vec![counted];
    let op_start = measured[0].2.clone();
    for (worker_passes, worker_min, _) in measured {
        fold_lap_min(&mut lap_min, &worker_min);
        passes.extend(worker_passes);
    }
    let mut problems: Vec<String> = Vec::new();
    for (k, p) in passes.iter().enumerate() {
        notes.push(pass_note(k, p));
        problems.extend(p.problems.iter().map(|m| format!("pass {k}: {m}")));
        if p.counts != passes[0].counts {
            problems.push(format!("pass {k} counted differently from pass 0"));
        }
    }

    let op_min = op_sums(&lap_min, &op_start);
    let total_ns: u64 = op_min.iter().sum();
    let stages: Vec<&[u64]> = passes.iter().map(|p| p.setup_ns.as_slice()).collect();
    let setup_ns: u64 = per_op_min(&stages).iter().sum();
    let calib: Vec<u64> = passes.iter().map(|p| p.calib_ns).collect();
    let pass_totals: Vec<u64> = passes.iter().map(|p| p.op_ns.iter().sum()).collect();
    let times_min = |ns: &u64| *ns as f64 / total_ns as f64;
    notes.push(format!(
        "pass 0 counts the events (not timed lap by lap); host.calib_ms min {:.2} max {:.2}; \
         percentiles over {} ops, each the sum of its {:.0} per-lap minima; single passes took \
         {:.2} to {:.2} times that sum (all near 1: a calm host)",
        ms(*calib.iter().min().expect("passes ran")),
        ms(*calib.iter().max().expect("passes ran")),
        op_min.len(),
        lap_min.len() as f64 / ops as f64,
        pass_totals.iter().min().map_or(f64::NAN, times_min),
        pass_totals.iter().max().map_or(f64::NAN, times_min)
    ));
    let counts = &passes[0].counts;
    let values = vec![
        (
            "ops_per_s".to_string(),
            ops as f64 / (total_ns as f64 / 1e9),
        ),
        ("op_ms_p50".to_string(), ms(percentile(&op_min, 50.0))),
        ("op_ms_p90".to_string(), ms(percentile(&op_min, 90.0))),
        (
            "wire_bytes_per_op".to_string(),
            counts.bytes_sent() as f64 / ops as f64,
        ),
        ("peak_rss_mib".to_string(), peak_rss),
        ("setup_s".to_string(), setup_ns as f64 / 1e9),
    ];
    Report {
        workload: spec.name,
        values,
        attempted: (ops * passes.len()) as u64,
        failed: passes.iter().map(|p| p.counts.failed_ops).sum(),
        problems,
        notes,
    }
}

/// Virtual milliseconds from `from_us` to the last key delivery to a
/// member within each op, for the ops that had one.
fn key_convergence_us(tracer: &Tracer, offset_us: u64) -> Vec<u64> {
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &tracer.steps {
        if s.role == RoleTag::Member && (s.kind == "key-update" || s.kind == "key-unicast") {
            last.insert(s.op, s.virt_us);
        }
    }
    last.iter()
        .map(|(&op, &at)| at.saturating_sub(tracer.ops[op as usize].virt_us + offset_us))
        .collect()
}

/// The layer sheet of one workload: a reference pass, the traced
/// observer pass over the same ops, and the unit costs.
pub fn run_traced(spec: &'static Spec, seed: u64, seconds: u64, spans_dir: &Path) -> Report {
    let ops = spec.ops_for(seconds, PASSES);
    let mut reference_driver = Untraced::default();
    let reference = run_pass(spec, seed, ops, &mut reference_driver, false);

    let log = StoreLog::new();
    let mut tracer = Tracer::new(log, reference_driver.advance_events);
    let traced = run_pass(spec, seed, ops, &mut tracer, spec.op == OpKind::Recover);

    let mut problems: Vec<String> = Vec::new();
    problems.extend(
        reference
            .problems
            .iter()
            .map(|m| format!("reference pass: {m}")),
    );
    problems.extend(traced.problems.iter().map(|m| format!("traced pass: {m}")));
    if traced.counts != reference.counts {
        problems.push("the traced pass counted differently from the reference pass".into());
    }

    let n = ops as f64;
    let counts: &Counts = &reference.counts;
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));
    put("net.events_per_op", counts.events() as f64 / n);
    put("net.msgs_sent_per_op", counts.msgs_sent() as f64 / n);
    put("net.deliveries_per_op", counts.deliveries() as f64 / n);
    put(
        "net.retransmits_per_op",
        counts.custom("reliable-retransmits") as f64 / n,
    );
    put("core.rekeys_per_op", counts.custom("ac-rekeys") as f64 / n);
    put(
        "core.key_refreshes_per_op",
        counts.custom("member-key-refreshes") as f64 / n,
    );
    put("store.syncs_per_op", counts.syncs as f64 / n);
    put("store.checkpoints_per_op", counts.checkpoints as f64 / n);
    put(
        "core.key_update_bytes_per_op",
        counts.kind("key-update")[1] as f64 / n,
    );
    put(
        "core.key_unicast_bytes_per_op",
        counts.kind("key-unicast")[1] as f64 / n,
    );
    put(
        "core.state_sync_bytes_per_op",
        counts.kind("state-sync")[1] as f64 / n,
    );
    put("core.data_bytes_per_op", counts.kind("data")[1] as f64 / n);
    put(
        "core.handshake_bytes_per_op",
        (counts.kind("join")[1] + counts.kind("rejoin")[1]) as f64 / n,
    );
    let wal_bytes: u64 = tracer
        .store
        .iter()
        .filter(|(_, c)| c.op == StoreOp::Append)
        .map(|(_, c)| c.bytes)
        .sum();
    put("store.wal_bytes_per_op", wal_bytes as f64 / n);

    // Spans. Role rows and kind rows each add up to the step total;
    // steps, invokes and harness self time add up to the op wall.
    let per_op_ms = |ns: u64| ms(ns) / n;
    let span = |start: u64, end: u64| end - start;
    let step_total: u64 = tracer
        .steps
        .iter()
        .map(|s| span(s.start_ns, s.end_ns))
        .sum();
    for role in [
        RoleTag::Rs,
        RoleTag::Ac,
        RoleTag::Backup,
        RoleTag::Member,
        RoleTag::Net,
    ] {
        let ns: u64 = tracer
            .steps
            .iter()
            .filter(|s| s.role == role)
            .map(|s| span(s.start_ns, s.end_ns))
            .sum();
        let name = match role {
            RoleTag::Net => "net.unlabelled_ms_per_op".to_string(),
            role => format!("core.{}_ms_per_op", role.name()),
        };
        put(&name, per_op_ms(ns));
    }
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &tracer.steps {
        let kind = if KINDS.contains(&s.kind) {
            s.kind
        } else {
            "other"
        };
        *by_kind.entry(kind).or_default() += span(s.start_ns, s.end_ns);
    }
    for kind in KINDS.iter().chain(&["other"]) {
        put(
            &format!("core.kind_ms_per_op.{kind}"),
            per_op_ms(by_kind.get(kind).copied().unwrap_or(0)),
        );
    }
    for op in [
        StoreOp::Append,
        StoreOp::Sync,
        StoreOp::Checkpoint,
        StoreOp::Load,
    ] {
        let ns: u64 = tracer
            .store
            .iter()
            .filter(|(parent, c)| {
                c.op == op && matches!(parent, Parent::Step(_) | Parent::Invoke(_))
            })
            .map(|(_, c)| span(c.start_ns, c.end_ns))
            .sum();
        put(&format!("store.{}_ms_per_op", op.name()), per_op_ms(ns));
    }
    // A step in which a node read its stable store back is that node's
    // recovery: load, replay, tree restore and the resync it starts.
    let mut recovery_steps: Vec<usize> = tracer
        .store
        .iter()
        .filter_map(|(parent, c)| match parent {
            Parent::Step(i) if c.op == StoreOp::Load => Some(*i),
            _ => None,
        })
        .collect();
    recovery_steps.dedup();
    let recovery_ns: u64 = recovery_steps
        .iter()
        .map(|&i| span(tracer.steps[i].start_ns, tracer.steps[i].end_ns))
        .sum();
    put("core.recovery_ms_per_op", per_op_ms(recovery_ns));
    let invoke_total: u64 = tracer
        .invokes
        .iter()
        .map(|s| span(s.start_ns, s.end_ns))
        .sum();
    let traced_wall: u64 = traced.op_ns.iter().sum();
    let reference_wall: u64 = reference.op_ns.iter().sum();
    put("bench.invoke_ms_per_op", per_op_ms(invoke_total));
    put(
        "bench.harness_self_ms_per_op",
        per_op_ms(traced_wall.saturating_sub(step_total + invoke_total)),
    );
    let coverage = (step_total + invoke_total) as f64 / traced_wall as f64;
    put("trace.coverage", coverage);
    put(
        "trace.overhead_ratio",
        traced_wall as f64 / reference_wall as f64,
    );
    if coverage < 0.95 {
        problems.push(format!(
            "spans cover {coverage:.3} of the traced op wall time, below 0.95"
        ));
    }

    // Virtual time: exact, the same in every run of a seed.
    let handshake = percentile_or_zero(&counts.handshake_virt_us, 50.0) as f64 / 1e3;
    put(
        "core.virt_join_ms_p50",
        if spec.op == OpKind::Churn {
            handshake
        } else {
            0.0
        },
    );
    put(
        "core.virt_rejoin_ms_p50",
        if spec.op == OpKind::Move {
            handshake
        } else {
            0.0
        },
    );
    let (converge, recover) = match spec.op {
        OpKind::Recover => (Vec::new(), key_convergence_us(&tracer, OUTAGE_MS * 1000)),
        OpKind::Churn | OpKind::Move => (key_convergence_us(&tracer, 0), Vec::new()),
    };
    put(
        "core.virt_rekey_converge_ms_p50",
        percentile_or_zero(&converge, 50.0) as f64 / 1e3,
    );
    put(
        "core.virt_rekey_converge_ms_p99",
        percentile_or_zero(&converge, 99.0) as f64 / 1e3,
    );
    put(
        "core.virt_recover_ms_p50",
        percentile_or_zero(&recover, 50.0) as f64 / 1e3,
    );
    let takeover_virt: Vec<u64> = traced.takeovers.iter().map(|t| t.0).collect();
    let takeover_wall: Vec<u64> = traced.takeovers.iter().map(|t| t.1).collect();
    put(
        "core.virt_takeover_ms_p50",
        percentile_or_zero(&takeover_virt, 50.0) as f64 / 1e3,
    );
    put(
        "core.takeover_wall_ms_p50",
        ms(percentile_or_zero(&takeover_wall, 50.0)),
    );

    let root = StoreRoot::create();
    values.extend(unit_costs(&traced.ac_storage, &root.0));
    values.push((
        "host.calib_ms".to_string(),
        ms(reference.calib_ns.min(traced.calib_ns)),
    ));

    let spans_path = spans_dir.join(format!("{}.spans.jsonl", spec.name));
    let written = std::fs::create_dir_all(spans_dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&spans_path)?);
        tracer.write_spans(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    let mut notes = vec![
        format!("reference {}", pass_note(0, &reference)),
        format!("traced    {}", pass_note(1, &traced)),
        format!(
            "{} step, {} invoke, {} store spans over {ops} ops",
            tracer.steps.len(),
            tracer.invokes.len(),
            tracer.store.len()
        ),
        format!(
            "the store.*.file rows commit to {} and include that device's sync time",
            root.0.display()
        ),
    ];
    match written {
        Ok(()) => notes.push(format!("spans written to {}", spans_path.display())),
        Err(e) => problems.push(format!("writing {}: {e}", spans_path.display())),
    }

    Report {
        workload: spec.name,
        values,
        attempted: 2 * ops as u64,
        failed: reference.counts.failed_ops + traced.counts.failed_ops,
        problems,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest().pretty(),
            "regenerate BENCHMARK.json with `e2e --manifest`"
        );
    }

    #[test]
    fn manifest_stays_within_the_drivers_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let (e2e, layers) = (end_to_end_defs(), per_layer_defs());
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(e2e.iter().chain(&layers).map(|d| d.name.as_str()));
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the charset or length rule"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(e2e.iter().chain(&layers).all(|d| unit_ok(d.unit)));
        // No wall metric ships with a bound above 10 %: one that cannot
        // hold it is reshaped or moved to the layer sheet.
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.10)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }
}
