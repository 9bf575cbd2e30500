//! Chaos soak and fault-recovery scenarios (ISSUE 3).
//!
//! The soak test drives seeded random [`FaultPlan`]s through full
//! replicated deployments — including storage faults (lying fsync,
//! torn tails, checkpoint corruption) — and asserts the global
//! invariants (`mykil::invariants`) at every quiescent point; on a
//! violation it
//! dumps the serialized fault schedule to
//! `$CARGO_TARGET_TMPDIR/chaos-failures/seed-<seed>.txt` so the run
//! replays as a deterministic regression, carries on with the next
//! seed, and fails once at the end naming every seed that failed. The
//! remaining tests are
//! exactly such replays and focused crash-restart scenarios: the
//! split-brain partition/heal schedule, the registration server
//! crashing mid-join, member amnesia across restart, and a restarted
//! primary being epoch-fenced back down to backup.

use mykil::area::Role;
use mykil::config::{BatchPolicy, MykilConfig};
use mykil::group::{GroupBuilder, GroupHandle};
use mykil::invariants::{InvariantChecker, InvariantViolation};
use mykil_crypto::sha256::Sha256;
use mykil_net::{ChaosDriver, ChaosOptions, Duration, FaultPlan, StoreFault, Time};

/// Number of seeds the soak covers by default. The `CHAOS_SEEDS` env
/// var overrides it (CI keeps PR runs small and soaks more seeds
/// nightly).
const SOAK_SEEDS: u64 = 20;

fn soak_seeds() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SOAK_SEEDS)
}

fn dump_failure(seed: u64, plan: &FaultPlan, violations: &[impl std::fmt::Display]) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-failures");
    std::fs::create_dir_all(&dir).expect("create chaos-failures dir");
    let path = dir.join(format!("seed-{seed}.txt"));
    let mut text = format!("# chaos soak failure, seed {seed}\n");
    for v in violations {
        text.push_str(&format!("# violation: {v}\n"));
    }
    text.push_str("# replay: FaultPlan::parse the lines below and drive\n");
    text.push_str("# them through an identical deployment.\n");
    text.push_str(&plan.serialize());
    std::fs::write(&path, &text).expect("write fault-schedule dump");
    path.display().to_string()
}

/// Builds the canonical soak deployment: three replicated areas and
/// four auto-joining members, settled before the faults start.
fn soak_group(seed: u64) -> GroupHandle {
    soak_group_batching(seed, MykilConfig::test().rekey_interval)
}

/// [`soak_group`] with the batch window's backstop timer set: under
/// `OnDataOrTimer` a departure waits, row gone and leaf in place, until
/// data arrives or this much time passes.
fn soak_group_batching(seed: u64, window: Duration) -> GroupHandle {
    let cfg = MykilConfig {
        batch_policy: BatchPolicy::OnDataOrTimer,
        rekey_interval: window,
        ..MykilConfig::test()
    };
    let mut g = GroupBuilder::new(seed)
        .config(cfg)
        .rsa_bits(512)
        .areas(3)
        .replicated(true)
        .build();
    for i in 0..4 {
        g.register_member(i);
    }
    g.settle();
    g
}

/// One soak run, the unit of [`chaos_soak_invariants_hold_across_seeds`]:
/// the canonical deployment with `window` as the batch backstop, seed's
/// random fault plan driven through it with live workload interleaved,
/// then quiescence and the invariants — twice, so the replication
/// baseline of the first check also validates monotonicity — and the
/// timers. `Err` says what broke; the fault schedule is dumped for
/// replay.
fn soak_seed(seed: u64, window: Duration) -> Result<(), String> {
    let mut g = soak_group_batching(seed, window);
    let mut checker = InvariantChecker::new();
    assert_eq!(
        checker.check(&g),
        vec![],
        "seed {seed}: deployment unhealthy before any fault"
    );

    // Controllers and members are all fair game; the registration
    // server stays up (its crash has a dedicated scenario below).
    let mut targets = g.primaries.clone();
    targets.extend(&g.backups);
    targets.extend(&g.members);
    let opts = ChaosOptions {
        targets,
        horizon: Duration::from_secs(12),
        episodes: 8,
        max_knob_per_mille: 250,
        storage_faults: true,
    };
    let plan = FaultPlan::random(seed, &opts);
    let mut driver = ChaosDriver::new(plan);

    // Drive the plan in slices, interleaving live workload so the
    // faults hit joins, rekeys and data traffic — not an idle group.
    let start = g.now();
    for slice in 1..=3u64 {
        driver.run_until(&mut g.sim, start + Duration::from_secs(4 * slice));
        let talker = g.members.iter().copied().find(|&m| !g.sim.is_crashed(m));
        if let Some(m) = talker {
            g.send_data(m, format!("soak-{seed}-{slice}").as_bytes());
        }
        match slice {
            1 => {
                g.register_member(100 + seed);
            }
            2 => {
                if let Some(m) = talker {
                    g.move_member(m, (seed % 3) as usize);
                }
            }
            _ => {}
        }
    }
    assert!(driver.finished(), "seed {seed}: plan not fully injected");

    // The cleanup batch has healed the world; let it quiesce.
    g.run_for(Duration::from_secs(12));
    for pass in 0..2 {
        let violations = checker.check(&g);
        if !violations.is_empty() {
            let path = dump_failure(seed, driver.plan(), &violations);
            let listed: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            return Err(format!(
                "pass {pass}: {} invariant violation(s): {}; fault schedule dumped to {path}",
                violations.len(),
                listed.join("; ")
            ));
        }
        g.run_for(Duration::from_secs(3));
    }

    // Timer hygiene: after a soak full of crashes, restarts and role
    // changes, no node runs a timer kind as two chains.
    let twice = g.sim.duplicate_timers();
    if !twice.is_empty() {
        return Err(format!("(node, timer tag) running as two chains: {twice:?}"));
    }
    Ok(())
}

#[test]
fn chaos_soak_invariants_hold_across_seeds() {
    // Every seed with the builder's 2 s batch window, then seed 1 once
    // more with windows twice as long, so that more of its crashes,
    // takeovers and checkpoints land on a controller with departures
    // queued (the invariants are only defined once a window has
    // closed, so it cannot stay open for good).
    let default_window = MykilConfig::test().rekey_interval;
    let inputs = (1..=soak_seeds())
        .map(|seed| (seed, default_window))
        .chain([(1, default_window.saturating_mul(2))]);
    // A failing seed is reported and dumped, and the soak carries on:
    // the nightly run wants the whole list, not the first entry.
    let mut failed: Vec<String> = Vec::new();
    for (seed, window) in inputs {
        let label = if window == default_window {
            seed.to_string()
        } else {
            format!("{seed} (double window)")
        };
        if let Err(why) = soak_seed(seed, window) {
            eprintln!("seed {label} {why}");
            failed.push(label);
        }
    }
    assert!(
        failed.is_empty(),
        "{} soak run(s) failed, seeds: {} (each reported above)",
        failed.len(),
        failed.join(", ")
    );
}

/// A soak seed past the default gate, run as its own regression.
fn assert_soak_seed_passes(seed: u64) {
    if let Err(why) = soak_seed(seed, MykilConfig::test().rekey_interval) {
        panic!("seed {seed} {why}");
    }
}

// The nightly soak's split brains. Each plan lets a lying disk rewind a
// controller of a pair across a takeover, and both nodes came back
// believing they ran the area: the fence reached only one of them, or
// neither heard the other. Under one fencing rule for the pair, each
// ends with one primary per area and every invariant whole.

#[test]
fn soak_seed_23_keeps_one_primary() {
    assert_soak_seed_passes(23);
}

#[test]
fn soak_seed_74_keeps_one_primary() {
    assert_soak_seed_passes(74);
}

#[test]
fn soak_seed_110_keeps_one_primary() {
    assert_soak_seed_passes(110);
}

#[test]
fn soak_seed_137_keeps_one_primary() {
    assert_soak_seed_passes(137);
}

#[test]
fn soak_seed_165_keeps_one_primary() {
    assert_soak_seed_passes(165);
}

// A beacon moved a member's epoch before any key for it arrived, and its
// refresh was lost: nothing asked again (`KeyDivergence`).
#[test]
fn soak_seed_668_owes_a_refresh_until_a_path_arrives() {
    assert_soak_seed_passes(668);
}

// A recovered backup appended behind the torn frame its fold stopped at,
// so the next recovery lost every record after the tear.
#[test]
fn soak_seed_703_checkpoints_a_recovered_backup() {
    assert_soak_seed_passes(703);
}

// Two recoveries of one primary started from one durable base (the
// first one's checkpoint lost to a torn write) and shipped different
// areas at one replication sequence; the backup dropped the second as
// stale while its delivery counted as in sync (`ReplicaDivergence`).
#[test]
fn soak_seed_212_reimages_a_backup_past_a_repeated_fence() {
    assert_soak_seed_passes(212);
}

/// Invariant 5 replays a controller's storage over the state recovery
/// starts from, its deployed one, not a lone primary of an empty area.
/// A lone corrupted checkpoint, with no crash after it, sends the
/// replay to the older slot or to that base. It reads as drift only in
/// what the lost checkpoint alone held (a backup's adopted image and its
/// position, deployment-time enrolments), never in the role, epochs,
/// parent link or members; and a crash and restart after it leave
/// every invariant whole.
#[test]
fn a_lone_corrupt_checkpoint_drifts_only_in_what_it_alone_held() {
    let deployed = soak_group(703);
    let nodes = deployed.primaries.iter().chain(&deployed.backups);
    for &node in nodes {
        let mut g = soak_group(703);
        g.sim.inject_storage_fault(node, StoreFault::CorruptCheckpoint);
        for v in InvariantChecker::new().check(&g) {
            let InvariantViolation::DurabilityDrift { detail, .. } = &v else {
                panic!("{node:?} before a crash: {v}");
            };
            let held = ["durable area image", "durable position"];
            assert!(held.iter().any(|d| detail.starts_with(d)), "{node:?} before a crash: {v}");
        }
        g.sim.crash(node);
        assert!(g.sim.restart(node));
        g.run_for(Duration::from_secs(5));
        assert_eq!(InvariantChecker::new().check(&g), vec![], "{node:?} after a restart");
    }
}

/// Replay regression: the partition/heal schedule that forces a
/// split brain. Area 1's primary (node 2 in the canonical layout) is
/// isolated long enough for its backup to take over; after the heal
/// the stale primary's heartbeat reaches the promoted backup, whose
/// higher takeover epoch demotes it — one primary survives.
#[test]
fn split_brain_heal_replays_from_dumped_schedule() {
    const SCHEDULE: &str = "\
# seed-format replay: isolate area 1's primary, then heal.
6000000 partition 2 1
11000000 heal
";
    let plan = FaultPlan::parse(SCHEDULE).expect("schedule parses");
    // The dump format round-trips: replaying a re-serialized schedule
    // is the same schedule.
    assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);

    let mut g = soak_group(7);
    assert_eq!(g.primaries[1].index(), 2, "canonical node layout drifted");
    let mut checker = InvariantChecker::new();
    let mut driver = ChaosDriver::new(plan);
    driver.run_until(&mut g.sim, Time::from_secs(14));
    g.run_for(Duration::from_secs(4));

    // The backup won the epoch race and the stale primary stood down.
    assert_eq!(g.backup(1).role(), Role::Primary);
    assert_eq!(
        g.ac(1).role(),
        Role::Backup,
        "stale primary was never demoted"
    );
    assert!(g.stats().counter("ac-takeovers") >= 1);
    assert!(g.stats().counter("ac-demotions") >= 1);
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after split-brain reconciliation"
    );
}

/// Replay regression: seed 49's role flap, shrunk by hand. Area 0's
/// backup (node 4) takes over at 6.4 s, is fenced back at 7.25 s and
/// takes over again at 7.65 s, while its first stint's 2 s `Rekey`
/// firing is still queued: arming the role must not start a second
/// chain.
#[test]
fn role_flap_runs_each_timer_kind_once() {
    const SCHEDULE: &str = "\
# seed 49, shrunk: the area-0 pair changes hands three times.
6000000 partition 4 1
6500000 heal
6700000 partition 1 1
7200000 heal
7300000 partition 4 1
7900000 heal
";
    let plan = FaultPlan::parse(SCHEDULE).expect("schedule parses");
    let mut g = soak_group(49);
    assert_eq!(g.backups[0].index(), 4, "canonical node layout drifted");
    let mut driver = ChaosDriver::new(plan);
    driver.run_until(&mut g.sim, Time::from_secs(10));
    g.run_for(Duration::from_secs(4));

    // The flap happened: node 4 ends primary, node 1 its backup.
    assert!(g.stats().counter("ac-takeovers") >= 3);
    assert_eq!(g.backup(0).role(), Role::Primary);
    assert_eq!(g.ac(0).role(), Role::Backup);
    assert_eq!(g.sim.duplicate_timers(), vec![]);
    assert_eq!(InvariantChecker::new().check(&g), vec![]);
}

/// The registration server crashes while a member's join is in
/// flight; the member keeps retrying and completes the join once the
/// server restarts (losing its in-memory pending handshakes is fine —
/// the protocol restarts them).
#[test]
fn rs_crash_mid_join_recovers_after_restart() {
    let mut g = GroupBuilder::new(51).rsa_bits(512).areas(2).build();
    g.sim.crash(g.rs());
    let m = g.register_member(0);
    g.run_for(Duration::from_secs(4));
    assert!(!g.is_member(m), "joined through a crashed RS");
    assert!(
        g.stats().counter("member-handshake-retries") >= 1,
        "member gave up instead of retrying the registration"
    );

    assert!(g.sim.restart(g.rs()));
    g.run_for(Duration::from_secs(6));
    assert_eq!(g.stats().counter("rs-restarts"), 1);
    assert!(g.is_member(m), "join never completed after the RS restart");
    let area = g.member(m).area().expect("active member has an area").0 as usize;
    assert_eq!(g.member(m).current_area_key(), Some(g.ac(area).area_key()));
}

/// Crash-restart amnesia: a crashed member is evicted (with a
/// forward-secrecy rekey); on restart it discards its stale session
/// and rejoins, converging on the *new* area key.
#[test]
fn crashed_member_is_evicted_and_rejoins_after_restart() {
    let mut g = GroupBuilder::new(52).rsa_bits(512).areas(2).build();
    let m = g.register_member(0);
    let witness = g.register_member(1);
    g.settle();
    assert!(g.is_member(m) && g.is_member(witness));
    let area = g.member(m).area().unwrap().0 as usize;
    let client = g.member(m).client_id().unwrap();
    let key_before = g.ac(area).area_key();

    g.sim.crash(m);
    g.run_for(Duration::from_secs(4));
    assert!(
        !g.ac(area).has_member(client),
        "silent member was never evicted"
    );
    assert_ne!(
        g.ac(area).area_key(),
        key_before,
        "eviction did not rotate the area key (forward secrecy)"
    );

    assert!(g.sim.restart(m));
    g.run_for(Duration::from_secs(8));
    assert_eq!(g.stats().counter("member-restarts"), 1);
    assert!(g.is_member(m), "member never rejoined after restart");
    let area_now = g.member(m).area().unwrap().0 as usize;
    assert_eq!(
        g.member(m).current_area_key(),
        Some(g.ac(area_now).area_key()),
        "rejoined member holds a stale key"
    );
    // The witness saw the eviction rekey too and stayed converged.
    let w_area = g.member(witness).area().unwrap().0 as usize;
    assert_eq!(
        g.member(witness).current_area_key(),
        Some(g.ac(w_area).area_key())
    );
}

/// A crashed-then-restarted primary wakes up believing it still runs
/// the area; the promoted backup's higher takeover epoch demotes it
/// to backup — no dueling primaries, replication resumes toward the
/// new primary.
#[test]
fn restarted_primary_is_demoted_to_backup() {
    let mut g = GroupBuilder::new(53)
        .rsa_bits(512)
        .areas(2)
        .replicated(true)
        .build();
    let members: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    g.crash_ac(1);
    g.run_for(Duration::from_secs(3));
    assert_eq!(g.backup(1).role(), Role::Primary);

    assert!(g.sim.restart(g.primaries[1]));
    g.run_for(Duration::from_secs(5));
    assert!(g.stats().counter("ac-restarts") >= 1);
    assert!(g.stats().counter("ac-demotions") >= 1);
    assert_eq!(
        g.ac(1).role(),
        Role::Backup,
        "restarted primary still thinks it runs the area"
    );
    assert_eq!(g.backup(1).role(), Role::Primary);
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after the restart/demotion cycle"
    );
    for m in members {
        assert!(g.is_member(m));
    }
}

/// One seeded chaos run with live workload interleaved, as the soak
/// drives it: the serialized fault schedule and the full
/// delivery/drop/timer trace, one `Debug` line per event.
fn replay_run(seed: u64) -> (String, String) {
    let mut g = soak_group(seed);
    g.sim.enable_trace(200_000);
    let mut targets = g.primaries.clone();
    targets.extend(&g.backups);
    targets.extend(&g.members);
    let opts = ChaosOptions {
        targets,
        horizon: Duration::from_secs(8),
        episodes: 6,
        max_knob_per_mille: 250,
        storage_faults: true,
    };
    let plan = FaultPlan::random(seed, &opts);
    let schedule = plan.serialize();
    let mut driver = ChaosDriver::new(plan);

    // Interleave workload exactly like the soak so the trace covers
    // joins, moves and data traffic, not an idle group.
    let start = g.now();
    for slice in 1..=2u64 {
        driver.run_until(&mut g.sim, start + Duration::from_secs(4 * slice));
        let talker = g.members.iter().copied().find(|&m| !g.sim.is_crashed(m));
        if let Some(m) = talker {
            g.send_data(m, format!("replay-{seed}-{slice}").as_bytes());
        }
        if slice == 1 {
            g.register_member(100 + seed);
        }
    }
    g.run_for(Duration::from_secs(10));

    let mut trace = String::new();
    for e in g.sim.trace_events() {
        trace.push_str(&format!("{e:?}\n"));
    }
    (schedule, trace)
}

/// The first line where two traces differ, with both versions of it
/// (`<ended>` for the shorter trace's missing line).
fn first_divergence<'a>(a: &'a str, b: &'a str) -> (usize, &'a str, &'a str) {
    let (mut a_lines, mut b_lines) = (a.lines(), b.lines());
    let mut at = 0;
    loop {
        match (a_lines.next(), b_lines.next()) {
            (Some(x), Some(y)) if x == y => at += 1,
            (x, y) => return (at, x.unwrap_or("<ended>"), y.unwrap_or("<ended>")),
        }
    }
}

/// Regression for the HashMap→BTreeMap determinism migration (hash
/// collections are `clippy::disallowed_types` in core, net and tree):
/// a seeded chaos soak must replay **byte-identically**. Two
/// independent deployments built from the same seed, driven through
/// the same random fault plan with live workload interleaved, must
/// produce the same fault schedule and the same delivery/drop/timer
/// trace, byte for byte. Before the migration this held only
/// probabilistically — any hash-ordered iteration feeding the
/// schedule (multicast fan-out, membership sweeps) could reorder
/// same-timestamp events between runs.
#[test]
fn chaos_soak_replay_is_byte_identical() {
    for seed in [3u64, 11] {
        let (schedule_a, trace_a) = replay_run(seed);
        let (schedule_b, trace_b) = replay_run(seed);
        assert_eq!(schedule_a, schedule_b, "seed {seed}: fault plans diverged");
        assert!(
            trace_a.lines().count() > 100,
            "seed {seed}: trace too thin to be a meaningful replay check"
        );
        if trace_a != trace_b {
            let (at, line_a, line_b) = first_divergence(&trace_a, &trace_b);
            panic!(
                "seed {seed}: replay diverged at trace line {at}:\n  A: {line_a}\n  B: {line_b}\n\
                 ({} vs {} events)",
                trace_a.lines().count(),
                trace_b.lines().count(),
            );
        }
    }
}

/// `(seed, trace lines, SHA-256 of schedule then trace)` of
/// [`replay_run`]. The event queue pops in `(time, insertion)` order
/// whatever its structure, so a change to the scheduler alone must
/// leave these exact; any other move is a change to the protocol's
/// observable behaviour and needs a reason.
const REPLAY_DIGESTS: [(u64, usize, &str); 2] = [
    (
        3,
        6_879,
        "b7eaad361fb1a1a52e7b11b46b36526a3cddad2897cbeaeebc45089b938a1bbc",
    ),
    (
        11,
        6_894,
        "fb6deb0555d12e9bac92c3658b2ceeaa6d04655861843de50b381f4ae3fbe4ef",
    ),
];

/// Protocol-level golden: the seeded chaos replays of
/// [`chaos_soak_replay_is_byte_identical`] hash to the recorded
/// digests. A matching run leaves its schedule and trace in
/// `$CARGO_TARGET_TMPDIR/chaos-golden/seed-<n>.txt`; a run that moved
/// writes `seed-<n>.moved.txt` beside it and names the first divergent
/// line against the matching dump, when this target directory has one
/// (run the test once before the change that moves it).
#[test]
fn chaos_replay_matches_the_recorded_digests() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-golden");
    std::fs::create_dir_all(&dir).expect("create chaos-golden dir");
    let mut failed = Vec::new();
    for (seed, lines, want) in REPLAY_DIGESTS {
        let (schedule, trace) = replay_run(seed);
        let dump = schedule + &trace;
        let got: String = Sha256::digest(dump.as_bytes())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let got_lines = trace.lines().count();
        let matching = dir.join(format!("seed-{seed}.txt"));
        if (got_lines, got.as_str()) == (lines, want) {
            std::fs::write(&matching, &dump).expect("write replay dump");
            continue;
        }
        let moved = dir.join(format!("seed-{seed}.moved.txt"));
        std::fs::write(&moved, &dump).expect("write replay dump");
        let divergence = match std::fs::read_to_string(&matching) {
            Ok(recorded) => {
                let (at, was, now) = first_divergence(&recorded, &dump);
                format!("first divergent line {at}:\n  recorded: {was}\n  now:      {now}")
            }
            Err(_) => format!(
                "no matching dump at {} to compare against",
                matching.display()
            ),
        };
        eprintln!(
            "seed {seed}: {got_lines} trace lines hash to {got}, recorded {lines} lines \
             hashing to {want}; dumped to {}; {divergence}",
            moved.display()
        );
        failed.push(seed);
    }
    assert!(
        failed.is_empty(),
        "replay digests moved for seeds {failed:?}"
    );
}
