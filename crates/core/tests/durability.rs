//! Crash-durability regression tests (ISSUE 4): controllers and the
//! registration server persist their authoritative state through a
//! write-ahead log plus checkpoints, and a crash wipes everything
//! volatile. These scenarios pin down recovery composed with backup
//! takeover and with injected storage faults: a primary that recovers
//! before its backup promotes resumes its role from stable storage;
//! one that recovers after promotion is epoch-fenced back down; a torn
//! WAL tail falls back to the last checkpoint and the orphaned member
//! re-syncs via its ticket; a corrupted checkpoint falls back to the
//! older ping-pong slot.
//!
//! Every scenario runs twice — once against the simulated
//! [`SimStore`](mykil_net::SimStore) device and once against a real
//! file-backed [`FileStore`](mykil_net::FileStore) in a scratch
//! directory, wrapped in [`FaultyStore`](mykil_net::FaultyStore) so the
//! same fault injection applies (the `*_file_backed` variants). The
//! recovery outcome must be identical: the durable-state contract does
//! not depend on the backend.

use mykil::area::Role;
use mykil::group::GroupBuilder;
use mykil::invariants::InvariantChecker;
use mykil_net::{Duration, FaultyStore, FileStore, NodeId, StableStore};

/// Routes a deployment's stable storage to per-node `FileStore`
/// directories under a fresh scratch root, wrapped in `FaultyStore` so
/// `arm_lying_sync`/`corrupt_latest_checkpoint` keep working.
fn file_backed(b: GroupBuilder, tag: &'static str) -> GroupBuilder {
    let root = mykil_net::scratch_dir(tag);
    b.storage_factory(move |n: NodeId| {
        let dir = root.join(format!("node{}", n.index()));
        Box::new(FaultyStore::new(
            FileStore::open(&dir).expect("open file-backed store"),
        )) as Box<dyn StableStore>
    })
}

/// A primary that crashes and restarts before the backup's watchdog
/// fires reconstructs its membership, tree and replication state from
/// stable storage — no takeover, no member churn.
fn primary_recovers_before_promotion(file: bool) {
    let mut b = GroupBuilder::new(61).rsa_bits(512).areas(2).replicated(true);
    if file {
        b = file_backed(b, "durability-recover-pre-promotion");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let area = 1usize;
    let node = g.primaries[area];
    let members_before = g.ac(area).durable().member_ids();

    // Crash and restart within the same instant: the backup's
    // heartbeat watchdog never fires, so recovery must come entirely
    // from the node's own WAL + checkpoint.
    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.settle();

    assert_eq!(g.stats().counter("ac-recoveries"), 1);
    assert_eq!(
        g.stats().counter("ac-takeovers"),
        0,
        "backup promoted despite the instant restart"
    );
    assert_eq!(g.ac(area).role(), Role::Primary);
    assert_eq!(
        g.ac(area).durable().member_ids(),
        members_before,
        "recovery lost the durable membership"
    );
    for &m in &members {
        assert!(g.is_member(m), "member session died with the AC restart");
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after in-place recovery"
    );
}

#[test]
fn primary_recovers_from_storage_before_backup_promotion() {
    primary_recovers_before_promotion(false);
}

#[test]
fn primary_recovers_from_storage_before_backup_promotion_file_backed() {
    primary_recovers_before_promotion(true);
}

/// A primary that recovers *after* its backup promoted wakes up with a
/// durable `Primary` role — and must still lose the epoch fence: the
/// promoted backup's higher takeover epoch demotes it, and the
/// demotion itself is made durable (checked by the durability
/// invariant at the end).
fn recovered_primary_is_fenced_down(file: bool) {
    let mut b = GroupBuilder::new(62).rsa_bits(512).areas(2).replicated(true);
    if file {
        b = file_backed(b, "durability-fenced-down");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    g.crash_ac(1);
    g.run_for(Duration::from_secs(3));
    assert_eq!(g.backup(1).role(), Role::Primary, "backup never took over");

    assert!(g.sim.restart(g.primaries[1]));
    g.run_for(Duration::from_secs(5));

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert!(g.stats().counter("ac-demotions") >= 1);
    assert_eq!(
        g.ac(1).role(),
        Role::Backup { primary: g.backups[1] },
        "recovered primary's durable role beat the epoch fence"
    );
    assert_eq!(g.backup(1).role(), Role::Primary);
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after recovery + demotion"
    );
    for m in members {
        assert!(g.is_member(m));
    }
}

#[test]
fn recovered_primary_after_promotion_is_fenced_down() {
    recovered_primary_is_fenced_down(false);
}

#[test]
fn recovered_primary_after_promotion_is_fenced_down_file_backed() {
    recovered_primary_is_fenced_down(true);
}

/// A lying fsync leaves a torn record at the WAL tail: the admission
/// committed there is genuinely lost, recovery falls back to the last
/// checkpoint plus the valid WAL prefix, and the orphaned member —
/// admitted by the pre-crash primary but unknown to the recovered one
/// — re-enters through its durable ticket.
fn torn_wal_tail_recovery(file: bool) {
    let mut b = GroupBuilder::new(63).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-torn-tail");
    }
    let mut g = b.build();
    let old_timers: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let node = g.primaries[0];
    g.sim.storage_mut(node).arm_lying_sync(true);
    let newcomer = g.register_member(9);
    g.run_for(Duration::from_secs(2));
    assert!(g.is_member(newcomer), "join did not complete pre-crash");

    g.sim.crash(node);
    assert!(g.sim.restart(node));
    assert_eq!(g.stats().counter("storage-torn-write"), 1);
    g.run_for(Duration::from_secs(10));

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert_eq!(g.ac(0).role(), Role::Primary);
    // The newcomer's admission died with the torn tail; its disconnect
    // detector noticed the dead session and the ticket rejoin restored
    // membership without a fresh registration.
    assert!(
        g.is_member(newcomer),
        "orphaned member never re-entered the group"
    );
    for m in old_timers {
        assert!(g.is_member(m));
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after torn-tail recovery"
    );
}

#[test]
fn torn_wal_tail_falls_back_to_checkpoint_and_member_resyncs() {
    torn_wal_tail_recovery(false);
}

#[test]
fn torn_wal_tail_falls_back_to_checkpoint_and_member_resyncs_file_backed() {
    torn_wal_tail_recovery(true);
}

/// Bit-rot in the newest checkpoint slot: recovery must fall back to
/// the older ping-pong slot and replay the longer WAL suffix, landing
/// on the same membership.
fn corrupt_checkpoint_fallback(file: bool) {
    let mut b = GroupBuilder::new(64).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-ckpt-fallback");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    // A rekey is no longer a checkpoint: so far only the start-up one
    // exists. A clean crash/restart cycle writes the second — recovery
    // compacts the log it replayed — and the WAL keeps the records past
    // the first.
    let node = g.primaries[0];
    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.settle();
    assert_eq!(checker.check(&g), vec![]);

    let members_before = g.ac(0).durable().member_ids();
    assert!(
        g.sim.storage(node).checkpoint_count() >= 2,
        "scenario needs both ping-pong slots populated"
    );
    g.sim.storage_mut(node).corrupt_latest_checkpoint();
    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.settle();

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert_eq!(
        g.stats().counter("ac-recovery-bad-checkpoint"),
        0,
        "fallback slot failed to parse"
    );
    assert_eq!(g.ac(0).role(), Role::Primary);
    assert_eq!(
        g.ac(0).durable().member_ids(),
        members_before,
        "older-slot recovery lost members"
    );
    for m in members {
        assert!(g.is_member(m));
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after checkpoint-corruption recovery"
    );
}

#[test]
fn corrupt_checkpoint_falls_back_to_older_slot() {
    corrupt_checkpoint_fallback(false);
}

#[test]
fn corrupt_checkpoint_falls_back_to_older_slot_file_backed() {
    corrupt_checkpoint_fallback(true);
}

/// Regression — a backup that lost state is told. Records only make
/// sense on top of the sequence they follow, so a backup that restarts
/// inside the fail-over threshold from less than it had acknowledged —
/// its older checkpoint slot, which predates the image it attached
/// with, or a log whose tail a lying disk dropped — would otherwise sit
/// behind a gap forever. Its `HeartbeatAck` reports what it holds; the
/// primary answers less than it has trimmed with one full image, and
/// records flow again.
fn backup_that_lost_state_gets_one_image(lying_disk: bool) {
    let mut g = GroupBuilder::new(66).rsa_bits(512).areas(1).replicated(true).build();
    let first = g.register_member(1);
    g.settle();
    let backup = g.backups[0];
    if lying_disk {
        g.sim.storage_mut(backup).arm_lying_sync(false);
    }
    let second = g.register_member(2);
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(g.stats().counter("state-sync-images"), 1, "only the attach sent an image");
    let applied = g.backup(0).durable().member_ids();

    if !lying_disk {
        // (Behind a lying disk, storage already lags memory: that is
        // the fault, and what the durability invariant would report.)
        assert_eq!(checker.check(&g), vec![]);
        g.sim.storage_mut(backup).corrupt_latest_checkpoint();
    }
    g.sim.crash(backup);
    assert!(g.sim.restart(backup));
    g.run_for(Duration::from_secs(1));
    assert_eq!(g.backup(0).role(), Role::Backup { primary: g.primaries[0] });
    assert_eq!(g.stats().counter("ac-backup-lost-state"), 1);
    assert_eq!(g.stats().counter("state-sync-images"), 2, "the lost state was not re-imaged");
    assert_eq!(g.backup(0).durable().member_ids(), applied);
    assert_eq!(checker.check(&g), vec![]);

    // One membership change later: records only.
    let records = g.stats().counter("state-sync-records");
    let third = g.register_member(3);
    g.settle();
    assert!([first, second, third].iter().all(|&m| g.is_member(m)));
    assert_eq!(g.stats().counter("state-sync-images"), 2, "a record was sent as an image");
    assert!(g.stats().counter("state-sync-records") > records);
    assert_eq!(g.stats().counter("backup-sync-gap"), 0);
    assert_eq!(checker.check(&g), vec![], "replica diverged after the re-image");
}

#[test]
fn backup_rolled_back_one_checkpoint_slot_gets_one_image() {
    backup_that_lost_state_gets_one_image(false);
}

#[test]
fn backup_behind_a_lying_disk_gets_one_image() {
    backup_that_lost_state_gets_one_image(true);
}

/// The registration server's client-id counter is burned to the WAL
/// before any reply leaves the node: a crash/restart cycle can drop
/// in-flight handshakes but must never reissue an id.
fn rs_recovery_id_monotonic(file: bool) {
    let mut b = GroupBuilder::new(66).rsa_bits(512).areas(2);
    if file {
        b = file_backed(b, "durability-rs-ids");
    }
    let mut g = b.build();
    let first = g.register_member(0);
    g.settle();
    assert!(g.is_member(first));
    let first_id = g.member(first).client_id().expect("active member has an id");
    let next_before = g.registration_server().next_client();

    g.sim.crash(g.rs());
    assert!(g.sim.restart(g.rs()));
    g.run_for(Duration::from_secs(2));
    assert_eq!(g.stats().counter("rs-recoveries"), 1);
    assert!(
        g.registration_server().next_client() >= next_before,
        "client-id counter regressed across the RS restart"
    );

    let second = g.register_member(1);
    g.run_for(Duration::from_secs(6));
    assert!(g.is_member(second), "join never completed after RS recovery");
    assert_ne!(
        g.member(second).client_id().expect("active member has an id"),
        first_id,
        "recovered RS reissued a client id"
    );
}

#[test]
fn rs_recovery_never_reissues_client_ids() {
    rs_recovery_id_monotonic(false);
}

#[test]
fn rs_recovery_never_reissues_client_ids_file_backed() {
    rs_recovery_id_monotonic(true);
}
