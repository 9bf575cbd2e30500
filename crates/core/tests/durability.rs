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
//! Every scenario runs twice — once on the in-memory
//! [`SimStore`](mykil_net::SimStore) backend and once on a real
//! [`FileStore`](mykil_net::FileStore) in a scratch directory (the
//! `*_file_backed` variants); the simulator puts either behind the same
//! fault engine. The recovery outcome must be identical: the
//! durable-state contract does not depend on the backend.

use mykil::area::Role;
use mykil::group::GroupBuilder;
use mykil::invariants::InvariantChecker;
use mykil_net::{Duration, FileStore, NodeId, StableStore, StoreFault};

/// Routes a deployment's stable storage to per-node `FileStore`
/// directories under a fresh scratch root.
fn file_backed(b: GroupBuilder, tag: &'static str) -> GroupBuilder {
    let root = mykil_net::scratch_dir(tag);
    b.storage_factory(move |n: NodeId| {
        let dir = root.join(format!("node{}", n.index()));
        Box::new(FileStore::open(&dir).expect("open file-backed store")) as Box<dyn StableStore>
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
    g.sim.storage_mut(node).inject(StoreFault::TornWrite);
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
    g.sim.storage_mut(node).inject(StoreFault::CorruptCheckpoint);
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
        g.sim.storage_mut(backup).inject(StoreFault::LostTail);
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
        g.sim.storage_mut(backup).inject(StoreFault::CorruptCheckpoint);
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

/// `wal-short-read` across an AC primary's crash and restart: recovery
/// reads the log's last record back at half its length, the decoder
/// refuses the stub and the fold stops in front of it. What that record
/// carried is re-established the way a cut-short log always is — the
/// recovered primary re-issues every path and re-images its backup —
/// and the members converge.
fn ac_recovers_through_a_short_read(file: bool) {
    let mut b = GroupBuilder::new(71).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-ac-short-read");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let node = g.primaries[0];
    g.sim.storage_mut(node).inject(StoreFault::ShortRead);
    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.run_for(Duration::from_secs(1));
    assert_eq!(g.stats().counter("ac-recoveries"), 1);
    assert_eq!(
        g.stats().counter("ac-recovery-bad-wal-record"),
        1,
        "the half record was not refused"
    );
    // The read path comes back; nothing it hid is needed any more,
    // recovery compacted the log it could read.
    g.sim.storage_mut(node).heal();
    g.run_for(Duration::from_secs(10));

    assert_eq!(g.ac(0).role(), Role::Primary);
    for m in members {
        assert!(g.is_member(m), "member did not converge after the short read");
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after short-read recovery"
    );
}

#[test]
fn ac_short_read_stops_the_fold_and_members_converge() {
    ac_recovers_through_a_short_read(false);
}

#[test]
fn ac_short_read_stops_the_fold_and_members_converge_file_backed() {
    ac_recovers_through_a_short_read(true);
}

/// `wal-append-fail` while a member joins an AC: the device
/// acknowledges the admission record and never performs the write, so
/// after a crash the admission is lost exactly like a lost tail — the
/// recovered primary does not know the newcomer, whose disconnect
/// detector notices and whose ticket brings it back in.
///
/// The device is healed before the restart. Left failing *across* it,
/// the recovered primary would re-admit the newcomer into memory and
/// again write nothing, and the durability invariant reports
/// `DurabilityDrift` (durable members {1, 2}, memory {1, 2, 3}): that
/// is the fault, seen by the checker built to see it, not a bug.
fn ac_loses_an_admission_to_a_failing_append(file: bool) {
    let mut b = GroupBuilder::new(72).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-ac-append-fail");
    }
    let mut g = b.build();
    let old_timers: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let node = g.primaries[0];
    let durable_before = g.ac(0).durable().member_ids();
    g.sim.storage_mut(node).inject(StoreFault::AppendFail);
    let newcomer = g.register_member(9);
    g.run_for(Duration::from_secs(2));
    assert!(g.is_member(newcomer), "join did not complete pre-crash");

    g.sim.crash(node);
    g.sim.storage_mut(node).heal();
    assert!(g.sim.restart(node));
    g.run_for(Duration::from_millis(1));
    assert_eq!(
        g.ac(0).durable().member_ids(),
        durable_before,
        "the dropped admission came back from the log"
    );
    g.run_for(Duration::from_secs(10));

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert_eq!(g.ac(0).role(), Role::Primary);
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
        "invariants violated after append-fail recovery"
    );
}

#[test]
fn ac_append_fail_loses_the_admission_and_the_ticket_restores_it() {
    ac_loses_an_admission_to_a_failing_append(false);
}

#[test]
fn ac_append_fail_loses_the_admission_and_the_ticket_restores_it_file_backed() {
    ac_loses_an_admission_to_a_failing_append(true);
}

/// `wal-short-read` across the registration server's crash and
/// restart: the last id burn reads back as a stub, the decoder refuses
/// it and the fold stops there. The RS cannot know what the stub held,
/// so it skips an id rather than risk handing the refused one out
/// again — the next joiner's id is fresh.
fn rs_recovers_through_a_short_read(file: bool) {
    let mut b = GroupBuilder::new(73).rsa_bits(512).areas(2);
    if file {
        b = file_backed(b, "durability-rs-short-read");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);
    let next_before = g.registration_server().next_client();

    let rs = g.rs();
    g.sim.storage_mut(rs).inject(StoreFault::ShortRead);
    g.sim.crash(rs);
    assert!(g.sim.restart(rs));
    g.run_for(Duration::from_secs(2));
    assert_eq!(g.stats().counter("rs-recoveries"), 1);
    assert_eq!(
        g.stats().counter("rs-recovery-bad-wal-record"),
        1,
        "the half record was not refused"
    );
    assert_eq!(
        g.registration_server().next_client(),
        next_before,
        "the fold stopped one burn short and the unread record was not skipped over"
    );
    g.sim.storage_mut(rs).heal();

    let late = g.register_member(7);
    g.run_for(Duration::from_secs(10));
    assert!(g.is_member(late), "join never completed after RS recovery");
    let late_id = g.member(late).client_id();
    for m in members {
        assert!(g.is_member(m));
        assert_ne!(g.member(m).client_id(), late_id, "recovered RS reissued a client id");
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after short-read recovery"
    );
}

#[test]
fn rs_short_read_stops_the_fold_and_no_id_is_reissued() {
    rs_recovers_through_a_short_read(false);
}

#[test]
fn rs_short_read_stops_the_fold_and_no_id_is_reissued_file_backed() {
    rs_recovers_through_a_short_read(true);
}

/// `wal-append-fail` while a member registers: the RS burns the id to
/// a device that acknowledges the write and performs none. The join
/// completes — the admission lives at the controller — but after a
/// crash the burn is lost exactly like a lost tail, and unlike a short
/// read it leaves nothing in the log to notice: the counter comes back
/// one short. That is the fault (the next id out is a reissue), not a
/// bug; what recovery owes is a state that matches its storage again.
fn rs_loses_an_id_burn_to_a_failing_append(file: bool) {
    let mut b = GroupBuilder::new(74).rsa_bits(512).areas(2);
    if file {
        b = file_backed(b, "durability-rs-append-fail");
    }
    let mut g = b.build();
    let old_timers: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);
    let next_before = g.registration_server().next_client();

    let rs = g.rs();
    g.sim.storage_mut(rs).inject(StoreFault::AppendFail);
    let newcomer = g.register_member(9);
    g.run_for(Duration::from_secs(2));
    assert!(g.is_member(newcomer), "join did not complete pre-crash");
    assert_eq!(g.registration_server().next_client(), next_before + 1);

    g.sim.crash(rs);
    g.sim.storage_mut(rs).heal();
    assert!(g.sim.restart(rs));
    g.run_for(Duration::from_secs(2));
    assert_eq!(g.stats().counter("rs-recoveries"), 1);
    assert_eq!(g.stats().counter("rs-recovery-bad-wal-record"), 0);
    assert_eq!(
        g.registration_server().next_client(),
        next_before,
        "the dropped id burn came back from the log"
    );
    for m in old_timers.into_iter().chain([newcomer]) {
        assert!(g.is_member(m), "a member's session depended on the RS log");
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after append-fail recovery"
    );
}

#[test]
fn rs_append_fail_loses_the_id_burn_like_a_lost_tail() {
    rs_loses_an_id_burn_to_a_failing_append(false);
}

#[test]
fn rs_append_fail_loses_the_id_burn_like_a_lost_tail_file_backed() {
    rs_loses_an_id_burn_to_a_failing_append(true);
}
