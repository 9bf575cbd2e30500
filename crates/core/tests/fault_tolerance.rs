//! Mobility and fault-tolerance tests — the paper's Section IV:
//! ticket-based rejoin (Figure 7), cohort detection, partition
//! policies, disconnect-triggered automatic rejoin, member eviction,
//! AC parent switching, and primary-backup failover.

use mykil::area::{AreaController, Role};
use mykil::config::{BatchPolicy, MykilConfig, RejoinPolicy};
use mykil::group::GroupBuilder;
use mykil::identity::AreaId;
use mykil::invariants::InvariantChecker;
use mykil::member::{Member, MemberPhase};
use mykil::msg::RejoinDenyReason;
use mykil_net::Duration;
use mykil_tree::MemberId;

#[test]
fn mobile_member_rejoins_with_ticket_not_registration() {
    let mut g = GroupBuilder::new(20).areas(2).build();
    // Manual member: the test scripts the roaming instead of the
    // automatic disconnect detector (covered by its own test below).
    let m = g.register_member_manual(1);
    g.sim.invoke(m, |mm: &mut mykil::member::Member, ctx| mm.start_join(ctx));
    g.settle();
    let home = g.member(m).area().unwrap().0 as usize;
    let away = 1 - home;
    assert_eq!(g.ac(home).member_count(), 1);

    // The member roams away: its link to the home AC drops, and after
    // a quiet period the home AC will confirm its departure.
    let home_ac = g.primaries[home];
    g.sim.cut_link(m, home_ac);
    g.sim.cut_link(home_ac, m);
    g.run_for(Duration::from_secs(1));
    let join_msgs_before = g.stats().kind("join").messages_sent;
    assert!(g.move_member(m, away));
    g.settle();

    assert!(g.is_member(m));
    assert_eq!(g.member(m).area().unwrap().0 as usize, away);
    assert_eq!(g.ac(away).member_count(), 1);
    assert_eq!(g.ac(away).stats.rejoins_admitted, 1);
    assert!(!g.ac(home).has_member(g.member(m).client_id().unwrap()));
    // No registration-server involvement: zero additional join traffic.
    assert_eq!(g.stats().kind("join").messages_sent, join_msgs_before);
    // The full verification path ran: steps 1,2,3,4,5,6 (six messages).
    assert_eq!(g.stats().kind("rejoin").messages_sent, 6);
    let t = g.member(m).timings;
    assert!(t.rejoin_completed.unwrap() > t.rejoin_started.unwrap());
}

#[test]
fn moved_member_keeps_receiving_data() {
    let mut g = GroupBuilder::new(21).areas(2).build();
    let a = g.register_member_manual(1);
    g.sim.invoke(a, |mm: &mut mykil::member::Member, ctx| mm.start_join(ctx));
    let b = g.register_member(2);
    g.settle();
    let area_a = g.member(a).area().unwrap().0 as usize;

    // Roam: drop the home link, go quiet, then rejoin across the group.
    let home_ac = g.primaries[area_a];
    g.sim.cut_link(a, home_ac);
    g.sim.cut_link(home_ac, a);
    g.run_for(Duration::from_secs(1));
    g.move_member(a, 1 - area_a);
    g.settle();
    assert!(g.is_member(a));

    g.send_data(b, b"after the move");
    g.run_for(Duration::from_secs(1));
    assert!(g
        .received_data(a)
        .contains(&b"after the move".to_vec()));
}

#[test]
fn active_member_rejoin_elsewhere_is_denied_cohort_defense() {
    let mut g = GroupBuilder::new(22).areas(2).build();
    let m = g.register_member(1);
    g.settle();
    let home = g.member(m).area().unwrap().0 as usize;

    // Keep the member visibly active at its home AC, then immediately
    // present its ticket to the other AC: steps 4/5 report "still a
    // member" and the rejoin is refused (Section IV-B cohort scenario).
    g.send_data(m, b"I am alive here");
    g.run_for(Duration::from_millis(50));
    g.move_member(m, 1 - home);
    g.settle();
    assert_eq!(
        g.member_phase(m),
        MemberPhase::Denied(RejoinDenyReason::StillMemberElsewhere)
    );
    assert_eq!(g.ac(1 - home).stats.rejoins_denied, 1);
}

#[test]
fn partition_policy_deny_refuses_unverifiable_rejoin() {
    let mut g = GroupBuilder::new(23)
        .areas(2)
        .rejoin_policy(RejoinPolicy::Deny)
        .build();
    let m = g.register_member(1);
    g.settle();
    let home = g.member(m).area().unwrap().0 as usize;
    let away = 1 - home;
    g.run_for(Duration::from_secs(1));

    // Cut the AC-to-AC links: AC_B cannot verify the departure.
    let (h, a) = (g.primaries[home], g.primaries[away]);
    g.sim.cut_link(a, h);
    g.sim.cut_link(h, a);

    g.move_member(m, away);
    g.run_for(Duration::from_secs(4));
    assert_eq!(
        g.member_phase(m),
        MemberPhase::Denied(RejoinDenyReason::PartitionedStrict)
    );
}

#[test]
fn partition_policy_admit_checks_device_and_admits() {
    let mut g = GroupBuilder::new(24)
        .areas(2)
        .rejoin_policy(RejoinPolicy::AdmitWithDeviceCheck)
        .build();
    let m = g.register_member(1);
    g.settle();
    let home = g.member(m).area().unwrap().0 as usize;
    let away = 1 - home;
    g.run_for(Duration::from_secs(1));

    let (h, a) = (g.primaries[home], g.primaries[away]);
    g.sim.cut_link(a, h);
    g.sim.cut_link(h, a);

    g.move_member(m, away);
    g.run_for(Duration::from_secs(4));
    // Same NIC as in the ticket: admitted despite the partition
    // (Section IV-B option 2).
    assert!(g.is_member(m));
    assert_eq!(g.member(m).area().unwrap().0 as usize, away);
}

#[test]
fn disconnected_member_auto_rejoins_another_area() {
    let mut g = GroupBuilder::new(25).areas(2).build();
    let m = g.register_member(1);
    g.settle();
    let home = g.member(m).area().unwrap().0 as usize;
    let home_ac = g.primaries[home];

    // Sever the member <-> home-AC path in both directions; everything
    // else stays reachable.
    g.sim.cut_link(home_ac, m);
    g.sim.cut_link(m, home_ac);

    // 5*T_idle of silence triggers detection; the member then rejoins
    // via its ticket at the other AC automatically.
    g.run_for(Duration::from_secs(6));
    assert!(g.member(m).disconnects_detected >= 1);
    assert!(g.is_member(m));
    assert_eq!(g.member(m).area().unwrap().0 as usize, 1 - home);
}

#[test]
fn silent_member_is_evicted_and_area_rekeyed() {
    let mut g = GroupBuilder::new(26).areas(1).build();
    let quiet = g.register_member(1);
    let stayer = g.register_member(2);
    g.settle();
    let key_before = g.ac(0).area_key();
    assert_eq!(g.ac(0).member_count(), 2);

    // Partition the quiet member away entirely: it cannot send alives.
    g.sim.partition(quiet, 9);
    // 5*T_active (2s with test timers) plus a sweep period.
    g.run_for(Duration::from_secs(5));

    assert_eq!(g.ac(0).member_count(), 1);
    assert!(g.ac(0).stats.evictions >= 1);
    // Forward secrecy: the area key rotated on eviction and the
    // remaining member tracked it.
    let key_after = g.ac(0).area_key();
    assert_ne!(key_before, key_after);
    assert_eq!(g.member(stayer).current_area_key(), Some(key_after));
}

#[test]
fn backup_takes_over_after_primary_crash() {
    let mut g = GroupBuilder::new(27).areas(1).replicated(true).build();
    let a = g.register_member(1);
    let b = g.register_member(2);
    g.settle();
    assert!(g.is_member(a) && g.is_member(b));
    let members_before = g.ac(0).member_count();

    g.crash_ac(0);
    // Failover: 3 missed heartbeats at 100 ms.
    g.run_for(Duration::from_secs(3));

    let backup = g.backup(0);
    assert_eq!(backup.role(), mykil::area::Role::Primary);
    assert_eq!(backup.stats.takeovers, 1);
    // Replicated state survived: same membership view.
    assert_eq!(backup.member_count(), members_before);

    // The data plane works again through the new controller.
    g.send_data(a, b"after failover");
    g.run_for(Duration::from_secs(2));
    assert!(g
        .received_data(b)
        .contains(&b"after failover".to_vec()));
}

/// Regression — a backup's replica is live, and nothing refreshes a
/// replica's rows: `MemberAlive` goes to the primary. A backup promoted
/// long after its members joined must restart their liveness clocks,
/// or its first sweep finds every row silent past the eviction
/// threshold and evicts the area it just inherited.
#[test]
fn promoted_backup_does_not_evict_the_area_it_inherits() {
    let mut g = GroupBuilder::new(35).areas(1).replicated(true).build();
    let members: Vec<_> = (1..=3).map(|i| g.register_member(i)).collect();
    g.settle();
    // Rows on the replica are as old as the joins that made them.
    g.run_for(MykilConfig::test().ac_evict_after().saturating_mul(2));
    assert!(members.iter().all(|&m| g.is_member(m)));
    assert_eq!(g.stats().counter("state-sync-images"), 1, "only the attach sent an image");

    // Keep the members' alives from the new controller for its first
    // sweeps (they still hear its multicasts), so that only the clocks
    // it starts with decide: well inside the eviction threshold counted
    // from the promotion, far past it counted from the joins.
    for &m in &members {
        g.sim.cut_link(m, g.backups[0]);
    }
    g.crash_ac(0);
    g.run_for(Duration::from_micros(MykilConfig::test().ac_evict_after().as_micros() * 3 / 4));
    let promoted = g.backup(0);
    assert_eq!(promoted.role(), Role::Primary);
    assert_eq!(g.stats().counter("ac-evictions"), 0, "the promoted backup evicted live members");
    assert_eq!(promoted.member_count(), members.len());

    for &m in &members {
        g.sim.restore_link(m, g.backups[0]);
    }
    g.settle();
    assert_eq!(g.stats().counter("ac-evictions"), 0);
    for &m in &members {
        assert!(g.is_member(m));
        assert_eq!(g.member(m).current_area_key(), Some(g.backup(0).area_key()));
    }
    assert_eq!(InvariantChecker::new().check(&g), vec![]);
}

/// What replicating `OPS` leave-plus-join operations costs in one
/// replicated area of `size`: `state-sync` bytes, full images sent, and
/// checkpoints written by the primary and by the backup. Members are
/// built over a small key pool, so filling the area stays cheap.
fn steady_state_replication_cost(size: usize) -> (u64, u64, u64, u64) {
    const OPS: usize = 4;
    let cfg = MykilConfig { batch_policy: BatchPolicy::Immediate, ..MykilConfig::test() };
    let mut g = GroupBuilder::new(36).config(cfg).areas(1).replicated(true).build();
    let nodes = g.add_pooled_members(size + OPS, 4, 36);
    for &node in &nodes[..size] {
        g.sim.invoke(node, |m: &mut Member, ctx| m.start_join(ctx));
        g.run_for(Duration::from_millis(40));
    }
    g.settle();
    assert_eq!(g.ac(0).member_count(), size);
    assert_eq!(g.stats().counter("state-sync-images"), 1, "only the attach sends an image");

    let checkpoints =
        |g: &mykil::group::GroupHandle, node| g.sim.storage(node).checkpoint_count();
    let (primary, backup) = (g.primaries[0], g.backups[0]);
    let before = (
        g.stats().kind("state-sync").bytes_sent,
        g.stats().counter("state-sync-images"),
        checkpoints(&g, primary),
        checkpoints(&g, backup),
    );
    for op in 0..OPS {
        assert!(g.sim.invoke(nodes[op], |m: &mut Member, ctx| m.leave(ctx)));
        g.run_for(Duration::from_millis(500));
        g.sim.invoke(nodes[size + op], |m: &mut Member, ctx| m.start_join(ctx));
        g.run_for(Duration::from_millis(500));
    }
    assert_eq!(g.ac(0).member_count(), size);
    assert_eq!(InvariantChecker::new().check(&g), vec![]);
    (
        g.stats().kind("state-sync").bytes_sent - before.0,
        g.stats().counter("state-sync-images") - before.1,
        checkpoints(&g, primary) - before.2,
        checkpoints(&g, backup) - before.3,
    )
}

/// Replication is log shipping: what a rekey costs to replicate does
/// not depend on how large the area is. The same operations send the
/// same `state-sync` bytes into an area of 32 and of 128, never a full
/// image, and a checkpoint is the price of a long log, not of a rekey.
#[test]
fn replicating_a_rekey_costs_the_same_at_any_area_size() {
    let small = steady_state_replication_cost(32);
    let large = steady_state_replication_cost(128);
    let bytes = small.0;
    assert_eq!(bytes, large.0, "state-sync bytes grew with the area");
    assert!(bytes > 0 && bytes < 4 * 1000, "four ops sent {bytes} state-sync bytes");
    for (size, (_, images, on_primary, on_backup)) in [(32, small), (128, large)] {
        assert_eq!(images, 0, "a steady-state op sent a full image at 1 x {size}");
        assert!(
            on_primary < 4 && on_backup < 4,
            "a checkpoint per op at 1 x {size}: {on_primary} on the primary, {on_backup} on the backup"
        );
    }
}

/// Regression — batching (Section III-E) meets replication (Section
/// IV-C): a departure still queued in a batch window when the primary
/// dies must reach the promoted backup as a departure, not as a leaf
/// that stays valid under every later key update.
#[test]
fn takeover_inside_a_batch_window_still_rekeys_the_leaver_out() {
    // Only data flushes: the backstop timer is an hour away.
    let cfg = MykilConfig {
        rekey_interval: Duration::from_secs(3600),
        ..MykilConfig::test()
    };
    let mut g = GroupBuilder::new(34).config(cfg).areas(1).replicated(true).build();
    let a = g.register_member(1);
    let b = g.register_member(2);
    g.settle();
    g.send_data(a, b"flush the joins");
    g.run_for(Duration::from_secs(1));
    assert!(!g.ac(0).update_pending());

    let b_id = g.member(b).client_id().unwrap();
    let b_leaf = MemberId(b_id.0);
    assert!(g.sim.invoke(b, |m: &mut Member, ctx| m.leave(ctx)));
    g.run_for(Duration::from_millis(150));
    let primary = g.ac(0);
    assert!(!primary.has_member(b_id) && primary.tree().contains(b_leaf));
    assert!(primary.update_pending());

    g.crash_ac(0);
    g.run_for(Duration::from_secs(3));
    let promoted = g.backup(0);
    assert_eq!(promoted.role(), Role::Primary);
    assert!(!promoted.has_member(b_id) && promoted.tree().contains(b_leaf));
    assert!(
        promoted.update_pending(),
        "the promoted backup forgot the departure queued in the batch window"
    );

    let rekeys_before = promoted.stats.rekeys;
    g.send_data(a, b"flush the leave");
    g.run_for(Duration::from_secs(1));
    let promoted = g.backup(0);
    assert!(
        !promoted.tree().contains(b_leaf),
        "the departed member's leaf outlived the flush"
    );
    assert_eq!(promoted.stats.rekeys, rekeys_before + 1, "no key update was multicast");
    assert_eq!(InvariantChecker::new().check(&g), vec![]);
}

/// Either node of an area's pair may take the area over, any number
/// of times. Four fail-overs alternate the two controllers of area 1 of
/// a two-area replicated group, each crashed controller restarting to
/// be demoted into the standby. After each, the registration server's
/// directory names the live primary, and every member of the area
/// follows it: a member swaps its controller and standby keys on the
/// signed takeover, so it can verify the next one.
#[test]
fn alternating_failovers_strand_no_member() {
    let mut g = GroupBuilder::new(29).areas(2).replicated(true).build();
    let members: Vec<_> = (1..=4).map(|i| g.register_member(i)).collect();
    g.settle();
    let area1: Vec<_> =
        members.into_iter().filter(|&m| g.member(m).area() == Some(AreaId(1))).collect();
    assert!(!area1.is_empty(), "no member was placed in area 1");

    let pair = [g.primaries[1], g.backups[1]];
    for round in 0..4 {
        let (crashed, standby) = (pair[round % 2], pair[(round + 1) % 2]);
        g.sim.crash(crashed);
        g.run_for(Duration::from_secs(3));
        let live = g.sim.node::<AreaController>(standby);
        assert_eq!(live.role(), Role::Primary, "round {round}: the standby never took over");
        let named = g.registration_server().directory().by_area(AreaId(1)).map(|row| row.node);
        assert_eq!(
            named,
            Some(standby.index() as u32),
            "round {round}: the directory does not name the live primary"
        );
        let key = live.area_key();
        for &m in &area1 {
            assert!(g.is_member(m), "round {round}: member {m:?} was stranded");
            let held = g.member(m).current_area_key();
            assert!(held.as_ref() == Some(&key), "round {round}: {m:?} holds a stale key");
        }

        assert!(g.sim.restart(crashed));
        g.run_for(Duration::from_secs(3));
        let role = g.sim.node::<AreaController>(crashed).role();
        assert_eq!(role, Role::Backup, "round {round}: the restarted controller kept the area");
    }
    assert_eq!(g.stats().counter("ac-takeovers"), 4);
    assert_eq!(g.stats().counter("ac-evictions"), 0, "a member was evicted");
    assert_eq!(InvariantChecker::new().check(&g), vec![]);
}

#[test]
fn registration_routes_new_joins_to_promoted_backup() {
    let mut g = GroupBuilder::new(28).areas(1).replicated(true).build();
    g.register_member(1);
    g.settle();
    g.crash_ac(0);
    g.run_for(Duration::from_secs(3));
    assert_eq!(g.backup(0).role(), mykil::area::Role::Primary);

    // A brand-new member joins through the RS; the directory now points
    // at the promoted backup.
    let newcomer = g.register_member(2);
    g.settle();
    assert!(g.is_member(newcomer));
    assert!(g.backup(0).member_count() >= 2);
}

#[test]
fn child_ac_switches_parent_when_parent_area_dies() {
    // Areas: 0 root, 1 and 2 children of 0. Kill AC0: areas 1 and 2
    // must re-parent to each other and keep exchanging data.
    let mut g = GroupBuilder::new(29).areas(3).build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let by_area = |g: &mykil::group::GroupHandle, area: u32| {
        members
            .iter()
            .copied()
            .find(|&m| g.member(m).area().unwrap().0 == area)
            .unwrap()
    };
    let m1 = by_area(&g, 1);
    let m2 = by_area(&g, 2);

    g.crash_ac(0);
    // Parent silence threshold is 5*T_idle = 500 ms; allow the signed
    // area-join exchange to finish.
    g.run_for(Duration::from_secs(4));
    let switches = g.ac(1).stats.parent_switches + g.ac(2).stats.parent_switches;
    assert!(switches >= 1, "no parent switch happened");

    g.send_data(m1, b"via new parent");
    g.run_for(Duration::from_secs(2));
    assert!(
        g.received_data(m2).contains(&b"via new parent".to_vec()),
        "area 2 unreachable after re-parenting"
    );
}

#[test]
fn members_survive_transient_partition_without_rejoin() {
    // A partition shorter than the detection threshold heals silently.
    let mut g = GroupBuilder::new(30).areas(1).build();
    let m = g.register_member(1);
    g.settle();
    g.sim.partition(m, 3);
    g.run_for(Duration::from_millis(300)); // < 5*T_idle
    g.sim.heal_partitions();
    g.run_for(Duration::from_secs(2));
    assert!(g.is_member(m));
    assert_eq!(g.member(m).disconnects_detected, 0);
    assert_eq!(g.member(m).area().unwrap().0, 0);
}

#[test]
fn group_converges_despite_message_loss() {
    // 5% uniform message loss: joins retry, missed key updates are
    // recovered via epoch beacons and refresh requests.
    let mut g = GroupBuilder::new(31).areas(1).build();
    g.sim.set_loss_per_mille(50);
    let a = g.register_member(1);
    let b = g.register_member(2);
    g.run_for(Duration::from_secs(20));

    assert!(g.is_member(a), "member a never joined under loss");
    assert!(g.is_member(b), "member b never joined under loss");
    let key = g.ac(0).area_key();
    assert_eq!(g.member(a).current_area_key(), Some(key.clone()));
    assert_eq!(g.member(b).current_area_key(), Some(key));

    // Clean network again: data flows.
    g.sim.set_loss_per_mille(0);
    g.send_data(a, b"after the storm");
    g.run_for(Duration::from_secs(2));
    assert!(g
        .received_data(b)
        .contains(&b"after the storm".to_vec()));
}

#[test]
fn heavy_loss_then_recovery() {
    // A burst of 30% loss while the group is running; after it clears,
    // all members resynchronize without manual intervention.
    let mut g = GroupBuilder::new(32).areas(2).build();
    let members: Vec<_> = (0..4).map(|i| g.register_member(i)).collect();
    g.settle();
    for &m in &members {
        assert!(g.is_member(m));
    }

    g.sim.set_loss_per_mille(300);
    // Churn during the lossy period.
    let late = g.register_member(9);
    g.run_for(Duration::from_secs(10));
    g.sim.set_loss_per_mille(0);
    g.run_for(Duration::from_secs(10));

    assert!(g.is_member(late), "join never completed under heavy loss");
    for &m in members.iter().chain([&late]) {
        let area = g.member(m).area().unwrap().0 as usize;
        assert_eq!(
            g.member(m).current_area_key(),
            Some(g.ac(area).area_key()),
            "member stale after loss burst"
        );
    }
}

#[test]
fn deep_hierarchy_survives_mid_level_crash() {
    // Areas: 0 root; 1,2 children of 0; 3,4 children of 1; 5,6 children
    // of 2. Crash AC1: areas 3 and 4 must re-parent root-ward (cycle-
    // free) and cross-hierarchy data must keep flowing.
    let mut g = GroupBuilder::new(33).areas(7).build();
    let members: Vec<_> = (0..7).map(|i| g.register_member(i)).collect();
    g.settle();
    let by_area = |g: &mykil::group::GroupHandle, area: u32| {
        members
            .iter()
            .copied()
            .find(|&m| g.member(m).area().unwrap().0 == area)
            .unwrap()
    };
    let m3 = by_area(&g, 3);
    let m6 = by_area(&g, 6);

    // Sanity: leaf-to-leaf data across three hierarchy levels.
    g.send_data(m3, b"before crash");
    g.run_for(Duration::from_secs(2));
    assert!(g.received_data(m6).contains(&b"before crash".to_vec()));

    g.sim.crash(g.primaries[1]);
    g.run_for(Duration::from_secs(5));
    let s3 = g.ac(3).stats.parent_switches;
    let s4 = g.ac(4).stats.parent_switches;
    assert!(s3 >= 1 && s4 >= 1, "orphaned areas did not re-parent (s3={s3} s4={s4})");
    // Root-ward rule: new parents have lower area ids than the child.
    assert!(g.ac(3).parent().unwrap().area.0 < 3);
    assert!(g.ac(4).parent().unwrap().area.0 < 4);

    // The member of area 1 is orphaned with its AC, but areas 3..6 and
    // the root keep exchanging data.
    g.send_data(m3, b"after crash");
    g.run_for(Duration::from_secs(3));
    assert!(
        g.received_data(m6).contains(&b"after crash".to_vec()),
        "hierarchy did not heal around the crashed mid-level controller"
    );
}
