//! Adversarial tests: forged signatures, tampered tickets, replays and
//! eavesdroppers must all be rejected without crashing any node.

use mykil::area::AreaController;
use mykil::group::GroupBuilder;
use mykil::identity::AreaId;
use mykil::member::Member;
use mykil::msg::Msg;
use mykil::wire::Writer;
use mykil_crypto::envelope::HybridCiphertext;
use mykil_net::{Duration, Node};

#[test]
fn forged_key_update_is_ignored_by_members() {
    let mut g = GroupBuilder::new(40).areas(1).build();
    let m = g.register_member(1);
    g.settle();
    let key_before = g.member(m).current_area_key().unwrap();

    // An insider (or outsider) multicasts a fake key update with a
    // garbage signature — the paper's motivation for signing updates.
    let forged = Msg::KeyUpdate {
        area: AreaId(0),
        epoch: 999,
        body: vec![0u8; 64],
        sig: vec![0u8; 96],
    }
    .to_bytes();
    let attacker_source = g.primaries[0];
    g.sim.invoke(m, |mm: &mut Member, ctx| {
        mm.on_message(ctx, attacker_source, &forged);
    });
    g.run_for(Duration::from_millis(100));
    assert_eq!(g.member(m).current_area_key(), Some(key_before));
}

#[test]
fn garbage_bytes_do_not_crash_any_node() {
    let mut g = GroupBuilder::new(41).areas(1).build();
    let m = g.register_member(1);
    g.settle();
    let rs = mykil_net::NodeId::from_index(0);
    let ac = g.primaries[0];
    let payloads: Vec<Vec<u8>> = vec![
        vec![],
        vec![0xff],
        vec![1, 2, 3, 4],
        vec![30; 100],
        Msg::Join1 { ct: vec![0; 10] }.to_bytes(),
        Msg::Rejoin1 { ct: vec![0xee; 50] }.to_bytes(),
    ];
    for p in &payloads {
        let bytes = p.clone();
        g.sim.invoke(m, |mm: &mut Member, ctx| {
            mm.on_message(ctx, ac, &bytes);
        });
    }
    // Also shell the RS and the AC directly.
    for p in &payloads {
        let bytes = p.clone();
        g.sim
            .invoke(ac, |a: &mut AreaController, ctx| a.on_message(ctx, m, &bytes));
        let bytes = p.clone();
        g.sim.invoke(
            rs,
            |r: &mut mykil::registration::RegistrationServer, ctx| {
                r.on_message(ctx, m, &bytes)
            },
        );
    }
    g.settle();
    assert!(g.is_member(m), "member state corrupted by garbage input");
}

#[test]
fn fabricated_ticket_is_denied() {
    let mut g = GroupBuilder::new(42).areas(1).build();
    let m = g.register_member(1);
    g.settle();
    let denials_before = g.ac(0).stats.rejoins_denied;

    // Build a rejoin step 1 around a ticket sealed under the wrong key.
    let ac_pub = g.ac(0).public_key().clone();
    let fake_ticket = vec![0xabu8; 120];
    let mut w = Writer::new();
    w.u64(777)
        .raw(mykil::identity::DeviceId::from_seed(9).as_bytes())
        .bytes(&fake_ticket);
    let payload = w.into_bytes();
    let ac = g.primaries[0];
    g.sim.invoke(m, |_mm: &mut Member, ctx| {
        let ct = HybridCiphertext::encrypt(&ac_pub, &payload, ctx.rng())
            .unwrap()
            .to_bytes();
        ctx.send(ac, "rejoin", Msg::Rejoin1 { ct }.to_bytes());
    });
    g.run_for(Duration::from_secs(1));
    assert_eq!(g.ac(0).stats.rejoins_denied, denials_before + 1);
    assert_eq!(g.ac(0).stats.rejoins_admitted, 0);
}

#[test]
fn replayed_join6_cannot_mint_a_second_membership() {
    let mut g = GroupBuilder::new(43).areas(1).build();
    let m = g.register_member(1);
    g.settle();
    assert_eq!(g.ac(0).member_count(), 1);
    let admitted_before = g.ac(0).stats.joins_admitted;

    // Replay a syntactically valid but stale step 6: the pending
    // admission was consumed, so nothing happens.
    let ac_pub = g.ac(0).public_key().clone();
    let ac = g.primaries[0];
    let mut w = Writer::new();
    w.u64(12345).u64(999).raw(&[0u8; 6]);
    let payload = w.into_bytes();
    g.sim.invoke(m, |_mm: &mut Member, ctx| {
        let ct = HybridCiphertext::encrypt(&ac_pub, &payload, ctx.rng())
            .unwrap()
            .to_bytes();
        ctx.send(ac, "join", Msg::Join6 { ct }.to_bytes());
    });
    g.run_for(Duration::from_secs(1));
    assert_eq!(g.ac(0).stats.joins_admitted, admitted_before);
    assert_eq!(g.ac(0).member_count(), 1);
}

#[test]
fn eavesdropper_outside_the_group_receives_nothing() {
    let mut g = GroupBuilder::new(44).areas(1).build();
    let a = g.register_member(1);
    let b = g.register_member(2);
    // A node that never joins: it is not in any multicast group.
    let outsider = g.register_member_manual(3);
    g.settle();
    g.send_data(a, b"subscribers only");
    g.run_for(Duration::from_secs(1));
    assert!(g.received_data(b).contains(&b"subscribers only".to_vec()));
    assert!(g.received_data(outsider).is_empty());
    assert_eq!(g.member(outsider).decrypt_failures, 0);
}

#[test]
fn departed_member_cannot_follow_the_rekeyed_area() {
    // Protocol-level forward secrecy: after eviction, the area key has
    // rotated away from everything the departed member knows.
    let mut g = GroupBuilder::new(45).areas(1).build();
    let victim = g.register_member(1);
    let stayer = g.register_member(2);
    g.settle();
    let victim_key = g.member(victim).current_area_key().unwrap();

    g.sim.partition(victim, 5);
    g.run_for(Duration::from_secs(5)); // eviction + rekey

    assert!(!g.ac(0).has_member(g.member(victim).client_id().unwrap()));
    let new_key = g.ac(0).area_key();
    assert_ne!(new_key, victim_key);
    // The stayer follows; the victim's view is frozen in the past.
    assert_eq!(g.member(stayer).current_area_key(), Some(new_key));
    assert_eq!(g.member(victim).current_area_key(), Some(victim_key));
}

#[test]
fn takeover_announcement_from_impostor_is_rejected() {
    let mut g = GroupBuilder::new(46).areas(1).replicated(true).build();
    let m = g.register_member(1);
    g.settle();
    let ac_before = g.primaries[0];

    // A random party claims to be the new controller with a bogus
    // signature; members must keep their current AC pointer.
    let forged = Msg::Takeover {
        area: AreaId(0),
        sig: vec![0u8; 96],
        pubkey: g.backup(0).public_key().to_bytes(),
    }
    .to_bytes();
    let imposter = g.backups[0];
    g.sim.invoke(m, |mm: &mut Member, ctx| {
        mm.on_message(ctx, imposter, &forged);
    });
    g.run_for(Duration::from_millis(200));

    // Members still talk to the original primary: data still flows.
    g.send_data(m, b"still with the primary");
    g.run_for(Duration::from_secs(1));
    assert!(g
        .received_data(m)
        .contains(&b"still with the primary".to_vec()));
    assert_eq!(g.ac(0).stats.data_forwarded, 1);
    let _ = ac_before;
}

/// A member that watched its area key rotate twice, with a `Data` frame
/// whose `K_r` is sealed under the first (now twice superseded) key —
/// the key an evicted insider of that area would still hold.
fn member_with_two_rotations_behind_it(seed: u64) -> (mykil::group::GroupHandle, mykil_net::NodeId, Vec<u8>) {
    let mut g = GroupBuilder::new(seed).areas(2).build();
    let m = g.register_member(1);
    g.settle();
    let first_key = g.member(m).current_area_key().unwrap();
    let mut rotations = 0;
    let mut last = first_key.clone();
    for device in 2..12 {
        g.register_member(device);
        g.settle();
        let now = g.member(m).current_area_key().unwrap();
        if now != last {
            rotations += 1;
            last = now;
        }
    }
    assert!(rotations >= 2, "the member's area rotated its key {rotations} times");
    let mut rng = mykil_crypto::drbg::Drbg::from_seed(seed);
    let frame = Msg::Data {
        origin: mykil::identity::ClientId(9_999),
        seq: 1,
        wrapped_key: mykil_crypto::envelope::seal(&first_key, &[0x4b; 16], &mut rng),
        payload: b"sealed under a key of the last session".to_vec(),
    }
    .to_bytes();
    (g, m, frame)
}

/// Delivers `frame` to `m` as if its controller had forwarded it and
/// reports `(newly received, new decrypt failures)`.
fn deliver_data(g: &mut mykil::group::GroupHandle, m: mykil_net::NodeId, frame: &[u8]) -> (usize, u64) {
    let from = g.primaries[g.member(m).area().unwrap().0 as usize];
    let (received, failures) = (g.member(m).received.len(), g.member(m).decrypt_failures);
    g.sim.invoke(m, |mm: &mut Member, ctx| mm.on_message(ctx, from, frame));
    (
        g.member(m).received.len() - received,
        g.member(m).decrypt_failures - failures,
    )
}

/// Regression: `KeyState::clear` emptied the current keys but kept the
/// superseded area keys, so a member carried up to eight old keys of
/// the area it left into its next session and opened packets sealed
/// under them.
#[test]
fn superseded_keys_of_a_left_area_open_nothing_in_the_next_one() {
    let (mut g, m, frame) = member_with_two_rotations_behind_it(47);
    let home = g.member(m).area().unwrap().0 as usize;
    // Control: while still in the session the old key is honoured (late
    // data sealed just before a rotation must not be lost).
    assert_eq!(deliver_data(&mut g, m, &frame), (1, 0));

    g.sim.invoke(m, |mm: &mut Member, ctx| mm.leave(ctx));
    g.run_for(Duration::from_secs(2));
    assert!(g.move_member(m, 1 - home));
    g.settle();
    assert!(g.is_member(m));
    assert_eq!(g.member(m).area().unwrap().0 as usize, 1 - home);

    assert_eq!(deliver_data(&mut g, m, &frame), (0, 1));
}

/// The same across a crash: session keys die with the process, the
/// history of superseded ones included.
#[test]
fn superseded_keys_do_not_survive_a_member_restart() {
    let (mut g, m, frame) = member_with_two_rotations_behind_it(48);
    g.sim.crash(m);
    g.run_for(Duration::from_millis(200));
    assert!(g.sim.restart(m));
    g.settle();
    assert!(g.is_member(m), "the restarted member rejoined with its ticket");

    assert_eq!(deliver_data(&mut g, m, &frame), (0, 1));
}
