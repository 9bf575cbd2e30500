//! Property test for the member-side key store: a [`KeyState`] that
//! keeps prepared envelope keys across updates behaves exactly like one
//! that never has any.
//!
//! The twin without prepared keys is rebuilt from its own serialization
//! before every update (`from_bytes` carries raw keys only), so any
//! prepared key that outlived the key it was built from — opening an
//! envelope it should reject, or rejecting one it should open — shows
//! up as a different outcome or a different stored key.

use mykil::rekey::{write_entries_from_plan, KeyState};
use mykil::wire::Writer;
use mykil_crypto::drbg::Drbg;
use mykil_tree::{KeyTree, MemberId, RekeyPlan, TreeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Join,
    Leave(u8),
    Batch {
        joins: u8,
        leaves: Vec<u8>,
    },
    /// The controller re-sends a member its whole current path.
    Refresh(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Join),
        any::<u8>().prop_map(Op::Leave),
        (0u8..3, proptest::collection::vec(any::<u8>(), 0..3))
            .prop_map(|(joins, leaves)| Op::Batch { joins, leaves }),
        any::<u8>().prop_map(Op::Refresh),
    ]
}

/// A present member's two stores: prepared keys kept / never kept.
type Twin = (KeyState, KeyState);

fn nth(members: &BTreeMap<u64, Twin>, n: u8) -> Option<u64> {
    members
        .keys()
        .nth(n as usize % members.len().max(1))
        .copied()
}

/// Delivers one plan to every present member's twin and checks they agree.
fn deliver(
    plan: &RekeyPlan,
    members: &mut BTreeMap<u64, Twin>,
    rng: &mut Drbg,
) -> Result<(), TestCaseError> {
    let mut w = Writer::new();
    write_entries_from_plan(plan, rng, &mut w);
    let body = w.into_bytes();
    for (id, (warm, cold)) in members.iter_mut() {
        *cold = KeyState::from_bytes(&cold.to_bytes()).expect("own encoding");
        let got = warm.apply_encoded(&body).expect("own encoding");
        let want = cold.apply_encoded(&body).expect("own encoding");
        prop_assert_eq!(got, want, "member {}", id);
        prop_assert_eq!(warm.to_bytes(), cold.to_bytes(), "member {}", id);
    }
    for unicast in &plan.unicasts {
        let (warm, cold) = members.entry(unicast.member.0).or_default();
        warm.install_tree_path(&unicast.keys);
        cold.install_tree_path(&unicast.keys);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 0,
        .. ProptestConfig::default()
    })]

    #[test]
    fn prepared_keys_never_change_what_a_member_learns(
        seed in any::<u64>(),
        quad in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let mut rng = Drbg::from_seed(seed);
        let cfg = if quad { TreeConfig::quad() } else { TreeConfig::binary() };
        let mut tree = KeyTree::new(cfg, &mut rng);
        let mut members: BTreeMap<u64, Twin> = BTreeMap::new();
        let mut departed: Vec<Twin> = Vec::new();
        let mut next_id = 0u64;
        let mut fresh = |n: u8| -> Vec<MemberId> {
            (0..n).map(|_| { next_id += 1; MemberId(next_id) }).collect()
        };
        // Start from a populated tree so leaves have something to cut.
        for id in fresh(6) {
            let plan = tree.join(id, &mut rng).expect("fresh id");
            deliver(&plan, &mut members, &mut rng)?;
        }
        for op in ops {
            let plan = match op {
                Op::Join => tree.join(fresh(1)[0], &mut rng).expect("fresh id"),
                Op::Leave(n) => {
                    let Some(id) = nth(&members, n) else { continue };
                    departed.extend(members.remove(&id));
                    tree.leave(MemberId(id), &mut rng).expect("present member")
                }
                Op::Batch { joins, leaves } => {
                    let mut gone: Vec<MemberId> = Vec::new();
                    for n in leaves {
                        if let Some(id) = nth(&members, n) {
                            departed.extend(members.remove(&id));
                            gone.push(MemberId(id));
                        }
                    }
                    tree.batch(&fresh(joins), &gone, &mut rng).expect("valid batch").plan
                }
                Op::Refresh(n) => {
                    let Some(id) = nth(&members, n) else { continue };
                    let mut path = Vec::new();
                    tree.path_keys_into(MemberId(id), &mut path).expect("present member");
                    let (warm, cold) = members.get_mut(&id).expect("picked from the map");
                    warm.install_tree_path(&path);
                    cold.install_tree_path(&path);
                    continue;
                }
            };
            deliver(&plan, &mut members, &mut rng)?;
            for (id, (warm, _)) in &members {
                prop_assert_eq!(warm.area_key(), Some(tree.area_key()), "member {}", id);
            }
            // Whoever left keeps hearing the multicasts and, prepared
            // keys or not, learns nothing from them.
            let mut w = Writer::new();
            write_entries_from_plan(&plan, &mut rng, &mut w);
            let body = w.into_bytes();
            for (warm, cold) in &mut departed {
                let got = warm.apply_encoded(&body).expect("own encoding");
                prop_assert_eq!(got, cold.apply_encoded(&body).expect("own encoding"));
                prop_assert_ne!(warm.area_key(), Some(tree.area_key()));
            }
        }
    }
}
