//! Backend equivalence: the explicit tree and the keyed-hash forest
//! must be *protocol-indistinguishable*. Key values necessarily differ
//! (each backend draws/derives its own), so equivalence means:
//!
//! - identical tree shape and member placement for the same schedule,
//! - identical plan structure — changed nodes, encryption provenance
//!   ([`EncryptUnder`]), and unicast recipients/node lists — i.e. the
//!   same wire-message sizes and the same readable-by sets,
//! - identical member-visible verdicts: every present member's view
//!   converges to its path, departed members learn nothing,
//! - both backends pass `check_invariants` at every step.

use mykil_crypto::drbg::Drbg;
use mykil_tree::{EncryptUnder, KeyTree, MemberId, MemberView, RekeyPlan, TreeBackend, TreeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Join(u8),
    LeaveNth(u8),
    Batch { joins: u8, leave_picks: Vec<u8> },
    RotateArea,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..5).prop_map(Op::Join),
        (0u8..255).prop_map(Op::LeaveNth),
        ((0u8..4), proptest::collection::vec(0u8..255, 0..4))
            .prop_map(|(joins, leave_picks)| Op::Batch { joins, leave_picks }),
        Just(Op::RotateArea),
    ]
}

/// Everything member-visible about a plan except the key bytes.
type PlanShape = (
    Vec<(usize, Vec<EncryptUnder>)>,
    Vec<(MemberId, Vec<usize>)>,
);

fn shape(plan: &RekeyPlan) -> PlanShape {
    (
        plan.changes
            .iter()
            .map(|c| {
                (
                    c.node.raw(),
                    c.encryptions.iter().map(|(under, _)| *under).collect(),
                )
            })
            .collect(),
        plan.unicasts
            .iter()
            .map(|u| (u.member, u.keys.iter().map(|(n, _)| n.raw()).collect()))
            .collect(),
    )
}

/// One backend's protocol state: the tree plus live per-member views,
/// updated exactly as the real distribution flow would.
struct Side {
    tree: KeyTree,
    views: BTreeMap<MemberId, MemberView>,
    rng: Drbg,
}

impl Side {
    fn new(cfg: TreeConfig, backend: TreeBackend, seed: u64) -> Self {
        let mut rng = Drbg::from_seed(seed);
        Side {
            tree: KeyTree::new(cfg.with_backend(backend), &mut rng),
            views: BTreeMap::new(),
            rng,
        }
    }

    fn distribute(&mut self, plan: &RekeyPlan) {
        for v in self.views.values_mut() {
            v.apply_plan(plan);
        }
        for u in &plan.unicasts {
            self.views
                .entry(u.member)
                .or_insert_with(|| MemberView::new(u.member))
                .apply_unicast(u);
        }
    }

    /// Asserts the per-backend member-visible verdicts: departed views
    /// learn nothing, surviving views match the tree's paths.
    fn check_converged(&self) {
        self.tree.check_invariants();
        let mut path = Vec::new();
        for m in self.tree.members() {
            let v = &self.views[&m];
            self.tree.path_keys_into(m, &mut path).unwrap();
            for (node, key) in path.drain(..) {
                assert_eq!(v.key(node), Some(key), "{m} stale at {node}");
            }
        }
    }
}

fn run_equivalence(arity: usize, seed: u64, ops: &[Op]) {
    let cfg = TreeConfig::with_arity(arity);
    // Different RNG streams on purpose: equivalence must not depend on
    // the backends drawing the same bytes.
    let mut e = Side::new(cfg, TreeBackend::Explicit, seed);
    let mut k = Side::new(cfg, TreeBackend::Khf, seed ^ 0x5eed_cafe);
    let mut next_member = 0u64;

    for op in ops {
        match op {
            Op::Join(n) => {
                for _ in 0..*n {
                    let m = MemberId(next_member);
                    next_member += 1;
                    let pe = e.tree.join(m, &mut e.rng).unwrap();
                    let pk = k.tree.join(m, &mut k.rng).unwrap();
                    assert_eq!(shape(&pe), shape(&pk), "join({m}) plans diverge");
                    e.distribute(&pe);
                    k.distribute(&pk);
                }
            }
            Op::LeaveNth(n) => {
                let members: Vec<MemberId> = e.tree.members().collect();
                if members.is_empty() {
                    continue;
                }
                let victim = members[*n as usize % members.len()];
                let pe = e.tree.leave(victim, &mut e.rng).unwrap();
                let pk = k.tree.leave(victim, &mut k.rng).unwrap();
                assert_eq!(shape(&pe), shape(&pk), "leave({victim}) plans diverge");
                // Forward secrecy verdict must agree on both backends.
                let mut gone_e = e.views.remove(&victim).unwrap();
                let mut gone_k = k.views.remove(&victim).unwrap();
                assert_eq!(gone_e.apply_plan(&pe), 0, "explicit forward secrecy");
                assert_eq!(gone_k.apply_plan(&pk), 0, "khf forward secrecy");
                e.distribute(&pe);
                k.distribute(&pk);
            }
            Op::Batch { joins, leave_picks } => {
                let members: Vec<MemberId> = e.tree.members().collect();
                let mut leavers: Vec<MemberId> = if members.is_empty() {
                    Vec::new()
                } else {
                    leave_picks
                        .iter()
                        .map(|p| members[*p as usize % members.len()])
                        .collect()
                };
                leavers.sort_unstable();
                leavers.dedup();
                let joiners: Vec<MemberId> = (0..*joins)
                    .map(|_| {
                        let m = MemberId(next_member);
                        next_member += 1;
                        m
                    })
                    .collect();
                let oe = e.tree.batch(&joiners, &leavers, &mut e.rng).unwrap();
                let ok = k.tree.batch(&joiners, &leavers, &mut k.rng).unwrap();
                assert_eq!(shape(&oe.plan), shape(&ok.plan), "batch plans diverge");
                for v in &leavers {
                    let mut gone_e = e.views.remove(v).unwrap();
                    let mut gone_k = k.views.remove(v).unwrap();
                    assert_eq!(gone_e.apply_plan(&oe.plan), 0);
                    assert_eq!(gone_k.apply_plan(&ok.plan), 0);
                }
                e.distribute(&oe.plan);
                k.distribute(&ok.plan);
            }
            Op::RotateArea => {
                let pe = e.tree.rotate_area_key(&mut e.rng);
                let pk = k.tree.rotate_area_key(&mut k.rng);
                assert_eq!(shape(&pe), shape(&pk), "area rotation plans diverge");
                e.distribute(&pe);
                k.distribute(&pk);
            }
        }

        // Structure equivalence after every operation.
        assert_eq!(e.tree.node_count(), k.tree.node_count());
        assert_eq!(e.tree.member_count(), k.tree.member_count());
        assert_eq!(e.tree.height(), k.tree.height());
        let me: Vec<MemberId> = e.tree.members().collect();
        let mk: Vec<MemberId> = k.tree.members().collect();
        assert_eq!(me, mk, "membership diverged");
        for m in &me {
            assert_eq!(e.tree.leaf_of(*m).unwrap(), k.tree.leaf_of(*m).unwrap());
        }
        for i in 0..e.tree.node_count() {
            let n = mykil_tree::NodeIdx::from_raw(i);
            assert_eq!(e.tree.version_of(n), k.tree.version_of(n), "{n} version");
        }
        e.check_converged();
        k.check_converged();
    }

    // The forest's whole point: resident key material stays bounded by
    // the override set instead of the node count.
    if e.tree.node_count() > 1 {
        assert!(
            k.tree.resident_key_bytes() <= e.tree.resident_key_bytes() + 32,
            "khf resident {} explicit {}",
            k.tree.resident_key_bytes(),
            e.tree.resident_key_bytes()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backends_are_protocol_equivalent_quad(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        run_equivalence(4, seed, &ops);
    }

    #[test]
    fn backends_are_protocol_equivalent_binary(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        run_equivalence(2, seed, &ops);
    }

    /// Snapshot round-trips preserve every per-node version counter on
    /// both backends, and re-snapshotting is byte-identical (the
    /// canonical-form property the fuzz oracle relies on).
    #[test]
    fn snapshot_round_trip_preserves_versions(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        fn check(tree: &KeyTree) {
            let snap = tree.snapshot();
            let restored = KeyTree::restore(&snap).unwrap();
            restored.check_invariants();
            for i in 0..tree.node_count() {
                let n = mykil_tree::NodeIdx::from_raw(i);
                prop_assert_eq_impl(restored.version_of(n), tree.version_of(n));
                prop_assert_eq_impl(
                    restored.node_key(n).as_bytes().to_vec(),
                    tree.node_key(n).as_bytes().to_vec(),
                );
            }
            assert_eq!(restored.snapshot(), snap, "re-snapshot not canonical");
        }
        fn prop_assert_eq_impl<T: PartialEq + std::fmt::Debug>(a: T, b: T) {
            assert_eq!(a, b);
        }

        let cfg = TreeConfig::quad();
        let mut e = Side::new(cfg, TreeBackend::Explicit, seed);
        let mut k = Side::new(cfg, TreeBackend::Khf, seed ^ 1);
        let mut next = 0u64;
        for op in &ops {
            match op {
                Op::Join(n) => {
                    for _ in 0..*n {
                        e.tree.join(MemberId(next), &mut e.rng).unwrap();
                        k.tree.join(MemberId(next), &mut k.rng).unwrap();
                        next += 1;
                    }
                }
                Op::LeaveNth(n) => {
                    let members: Vec<MemberId> = e.tree.members().collect();
                    if let Some(&victim) = members.get(*n as usize % members.len().max(1)) {
                        e.tree.leave(victim, &mut e.rng).unwrap();
                        k.tree.leave(victim, &mut k.rng).unwrap();
                    }
                }
                Op::Batch { .. } | Op::RotateArea => {
                    e.tree.rotate_area_key(&mut e.rng);
                    k.tree.rotate_area_key(&mut k.rng);
                }
            }
        }
        check(&e.tree);
        check(&k.tree);
    }
}
