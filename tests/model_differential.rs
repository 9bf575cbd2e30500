//! `MykilModel` against the protocol it models.
//!
//! Every Mykil row of `gate paper` (Figures 8–10, V-A, V-B, the sweep
//! to 1M) comes from `MykilModel`: one `KeyTree` per area, members dealt
//! round-robin. These tests fill a real `Group` — registration server,
//! area controllers, members, RSA, signed key updates — with the same
//! members and hold the model to what the controllers build and send:
//!
//! - in every area with no child controller, the controller's tree has
//!   the model's leaf-depth histogram, and every member sits at the
//!   same leaf;
//! - a single leave there multicasts exactly the frame of the plan the
//!   model charges for the same victim (Figure 8);
//! - so does a ten-member batched leave, with the victims picked
//!   clustered and spread as Figure 10 picks them;
//! - an area holding `c` child controllers has `n / areas + c` leaves:
//!   the model omits the children. The root-area leave's byte gap is
//!   printed.

use mykil::config::MykilConfig;
use mykil::group::{GroupBuilder, GroupHandle};
use mykil::identity::AreaId;
use mykil::member::Member;
use mykil::rekey::entries_wire_len;
use mykil_baselines::KeyManager;
use mykil_bench::experiments::{clustered_members, mykil, spread_members};
use mykil_crypto::drbg::Drbg;
use mykil_net::{Duration, NodeId};
use mykil_tree::{KeyTree, MemberId, RekeyPlan, TreeConfig};
use std::collections::BTreeMap;

/// The fill gap: each join completes before the next starts, so the
/// controller admits its members in client-id order. Joins are applied
/// to the tree at once; the freshness tick batches their multicast.
const FILL_GAP_MS: u64 = 20;
/// Departures batched into one rekey (Figure 10).
const BATCH: usize = 10;

/// Leaf depth → leaves at that depth.
fn depth_histogram(tree: &KeyTree) -> BTreeMap<usize, usize> {
    let mut histogram = BTreeMap::new();
    for m in tree.members() {
        let leaf = tree.leaf_of(m).expect("a member has a leaf");
        *histogram.entry(tree.path_to_root(leaf).len()).or_default() += 1;
    }
    histogram
}

/// Key bytes a plan carries: what `MykilModel` charges for it.
fn key_bytes(plan: &RekeyPlan) -> u64 {
    (plan.multicast_bytes() + plan.unicast_bytes()) as u64
}

/// A filled group beside the model of the same members. Model member
/// `i` is the protocol's `nodes[i]`, whose client id is `i + 1` (the
/// registration server counts from 1).
struct Pair {
    g: GroupHandle,
    nodes: Vec<NodeId>,
    model: mykil_baselines::MykilModel,
    rng: Drbg,
}

impl Pair {
    fn fill(n: usize, areas: usize) -> Pair {
        let mut g = GroupBuilder::new(0xD1FF).areas(areas).build();
        assert_eq!(g.ac(0).tree().config(), TreeConfig::with_arity(4));
        let nodes = g.add_pooled_members(n, 16, 0xD1FF);
        for &node in &nodes {
            g.sim.invoke(node, |m: &mut Member, ctx| m.start_join(ctx));
            g.run_for(Duration::from_millis(FILL_GAP_MS));
        }
        g.settle();
        let model = mykil(n as u64, areas as u64, 4);
        for (i, &node) in nodes.iter().enumerate() {
            let m = g.member(node);
            assert!(m.is_active(), "member {i} did not join");
            assert_eq!(m.client_id().map(|c| c.0), Some(i as u64 + 1));
            assert_eq!(m.area(), Some(AreaId((i % areas) as u32)));
            assert_eq!(model.area_of(MemberId(i as u64)), Some(i % areas));
        }
        let rng = Drbg::from_seed(0xD1FF);
        Pair { g, nodes, model, rng }
    }

    fn node(&self, m: MemberId) -> NodeId {
        self.nodes[m.0 as usize]
    }

    /// `victims` (model ids) leave area `area` of the protocol at once,
    /// and the controller's next freshness tick flushes them as one
    /// rekey: the bytes of the key update it multicast.
    fn protocol_leave(&mut self, area: usize, victims: &[MemberId]) -> u64 {
        let before = self.g.ac(area).member_count();
        self.g.sim.stats_mut().reset();
        for &v in victims {
            assert!(self.g.sim.invoke(self.node(v), |m: &mut Member, ctx| m.leave(ctx)));
        }
        let tick = MykilConfig::test().rekey_interval;
        self.g.run_for(tick + Duration::from_millis(100));
        let sent = self.g.stats().kind("key-update");
        assert_eq!(sent.messages_sent, 1, "one rekey multicast in area {area}");
        assert_eq!(self.g.ac(area).member_count(), before - victims.len());
        sent.bytes_sent
    }

    /// The signed key-update message carrying `plan` in area `area`:
    /// tag, area, epoch, the body's and the signature's length
    /// prefixes, the entries and the signature.
    fn frame(&self, area: usize, plan: &RekeyPlan) -> u64 {
        let signature = self.g.ac(area).public_key().bits() / 8;
        (1 + 4 + 8 + 4 + 4 + entries_wire_len(plan) + signature) as u64
    }

    /// The model's tree of `area`, as it stands.
    fn mirror(&self, area: usize) -> KeyTree {
        self.model.area_tree(area).clone()
    }

    /// Area `area`, which has no child controller: the trees agree,
    /// and a single leave (Figure 8) and a clustered and a spread
    /// ten-member batch (Figure 10) each cost what the model charges.
    fn check_leaf_area(&mut self, area: usize, n: usize) {
        self.check_same_tree(area);

        // Figure 8's victim `n / 2`, moved into this area.
        let victim = MemberId((n / 2 + area) as u64);
        assert_eq!(self.model.area_of(victim), Some(area));
        let plan = self.mirror(area).leave(victim, &mut self.rng).expect("victim");
        let charged = self.model.leave(victim, &mut self.rng).total_key_bytes();
        assert_eq!(charged, key_bytes(&plan), "area {area}: Figure 8 leave");
        let sent = self.protocol_leave(area, &[victim]);
        assert_eq!(sent, self.frame(area, &plan), "area {area}: Figure 8 leave on the wire");

        for (placement, pick) in [
            ("clustered", clustered_members as fn(&KeyTree, usize) -> Vec<MemberId>),
            ("spread", spread_members),
        ] {
            let victims = pick(self.model.area_tree(area), BATCH);
            assert_eq!(victims.len(), BATCH);
            let out = self.mirror(area).batch_leave(&victims, &mut self.rng).expect("victims");
            let charged = self.model.batch_leave(&victims, &mut self.rng).multicast_bytes;
            let what = format!("area {area}: Figure 10 {placement} batch");
            assert_eq!(charged, out.plan.multicast_bytes() as u64, "{what}");
            let sent = self.protocol_leave(area, &victims);
            assert_eq!(sent, self.frame(area, &out.plan), "{what} on the wire");
        }
        self.check_same_tree(area);
    }

    /// The controller's tree holds the model's members at the model's
    /// leaves.
    fn check_same_tree(&self, area: usize) {
        let (ac, model) = (self.g.ac(area).tree(), self.model.area_tree(area));
        assert_eq!(depth_histogram(ac), depth_histogram(model), "area {area}");
        for m in model.members() {
            let client = MemberId(m.0 + 1);
            assert_eq!(ac.leaf_of(client), model.leaf_of(m), "area {area}: {m:?}");
        }
    }
}

/// Fills `n` members over `areas` areas and checks every area. Areas
/// hang in a binary tree (area `i` under `(i - 1) / 2`), so area `i`
/// holds the controllers of areas `2i + 1` and `2i + 2` that exist.
fn model_matches_protocol(n: usize, areas: usize) {
    let mut pair = Pair::fill(n, areas);
    for area in 0..areas {
        let children = (2 * area + 1..=2 * area + 2).filter(|&c| c < areas).count();
        if children == 0 {
            pair.check_leaf_area(area, n);
            continue;
        }
        let leaves = pair.g.ac(area).tree().member_count();
        assert_eq!(leaves, n / areas + children, "area {area}: members plus child controllers");
        if area > 0 {
            continue;
        }
        // Figure 8's victim is in the root area, beside the children.
        // What a leave costs there, member by member, with and without
        // the children's leaves.
        let protocol = pair.g.ac(0).tree().clone();
        let mut gaps = BTreeMap::<i64, usize>::new();
        for m in pair.model.area_tree(0).members() {
            let cost = protocol.clone().leave(MemberId(m.0 + 1), &mut pair.rng).expect("member");
            let charged = pair.mirror(0).leave(m, &mut pair.rng).expect("member");
            *gaps.entry(key_bytes(&cost) as i64 - key_bytes(&charged) as i64).or_default() += 1;
        }
        let victim = MemberId((n / 2) as u64);
        let plan = protocol.clone().leave(MemberId(victim.0 + 1), &mut pair.rng).expect("victim");
        let charged = pair.model.leave(victim, &mut pair.rng).total_key_bytes();
        let sent = pair.protocol_leave(0, &[victim]);
        assert_eq!(sent, pair.frame(0, &plan), "root-area leave on the wire");
        let cost = key_bytes(&plan);
        println!(
            "n = {n}, {areas} areas: Figure 8's root-area leave costs {cost} key bytes, the \
             model charges {charged} (gap {}); over all {} root-area members, key-byte gap \
             -> members: {gaps:?}",
            cost as i64 - charged as i64,
            n / areas,
        );
    }
}

#[test]
fn model_matches_protocol_in_one_area() {
    model_matches_protocol(1024, 1);
}

#[test]
fn model_matches_protocol_in_two_areas() {
    model_matches_protocol(1024, 2);
}

#[test]
fn model_matches_protocol_in_four_areas() {
    model_matches_protocol(1024, 4);
}

#[test]
fn model_matches_protocol_in_eight_areas() {
    model_matches_protocol(1024, 8);
}

/// The same at n = 4,096 (run with `--ignored`; the CI nightly does).
#[test]
#[ignore = "about a minute: run with --ignored"]
fn model_matches_protocol_at_4096_members() {
    for areas in [1, 2, 4, 8] {
        model_matches_protocol(4096, areas);
    }
}
