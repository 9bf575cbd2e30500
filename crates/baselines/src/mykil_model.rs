//! The algorithmic Mykil model: one auxiliary-key tree per area.
//!
//! This is the rekeying core of Mykil without the protocol plumbing
//! (handshakes, tickets, liveness), used for large-scale byte
//! accounting: the bandwidth figures depend only on which keys change
//! and how they are encrypted, which this model reproduces exactly.
//! Members are assigned to areas round-robin, mirroring the
//! registration server's load-balancing policy.

use crate::traffic::RekeyTraffic;
use crate::KeyManager;
use mykil_tree::{KeyTree, MemberId, RekeyPlan, TreeConfig, KEY_LEN};
use rand::RngCore;
use std::collections::BTreeMap;

/// Mykil's area-partitioned key manager.
#[derive(Debug, Clone)]
pub struct MykilModel {
    areas: Vec<KeyTree>,
    area_of: BTreeMap<MemberId, usize>,
    next_area: usize,
}

fn traffic_of(plan: &RekeyPlan) -> RekeyTraffic {
    RekeyTraffic {
        multicast_bytes: plan.multicast_bytes() as u64,
        multicast_messages: u64::from(!plan.changes.is_empty()),
        unicast_bytes: plan.unicast_bytes() as u64,
        unicast_messages: plan.unicasts.len() as u64,
    }
}

impl MykilModel {
    /// Creates a model with `areas` areas.
    ///
    /// # Panics
    ///
    /// Panics when `areas` is zero.
    pub fn new<R: RngCore + ?Sized>(areas: usize, cfg: TreeConfig, rng: &mut R) -> MykilModel {
        assert!(areas > 0, "at least one area required");
        MykilModel {
            areas: (0..areas).map(|_| KeyTree::new(cfg, rng)).collect(),
            area_of: BTreeMap::new(),
            next_area: 0,
        }
    }

    /// The area a member lives in.
    pub fn area_of(&self, member: MemberId) -> Option<usize> {
        self.area_of.get(&member).copied()
    }

    /// A specific area's tree (inspection).
    pub fn area_tree(&self, area: usize) -> &KeyTree {
        &self.areas[area]
    }

    /// Aggregated leave of members that may span areas: each affected
    /// area performs one batched rekey (Section III-E per-area
    /// aggregation).
    pub fn batch_leave_multi_area(
        &mut self,
        members: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> RekeyTraffic {
        let mut by_area: BTreeMap<usize, Vec<MemberId>> = BTreeMap::new();
        for &m in members {
            if let Some(a) = self.area_of.remove(&m) {
                by_area.entry(a).or_default().push(m);
            }
        }
        let mut total = RekeyTraffic::default();
        for (area, leavers) in by_area {
            if let Ok(out) = self.areas[area].batch_leave(&leavers, rng) {
                total += traffic_of(&out.plan);
            }
        }
        total
    }
}

impl KeyManager for MykilModel {
    fn join(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic {
        if self.area_of.contains_key(&member) {
            return RekeyTraffic::default();
        }
        let area = self.next_area % self.areas.len();
        self.next_area += 1;
        match self.areas[area].join(member, rng) {
            Ok(plan) => {
                self.area_of.insert(member, area);
                traffic_of(&plan)
            }
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn leave(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic {
        let Some(area) = self.area_of.remove(&member) else {
            return RekeyTraffic::default();
        };
        match self.areas[area].leave(member, rng) {
            Ok(plan) => traffic_of(&plan),
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn batch_leave(&mut self, members: &[MemberId], rng: &mut dyn RngCore) -> RekeyTraffic {
        self.batch_leave_multi_area(members, rng)
    }

    fn member_count(&self) -> usize {
        self.area_of.len()
    }

    fn member_storage_bytes(&self) -> u64 {
        // Path length in the (largest) area tree.
        let h = self.areas.iter().map(|t| t.height()).max().unwrap_or(0);
        (h as u64 + 1) * KEY_LEN as u64
    }

    fn controller_storage_bytes(&self) -> u64 {
        self.areas
            .iter()
            .map(|t| t.node_count() as u64 * KEY_LEN as u64)
            .max()
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "mykil"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    #[test]
    fn members_spread_round_robin() {
        let mut rng = Drbg::from_seed(1);
        let mut m = MykilModel::new(4, TreeConfig::quad(), &mut rng);
        crate::populate(&mut m, 40, &mut rng);
        for area in 0..4 {
            assert_eq!(m.area_tree(area).member_count(), 10);
        }
        assert_eq!(m.area_of(MemberId(0)), Some(0));
        assert_eq!(m.area_of(MemberId(1)), Some(1));
    }

    #[test]
    fn leave_touches_only_one_area() {
        let mut rng = Drbg::from_seed(2);
        let mut m = MykilModel::new(4, TreeConfig::binary(), &mut rng);
        crate::populate(&mut m, 400, &mut rng);
        let keys_before: Vec<_> = (0..4).map(|a| m.area_tree(a).area_key()).collect();
        let victim = MemberId(5);
        let victim_area = m.area_of(victim).unwrap();
        m.leave(victim, &mut rng);
        for (a, before) in keys_before.iter().enumerate() {
            if a == victim_area {
                assert_ne!(m.area_tree(a).area_key(), *before);
            } else {
                assert_eq!(m.area_tree(a).area_key(), *before);
            }
        }
    }

    #[test]
    fn leave_cost_depends_on_area_not_group() {
        let mut rng = Drbg::from_seed(3);
        // Same total group size, different area counts.
        let mut few = MykilModel::new(2, TreeConfig::binary(), &mut rng);
        let mut many = MykilModel::new(16, TreeConfig::binary(), &mut rng);
        crate::populate(&mut few, 1600, &mut rng);
        crate::populate(&mut many, 1600, &mut rng);
        let t_few = few.leave(MemberId(100), &mut rng).total_key_bytes();
        let t_many = many.leave(MemberId(100), &mut rng).total_key_bytes();
        assert!(t_many < t_few, "more areas must mean cheaper leaves");
    }

    #[test]
    fn multi_area_batch_leave() {
        let mut rng = Drbg::from_seed(4);
        let mut m = MykilModel::new(4, TreeConfig::quad(), &mut rng);
        crate::populate(&mut m, 100, &mut rng);
        // Members 0..8 spread across all areas round-robin.
        let leavers: Vec<MemberId> = (0..8).map(MemberId).collect();
        let t = m.batch_leave(&leavers, &mut rng);
        assert_eq!(m.member_count(), 92);
        assert!(t.multicast_messages <= 4, "one rekey per area at most");
    }

    #[test]
    fn storage_between_iolus_and_lkh() {
        let mut rng = Drbg::from_seed(5);
        let mut mykil = MykilModel::new(20, TreeConfig::binary(), &mut rng);
        let mut lkh = crate::FlatLkh::new(TreeConfig::binary(), &mut rng);
        crate::populate(&mut mykil, 5000, &mut rng);
        crate::populate(&mut lkh, 5000, &mut rng);
        assert!(mykil.member_storage_bytes() < lkh.member_storage_bytes());
        assert!(mykil.controller_storage_bytes() < lkh.controller_storage_bytes());
        assert!(mykil.member_storage_bytes() > 32);
    }

    #[test]
    #[should_panic(expected = "at least one area")]
    fn zero_areas_panics() {
        let mut rng = Drbg::from_seed(6);
        let _ = MykilModel::new(0, TreeConfig::quad(), &mut rng);
    }
}
