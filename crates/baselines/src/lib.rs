//! Baseline key-management protocols for comparison with Mykil.
//!
//! The paper's evaluation (Section V, Figures 8–10) compares Mykil
//! against the two protocol families it descends from:
//!
//! - [`iolus::IolusGroup`] — group-based hierarchy (Mittra, SIGCOMM'97):
//!   flat subgroups with a pairwise key per member; a leave costs one
//!   re-encrypted subgroup key *per member*.
//! - [`lkh::FlatLkh`] — key-based hierarchy (Wong/Gouda/Lam,
//!   SIGCOMM'98): one global auxiliary-key tree over all members; a
//!   leave costs `O(arity·log n)` encrypted keys in a single multicast.
//! - [`mykil_model::MykilModel`] — the algorithmic core of Mykil (areas
//!   each running their own tree), used for large-scale byte accounting
//!   where simulating 100,000 protocol nodes is unnecessary: the
//!   figures measure *key bytes*, which depend only on the tree
//!   algebra.
//!
//! All three implement [`KeyManager`], so the benches sweep them
//! uniformly. Traffic is counted in [`RekeyTraffic`] units identical to
//! the paper's arithmetic (16 bytes per encrypted key).

#![forbid(unsafe_code)]

pub mod iolus;
pub mod lkh;
pub mod mykil_model;
pub mod traffic;

pub use iolus::IolusGroup;
pub use lkh::FlatLkh;
pub use mykil_model::MykilModel;
pub use traffic::RekeyTraffic;

use mykil_tree::MemberId;
use rand::RngCore;

/// A group key manager under test: the operations the figures sweep.
pub trait KeyManager {
    /// Admits a member, returning the rekey traffic generated.
    fn join(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic;

    /// Removes a member, returning the rekey traffic generated.
    fn leave(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic;

    /// Removes several members as one aggregated rekey (protocols
    /// without aggregation fall back to sequential leaves).
    fn batch_leave(&mut self, members: &[MemberId], rng: &mut dyn RngCore) -> RekeyTraffic {
        let mut total = RekeyTraffic::default();
        for &m in members {
            total += self.leave(m, rng);
        }
        total
    }

    /// Current member count.
    fn member_count(&self) -> usize;

    /// Symmetric-key bytes stored by one (typical) member
    /// (Section V-A).
    fn member_storage_bytes(&self) -> u64;

    /// Symmetric-key bytes stored by the busiest controller
    /// (Section V-A).
    fn controller_storage_bytes(&self) -> u64;

    /// Protocol name for reports.
    fn name(&self) -> &'static str;
}

/// Populates a manager with `n` members (ids `0..n`), discarding the
/// setup traffic.
pub fn populate<M: KeyManager + ?Sized>(manager: &mut M, n: u64, rng: &mut dyn RngCore) {
    for m in 0..n {
        let _ = manager.join(MemberId(m), rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    /// All three managers agree on basic bookkeeping.
    #[test]
    fn managers_track_membership() {
        let mut rng = Drbg::from_seed(1);
        let mut managers: Vec<Box<dyn KeyManager>> = vec![
            Box::new(IolusGroup::new(16)),
            Box::new(FlatLkh::new(mykil_tree::TreeConfig::binary(), &mut rng)),
            Box::new(MykilModel::new(4, mykil_tree::TreeConfig::binary(), &mut rng)),
        ];
        for mgr in managers.iter_mut() {
            populate(mgr.as_mut(), 50, &mut rng);
            assert_eq!(mgr.member_count(), 50, "{}", mgr.name());
            let t = mgr.leave(MemberId(25), &mut rng);
            assert!(t.total_key_bytes() > 0, "{}", mgr.name());
            assert_eq!(mgr.member_count(), 49, "{}", mgr.name());
        }
    }

    /// The ordering the paper reports for a leave event:
    /// LKH ≈ Mykil ≪ Iolus at realistic sizes.
    #[test]
    fn leave_cost_ordering_matches_figure8() {
        let mut rng = Drbg::from_seed(2);
        let n = 2000u64;
        let mut iolus = IolusGroup::new(16);
        let mut lkh = FlatLkh::new(mykil_tree::TreeConfig::binary(), &mut rng);
        let mut mykil = MykilModel::new(8, mykil_tree::TreeConfig::binary(), &mut rng);
        populate(&mut iolus, n, &mut rng);
        populate(&mut lkh, n, &mut rng);
        populate(&mut mykil, n, &mut rng);

        let i = iolus.leave(MemberId(500), &mut rng).total_key_bytes();
        let l = lkh.leave(MemberId(500), &mut rng).total_key_bytes();
        let m = mykil.leave(MemberId(500), &mut rng).total_key_bytes();
        assert!(m <= l, "mykil {m} vs lkh {l}");
        assert!(l * 20 < i, "lkh {l} vs iolus {i}");
    }
}
