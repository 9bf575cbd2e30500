//! Golden digests: byte identity of the planner across commits.
//!
//! A fixed-seed 200-op join/leave/batch/rotate churn runs on each
//! backend; SHA-256 over every plan's key bytes followed by the final
//! `snapshot()` is compared with a constant recorded at the last
//! commit before the tree became one concrete type. The digest moves if the
//! RNG draw order, a derivation label, the plan order or either
//! snapshot format moves — which the within-run chaos replay and the
//! re-encode fuzz oracle cannot see, because they compare a commit
//! with itself.

use mykil_crypto::drbg::Drbg;
use mykil_crypto::sha256::Sha256;
use mykil_tree::{AreaTree, MemberId, RekeyPlan, TreeBackend, TreeConfig};

const OPS: usize = 200;

fn absorb(h: &mut Sha256, plan: &RekeyPlan) {
    for c in &plan.changes {
        h.update(&(c.node.raw() as u64).to_be_bytes());
        h.update(c.new_key.as_bytes());
        for (_, under) in &c.encryptions {
            h.update(under.as_bytes());
        }
    }
    for u in &plan.unicasts {
        h.update(&u.member.0.to_be_bytes());
        for (node, key) in &u.keys {
            h.update(&(node.raw() as u64).to_be_bytes());
            h.update(key.as_bytes());
        }
    }
}

/// Removes up to `n` members from `present`, chosen by `pick`.
fn take(present: &mut Vec<MemberId>, pick: &mut Drbg, n: u64) -> Vec<MemberId> {
    let n = (n as usize).min(present.len());
    (0..n)
        .map(|_| present.swap_remove(pick.gen_range(present.len() as u64) as usize))
        .collect()
}

/// The schedule is drawn from its own generator so the tree's draws
/// are the only ones on `rng`.
fn churn_digest(backend: TreeBackend) -> String {
    let mut rng = Drbg::from_seed(0x006d_796b_696c);
    let mut pick = Drbg::from_seed(13);
    let mut tree = AreaTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    let mut h = Sha256::new();
    let mut present: Vec<MemberId> = Vec::new();
    let mut next = 0u64;
    for _ in 0..OPS {
        let plan = match pick.gen_range(8) {
            0..=2 => {
                present.push(MemberId(next));
                next += 1;
                tree.join(MemberId(next - 1), &mut rng).unwrap()
            }
            3 | 4 if !present.is_empty() => {
                let m = take(&mut present, &mut pick, 1);
                tree.leave(m[0], &mut rng).unwrap()
            }
            5 | 6 => {
                let n = pick.gen_range(4);
                let leaves = take(&mut present, &mut pick, n);
                let joins: Vec<MemberId> = (next..next + pick.gen_range(5)).map(MemberId).collect();
                next += joins.len() as u64;
                present.extend(&joins);
                tree.batch(&joins, &leaves, &mut rng).unwrap().plan
            }
            _ => tree.rotate_area_key(&mut rng),
        };
        absorb(&mut h, &plan);
    }
    tree.check_invariants();
    assert!(tree.member_count() > 20, "churn must grow a real tree");
    h.update(&tree.snapshot());
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// Recorded at commit dbe180e, the last one with the generic tree.
const EXPLICIT_DIGEST: &str = "1a339c5f114ae93054d8f85cb10b7c058085bcb832b651ad594effff4edc7008";
const KHF_DIGEST: &str = "0fdf80c8ed64a5f378819a0e35af46166feb40a49adf608ad56e801e11df9312";

#[test]
fn plans_and_snapshots_are_byte_identical_to_the_recorded_commit() {
    assert_eq!(churn_digest(TreeBackend::Explicit), EXPLICIT_DIGEST);
    assert_eq!(churn_digest(TreeBackend::Khf), KHF_DIGEST);
}
