//! Tree snapshots for area-controller replication.
//!
//! Section IV-C of the paper: a Mykil area controller is replicated with
//! a primary-backup scheme, and the replicated state includes "the
//! complete auxiliary tree". [`KeyTree::snapshot`] serializes exactly
//! that state; [`KeyTree::restore`] rebuilds a tree a backup can take
//! over with.
//!
//! Two formats exist, one per [`TreeBackend`](crate::TreeBackend),
//! distinguished by a 4-byte magic:
//!
//! - `MKT1` (explicit keys): structure, per-node key bytes, versions,
//!   occupancy — byte-for-byte the original format.
//! - `MKH1` (keyed-hash forest): structure, versions, occupancy, then
//!   the 32-byte forest secret and the override table. Derived keys are
//!   never serialized; the backup re-derives them, so the snapshot is
//!   O(updated set) like the resident state. Per-node `version`
//!   counters travel in both formats — a restored replica that reset
//!   them would derive stale `(node, version)` keys and desynchronize
//!   from the members.
//!
//! `snapshot` writes the magic of the tree's backend and `restore`
//! picks the backend from the magic, so replicated state moves between
//! controllers regardless of backend and `config().backend()` of a
//! restored tree always names the format it came from.

use crate::tree::{KeyTree, TreeBackend, TreeConfig};
use crate::MemberId;
use std::fmt;

/// Error returned by [`KeyTree::restore`] on corrupt input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(&'static str);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt tree snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let (&b, rest) = self.0.split_first().ok_or(SnapshotError("truncated"))?;
        self.0 = rest;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        if self.0.len() < 8 {
            return Err(SnapshotError("truncated"));
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        let arr: [u8; 8] = head.try_into().map_err(|_| SnapshotError("truncated"))?;
        Ok(u64::from_be_bytes(arr))
    }
}

/// Magic prefix of each backend's snapshot format.
fn magic(backend: TreeBackend) -> &'static [u8; 4] {
    match backend {
        TreeBackend::Explicit => b"MKT1",
        TreeBackend::Khf => b"MKH1",
    }
}

impl KeyTree {
    /// Serializes the complete tree (structure, key state, versions,
    /// occupancy) for transfer to a backup controller.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.node_count() * 40 + 16);
        out.extend_from_slice(magic(self.config().backend()));
        out.push(self.config().arity() as u8);
        out.extend_from_slice(&(self.node_count() as u64).to_be_bytes());
        for i in 0..self.node_count() {
            let node = crate::tree::NodeIdx::from_raw(i);
            let parent = self.parent_of(node);
            out.extend_from_slice(
                &(parent.map(|p| p.raw() as u64 + 1).unwrap_or(0)).to_be_bytes(),
            );
            self.store().snapshot_node(i, &mut out);
            out.extend_from_slice(&self.version_of(node).to_be_bytes());
            match self.occupant_of(node) {
                Some(m) => {
                    out.push(1);
                    out.extend_from_slice(&m.0.to_be_bytes());
                }
                None => out.push(0),
            }
        }
        self.store().snapshot_tail(&mut out);
        out
    }

    /// Rebuilds a tree from [`Self::snapshot`] output of either
    /// backend, chosen by the 4-byte magic.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncated or malformed input.
    pub fn restore(bytes: &[u8]) -> Result<KeyTree, SnapshotError> {
        let backend = [TreeBackend::Explicit, TreeBackend::Khf]
            .into_iter()
            .find(|&b| bytes.starts_with(magic(b)))
            .ok_or(SnapshotError("bad magic"))?;
        let mut r = Reader(&bytes[4..]);
        let arity = r.u8()? as usize;
        if !(2..=16).contains(&arity) {
            return Err(SnapshotError("bad arity"));
        }
        let count = r.u64()? as usize;
        if count == 0 {
            return Err(SnapshotError("no root"));
        }
        // Bound allocation by what the input can actually hold: every
        // node costs at least 17 bytes (parent u64, version u64, and an
        // occupancy tag), so a claimed count past that is a lie and
        // must not reach `Vec::with_capacity`.
        if count > r.0.len() / 17 {
            return Err(SnapshotError("node count exceeds input"));
        }
        let mut tree =
            KeyTree::restore_shell(TreeConfig::with_arity(arity).with_backend(backend), count);
        for i in 0..count {
            let parent_raw = r.u64()?;
            let parent = if parent_raw == 0 {
                None
            } else {
                let p = parent_raw as usize - 1;
                if p >= i {
                    return Err(SnapshotError("parent after child"));
                }
                Some(crate::tree::NodeIdx::from_raw(p))
            };
            if (parent.is_none()) != (i == 0) {
                return Err(SnapshotError("root/parent mismatch"));
            }
            tree.store_mut()
                .restore_node(i, parent.map(|p| p.raw()), &mut r.0)
                .map_err(SnapshotError)?;
            let version = r.u64()?;
            let occupant = match r.u8()? {
                0 => None,
                1 => Some(MemberId(r.u64()?)),
                _ => return Err(SnapshotError("bad occupancy tag")),
            };
            tree.restore_node(i, parent, version, occupant)
                .map_err(|_| SnapshotError("inconsistent node"))?;
        }
        tree.store_mut()
            .restore_tail(count, &mut r.0)
            .map_err(SnapshotError)?;
        if !r.0.is_empty() {
            return Err(SnapshotError("trailing bytes"));
        }
        if tree.has_interior_occupant() {
            return Err(SnapshotError("occupant on interior node"));
        }
        tree.rebuild_indices();
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeIdx;
    use mykil_crypto::drbg::Drbg;

    const BACKENDS: [TreeBackend; 2] = [TreeBackend::Explicit, TreeBackend::Khf];

    fn sample_tree(backend: TreeBackend, n: u64) -> KeyTree {
        let mut rng = Drbg::from_seed(9);
        let mut t = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
        for m in 0..n {
            t.join(MemberId(m), &mut rng).unwrap();
        }
        for m in [1u64, 4, 9] {
            if m < n {
                t.leave(MemberId(m), &mut rng).unwrap();
            }
        }
        t
    }

    fn paths_equal(a: &KeyTree, b: &KeyTree) {
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for m in a.members() {
            assert!(b.contains(m));
            a.path_keys_into(m, &mut pa).unwrap();
            b.path_keys_into(m, &mut pb).unwrap();
            assert_eq!(pa, pb, "{m} path differs");
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        for backend in BACKENDS {
            let tree = sample_tree(backend, 30);
            let snap = tree.snapshot();
            let restored = KeyTree::restore(&snap).unwrap();
            restored.check_invariants();
            // The config, the format written and the tree read back
            // name the same backend.
            assert_eq!(tree.config().backend(), backend);
            assert_eq!(&snap[..4], magic(backend));
            assert_eq!(restored.config().backend(), backend);
            assert_eq!(restored.node_count(), tree.node_count());
            assert_eq!(restored.member_count(), tree.member_count());
            assert_eq!(restored.area_key(), tree.area_key());
            assert_eq!(restored.resident_key_bytes(), tree.resident_key_bytes());
            for i in 0..tree.node_count() {
                let n = NodeIdx::from_raw(i);
                assert_eq!(restored.version_of(n), tree.version_of(n), "{n} version");
            }
            paths_equal(&tree, &restored);
        }
    }

    #[test]
    fn khf_snapshot_is_compact() {
        let tree = sample_tree(TreeBackend::Khf, 200);
        let explicit = sample_tree(TreeBackend::Explicit, 200);
        // No per-node key bytes: the KHF image is 16 bytes/node smaller,
        // minus the forest secret and the (small) override table.
        assert!(
            tree.snapshot().len() < explicit.snapshot().len(),
            "khf {} explicit {}",
            tree.snapshot().len(),
            explicit.snapshot().len()
        );
    }

    #[test]
    fn restored_tree_is_operable() {
        for backend in BACKENDS {
            let tree = sample_tree(backend, 20);
            let mut rng = Drbg::from_seed(10);
            let mut restored = KeyTree::restore(&tree.snapshot()).unwrap();
            // The backup can continue where the primary stopped.
            restored.join(MemberId(1000), &mut rng).unwrap();
            restored.leave(MemberId(0), &mut rng).unwrap();
            restored.check_invariants();
            assert_eq!(restored.member_count(), tree.member_count());
        }
    }

    #[test]
    fn empty_tree_round_trips() {
        let mut rng = Drbg::from_seed(11);
        let tree = KeyTree::new(TreeConfig::binary(), &mut rng);
        let restored = KeyTree::restore(&tree.snapshot()).unwrap();
        restored.check_invariants();
        assert_eq!(restored.node_count(), 1);
        assert_eq!(restored.area_key(), tree.area_key());
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        assert!(KeyTree::restore(&[]).is_err());
        assert!(KeyTree::restore(b"XXXX").is_err());
        assert!(KeyTree::restore(b"ZZZZrest").is_err());
        for backend in BACKENDS {
            let snap = sample_tree(backend, 10).snapshot();
            assert!(KeyTree::restore(&snap[..snap.len() - 1]).is_err());
            let mut extra = snap.clone();
            extra.push(0);
            assert!(KeyTree::restore(&extra).is_err());
            let mut bad_magic = snap.clone();
            bad_magic[0] = b'Z';
            assert!(KeyTree::restore(&bad_magic).is_err());
            // One backend's body does not parse under the other's magic.
            let mut other_magic = snap;
            other_magic[2] ^= b'T' ^ b'H';
            assert!(KeyTree::restore(&other_magic).is_err());
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        for backend in BACKENDS {
            let tree = sample_tree(backend, 15);
            assert_eq!(tree.snapshot(), tree.snapshot());
            let restored = KeyTree::restore(&tree.snapshot()).unwrap();
            assert_eq!(restored.snapshot(), tree.snapshot());
        }
    }
}
