//! Where a node's key comes from — the only backend-dependent part of
//! the tree.
//!
//! The tree structure (arena, parent links, occupancy) and all rekey
//! planning are the same for every backend; what differs is where node
//! *keys* live. [`Keys`] is that difference as a two-variant enum,
//! chosen once when a tree is built (from
//! [`TreeConfig::backend`](crate::TreeConfig::backend)) or restored
//! (from the snapshot magic): `Explicit` stores every key — the
//! paper's design, O(n) resident key material per area — while `Khf`
//! derives keys on demand from a keyed-hash forest and stores only the
//! 32-byte forest secret plus explicit overrides for leave-style
//! rotations, making resident key bytes O(updated set).
//!
//! # KHF derivation labels
//!
//! Derivation is rooted in an AC-only forest secret `F` (members only
//! ever receive key *values* through rekey plans, never `F` or any
//! node secret, so HMAC preimage resistance keeps unseen keys secret):
//!
//! ```text
//! secret(root)  = F
//! secret(n)     = HMAC-SHA256(secret(parent(n)), "mykil-khf-node" || n as u64 BE)
//! key(n, v)     = HMAC-SHA256(secret(n), "mykil-khf-key" || v as u64 BE)[..16]
//! ```
//!
//! A *derivable* rotation (join-style: old holders may keep reading
//! under the previous key) just bumps the version, so the fresh key
//! costs zero storage. A *fresh* rotation (leave-style: the new key
//! must be independent of everything a departed member could ever have
//! been shown, and of the static forest in case a subtree secret was
//! delegated) draws a random key and records it in the override map.
//! A later derivable rotation on the same node drops the override and
//! returns the node to the forest.
//!
//! Node secrets never change (the forest secret and the node indices
//! are fixed), so one plan derives each ancestor secret once: every
//! entry point of the tree threads a [`SecretMemo`] through the keys it
//! reads, and drops (wipes) it when the plan is built. Nothing derived
//! stays resident between plans. With its ancestors memoised a key
//! costs six SHA-256 compressions (child secret, keying it, the key),
//! an ancestor's own key two.

use crate::tree::TreeBackend;
use mykil_crypto::hmac::{HmacSha256, Tag};
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::SYMMETRIC_KEY_LEN;
use rand::RngCore;
use std::collections::BTreeMap;

/// How a key rotation may be produced by a derivation-based backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RotateStyle {
    /// Join-style: every current holder of the old key is allowed to
    /// see the new one, so a version-bumped derived key is acceptable.
    Derivable,
    /// Leave-style: the new key must be independent of the derivation
    /// forest (forward secrecy against secret delegation), so the
    /// backend must draw fresh randomness.
    Fresh,
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], &'static str> {
    if input.len() < n {
        return Err("truncated");
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

fn take_u64(input: &mut &[u8]) -> Result<u64, &'static str> {
    let head = take(input, 8)?;
    let arr: [u8; 8] = head.try_into().map_err(|_| "truncated")?;
    Ok(u64::from_be_bytes(arr))
}

fn take_key(input: &mut &[u8]) -> Result<SymmetricKey, &'static str> {
    let bytes: [u8; SYMMETRIC_KEY_LEN] = take(input, SYMMETRIC_KEY_LEN)?
        .try_into()
        .map_err(|_| "truncated")?;
    Ok(SymmetricKey::from_bytes(bytes))
}

/// Key storage of one tree.
///
/// Node indices are arena indices (`NodeIdx::raw`); versions are the
/// per-node counters bumped by every rotation.
#[derive(Debug, Clone)]
pub(crate) enum Keys {
    /// The paper's backend: one stored key per node, indexed by node.
    Explicit(Vec<SymmetricKey>),
    /// Keyed-hash forest: keys are derived, not stored.
    Khf(KhfKeys),
}

impl Keys {
    /// Creates storage holding only the root key (node 0, version 0).
    pub(crate) fn new_root<R: RngCore + ?Sized>(backend: TreeBackend, rng: &mut R) -> Keys {
        match backend {
            TreeBackend::Explicit => Keys::Explicit(vec![SymmetricKey::random(rng)]),
            TreeBackend::Khf => {
                let mut forest = [0u8; FOREST_SECRET_LEN];
                rng.fill_bytes(&mut forest);
                Keys::Khf(KhfKeys {
                    forest,
                    parent: vec![None],
                    overrides: BTreeMap::new(),
                })
            }
        }
    }

    /// Registers a newly allocated node (version 0). Nodes arrive in
    /// index order; `parent` is `None` only for the root.
    pub(crate) fn on_alloc<R: RngCore + ?Sized>(
        &mut self,
        node: usize,
        parent: Option<usize>,
        rng: &mut R,
    ) {
        match self {
            Keys::Explicit(keys) => {
                debug_assert_eq!(node, keys.len());
                keys.push(SymmetricKey::random(rng));
            }
            Keys::Khf(khf) => {
                debug_assert_eq!(node, khf.parent.len());
                khf.parent.push(parent);
            }
        }
    }

    /// The key of `node` at `version`, owned (a derived key has no
    /// stored value to borrow). `memo` carries the node secrets already
    /// derived for the plan being built.
    pub(crate) fn key(&self, node: usize, version: u64, memo: &mut SecretMemo) -> SymmetricKey {
        match self {
            Keys::Explicit(keys) => keys[node].clone(),
            Keys::Khf(khf) => khf.key(node, version, memo),
        }
    }

    /// Gives `node` its next key. The caller bumps the version and, if
    /// its plan distributes the new key under the previous one, reads
    /// that with [`Self::key`] first; nothing is derived here.
    pub(crate) fn rotate<R: RngCore + ?Sized>(
        &mut self,
        node: usize,
        style: RotateStyle,
        rng: &mut R,
    ) {
        match self {
            Keys::Explicit(keys) => keys[node] = SymmetricKey::random(rng),
            Keys::Khf(khf) => match style {
                // The node rejoins the forest: the bumped version
                // derives a fresh-looking key and the override (if
                // any) is dropped.
                RotateStyle::Derivable => {
                    khf.overrides.remove(&node);
                }
                RotateStyle::Fresh => {
                    khf.overrides.insert(node, SymmetricKey::random(rng));
                }
            },
        }
    }

    /// Bytes of key material resident in memory (the controller
    /// storage cost `gate rekey` tracks per backend).
    pub(crate) fn resident_key_bytes(&self) -> usize {
        match self {
            Keys::Explicit(keys) => keys.len() * SYMMETRIC_KEY_LEN,
            Keys::Khf(khf) => FOREST_SECRET_LEN + khf.overrides.len() * SYMMETRIC_KEY_LEN,
        }
    }

    // ---- snapshot plumbing (see `snapshot.rs`) ----

    /// Empty storage for restore; nodes arrive via
    /// [`Self::restore_node`], backend state via [`Self::restore_tail`].
    pub(crate) fn restore_shell(backend: TreeBackend, capacity: usize) -> Keys {
        match backend {
            TreeBackend::Explicit => Keys::Explicit(Vec::with_capacity(capacity)),
            TreeBackend::Khf => Keys::Khf(KhfKeys {
                forest: [0u8; FOREST_SECRET_LEN],
                parent: Vec::with_capacity(capacity),
                overrides: BTreeMap::new(),
            }),
        }
    }

    /// Writes the per-node snapshot field (the 16 key bytes for
    /// explicit storage; nothing for derived storage).
    pub(crate) fn snapshot_node(&self, node: usize, out: &mut Vec<u8>) {
        if let Keys::Explicit(keys) = self {
            out.extend_from_slice(keys[node].as_bytes());
        }
    }

    /// Reads back what [`Self::snapshot_node`] wrote, consuming from
    /// the front of `input`.
    pub(crate) fn restore_node(
        &mut self,
        node: usize,
        parent: Option<usize>,
        input: &mut &[u8],
    ) -> Result<(), &'static str> {
        match self {
            Keys::Explicit(keys) => {
                debug_assert_eq!(node, keys.len());
                keys.push(take_key(input)?);
            }
            Keys::Khf(khf) => {
                debug_assert_eq!(node, khf.parent.len());
                khf.parent.push(parent);
            }
        }
        Ok(())
    }

    /// Writes the trailing snapshot section (the forest secret and the
    /// override table for derived storage; nothing for explicit).
    pub(crate) fn snapshot_tail(&self, out: &mut Vec<u8>) {
        let Keys::Khf(khf) = self else { return };
        out.extend_from_slice(&khf.forest);
        out.extend_from_slice(&(khf.overrides.len() as u64).to_be_bytes());
        for (&node, key) in &khf.overrides {
            out.extend_from_slice(&(node as u64).to_be_bytes());
            out.extend_from_slice(key.as_bytes());
        }
    }

    /// Reads back what [`Self::snapshot_tail`] wrote.
    pub(crate) fn restore_tail(
        &mut self,
        node_count: usize,
        input: &mut &[u8],
    ) -> Result<(), &'static str> {
        let Keys::Khf(khf) = self else { return Ok(()) };
        let forest = take(input, FOREST_SECRET_LEN)?;
        khf.forest.copy_from_slice(forest);
        let count = take_u64(input)?;
        if count > node_count as u64 {
            return Err("more overrides than nodes");
        }
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let node = take_u64(input)?;
            if node >= node_count as u64 {
                return Err("override for unknown node");
            }
            // Strictly increasing indices keep the encoding canonical.
            if prev.is_some_and(|p| node <= p) {
                return Err("override order");
            }
            prev = Some(node);
            khf.overrides.insert(node as usize, take_key(input)?);
        }
        Ok(())
    }
}

const FOREST_SECRET_LEN: usize = 32;
const NODE_LABEL: &[u8] = b"mykil-khf-node";
const KEY_LABEL: &[u8] = b"mykil-khf-key";

/// Keyed-hash-forest backend: keys are derived, not stored.
///
/// Resident key material is the forest secret plus one key per
/// override — O(updated set) instead of O(n). See the module docs for
/// the derivation labels.
#[derive(Clone)]
pub(crate) struct KhfKeys {
    forest: [u8; FOREST_SECRET_LEN],
    /// Parent arena index per node (mirrors the tree structure so
    /// `secret(n)` can chase the derivation path without a tree ref).
    parent: Vec<Option<usize>>,
    /// Leave-style rotated nodes whose key is independent of the forest.
    overrides: BTreeMap<usize, SymmetricKey>,
}

/// The ancestor secrets one plan has derived so far, each held as the
/// HMAC context keyed with it (a secret is only ever used as an HMAC
/// key, for its node's key and for its children's secrets). Lives on
/// the stack of the tree operation that builds the plan; every context
/// wipes itself when that returns. The explicit backend never puts
/// anything in it.
#[derive(Default)]
pub(crate) struct SecretMemo(BTreeMap<usize, HmacSha256>);

/// `HMAC-SHA256(key, label || n as u64 BE)`: both derivation steps.
fn derive(key: &HmacSha256, label: &[u8], n: u64) -> Tag<32> {
    let mut message = [0u8; 24];
    let (text, rest) = message.split_at_mut(label.len());
    text.copy_from_slice(label);
    rest[..8].copy_from_slice(&n.to_be_bytes());
    key.tag(&message[..label.len() + 8])
}

impl KhfKeys {
    /// The context keyed with the AC-only derivation secret of `node`
    /// (never a member-visible value): from `memo` when this plan
    /// already derived it, else one HMAC below its parent's, which is
    /// then remembered. Recursion depth is the tree height.
    fn secret<'m>(&self, node: usize, memo: &'m mut SecretMemo) -> &'m HmacSha256 {
        if !memo.0.contains_key(&node) {
            let keyed = match self.parent[node] {
                None => HmacSha256::new(&self.forest),
                Some(parent) => self.child_secret(node, parent, memo),
            };
            memo.0.insert(node, keyed);
        }
        &memo.0[&node]
    }

    fn child_secret(&self, node: usize, parent: usize, memo: &mut SecretMemo) -> HmacSha256 {
        let mut secret = derive(self.secret(parent, memo), NODE_LABEL, node as u64).into_bytes();
        let keyed = HmacSha256::new(&secret);
        mykil_crypto::ct::zeroize(&mut secret);
        keyed
    }

    /// The forest key of `node` at `version`. Only the node's ancestors
    /// go into `memo`: they are what the other keys of a plan share,
    /// while the node itself is most often a leaf asked for once.
    fn derived_key(&self, node: usize, version: u64, memo: &mut SecretMemo) -> SymmetricKey {
        let tag = match self.parent[node] {
            Some(parent) if !memo.0.contains_key(&node) => {
                derive(&self.child_secret(node, parent, memo), KEY_LABEL, version)
            }
            _ => derive(self.secret(node, memo), KEY_LABEL, version),
        };
        SymmetricKey::from_bytes(tag.truncate::<SYMMETRIC_KEY_LEN>().into_bytes())
    }

    fn key(&self, node: usize, version: u64, memo: &mut SecretMemo) -> SymmetricKey {
        match self.overrides.get(&node) {
            Some(k) => k.clone(),
            None => self.derived_key(node, version, memo),
        }
    }
}

impl Drop for KhfKeys {
    fn drop(&mut self) {
        mykil_crypto::ct::zeroize(&mut self.forest);
    }
}

impl std::fmt::Debug for KhfKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the forest secret; a fingerprint identifies it.
        let fp = mykil_crypto::sha256::Sha256::digest(&self.forest);
        f.debug_struct("KhfKeys")
            .field("forest", &format_args!("#{:02x}{:02x}{:02x}{:02x}", fp[0], fp[1], fp[2], fp[3]))
            .field("nodes", &self.parent.len())
            .field("overrides", &self.overrides.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    fn khf_with(nodes: &[Option<usize>]) -> Keys {
        let mut rng = Drbg::from_seed(77);
        let mut store = Keys::new_root(TreeBackend::Khf, &mut rng);
        for (i, &p) in nodes.iter().enumerate().skip(1) {
            store.on_alloc(i, p, &mut rng);
        }
        store
    }

    /// A key read with nothing memoised: the from-the-root derivation.
    fn key(store: &Keys, node: usize, version: u64) -> SymmetricKey {
        store.key(node, version, &mut SecretMemo::default())
    }

    fn derived_key(store: &Keys, node: usize, version: u64) -> SymmetricKey {
        let Keys::Khf(khf) = store else {
            panic!("not a forest")
        };
        khf.derived_key(node, version, &mut SecretMemo::default())
    }

    #[test]
    fn derivation_is_deterministic_and_separated() {
        let store = khf_with(&[None, Some(0), Some(0), Some(1)]);
        assert_eq!(key(&store, 3, 0), key(&store, 3, 0));
        assert_ne!(key(&store, 3, 0), key(&store, 3, 1), "version must separate");
        assert_ne!(key(&store, 1, 0), key(&store, 2, 0), "node must separate");
        assert_ne!(key(&store, 0, 0), key(&store, 1, 0));
    }

    #[test]
    fn a_shared_memo_changes_no_key() {
        // A chain and a fork; read bottom-up and top-down through one
        // memo, against reads that each start from the forest secret.
        let store = khf_with(&[None, Some(0), Some(1), Some(2), Some(2), Some(0)]);
        let mut memo = SecretMemo::default();
        for node in [4, 3, 2, 1, 0, 5, 0, 1, 2, 3, 4] {
            for version in [0, 7] {
                assert_eq!(
                    store.key(node, version, &mut memo),
                    key(&store, node, version),
                    "node {node} version {version}"
                );
            }
        }
        // What is remembered is every node that is another's ancestor.
        assert_eq!(memo.0.keys().copied().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn derivable_rotation_costs_no_storage() {
        let mut store = khf_with(&[None, Some(0)]);
        let mut rng = Drbg::from_seed(1);
        let base = store.resident_key_bytes();
        let old = key(&store, 1, 0);
        store.rotate(1, RotateStyle::Derivable, &mut rng);
        assert_eq!(old, derived_key(&store, 1, 0));
        assert_ne!(key(&store, 1, 1), old);
        assert_eq!(store.resident_key_bytes(), base);
    }

    #[test]
    fn fresh_rotation_overrides_then_derivable_reclaims() {
        let mut store = khf_with(&[None, Some(0)]);
        let mut rng = Drbg::from_seed(2);
        let base = store.resident_key_bytes();
        store.rotate(1, RotateStyle::Fresh, &mut rng);
        assert_eq!(store.resident_key_bytes(), base + SYMMETRIC_KEY_LEN);
        assert_ne!(
            key(&store, 1, 1),
            derived_key(&store, 1, 1),
            "override must shadow derivation"
        );
        // A later join-style rotation returns the node to the forest.
        let old = key(&store, 1, 1);
        store.rotate(1, RotateStyle::Derivable, &mut rng);
        assert!(old != key(&store, 1, 2));
        assert_eq!(store.resident_key_bytes(), base);
        assert_eq!(key(&store, 1, 2), derived_key(&store, 1, 2));
    }

    #[test]
    fn debug_hides_forest_secret() {
        let store = khf_with(&[None, Some(0)]);
        let s = format!("{store:?}");
        assert!(s.contains("KhfKeys"));
        // No raw hex dump of the secret (spot check: the rendered
        // string is short).
        assert!(s.len() < 120, "debug output leaks state: {s}");
    }

    #[test]
    fn explicit_store_resident_bytes_are_linear() {
        let mut rng = Drbg::from_seed(3);
        let mut store = Keys::new_root(TreeBackend::Explicit, &mut rng);
        for i in 1..10 {
            store.on_alloc(i, Some(0), &mut rng);
        }
        assert_eq!(store.resident_key_bytes(), 10 * SYMMETRIC_KEY_LEN);
    }
}
