//! The area controller's durable state: one value, one transition
//! function.
//!
//! [`AcDurable`] holds all and only what a checkpoint plus a WAL suffix
//! reproduce (formats in [`crate::durable`]):
//!
//! - a WAL record per acknowledged membership or role change
//!   ([`AcWalRecord`]), committed before the change's effects leave the
//!   node;
//! - a full checkpoint ([`AcDurable::encode`]) at every compaction
//!   point: rekey flushes, snapshot applications, role transitions, and
//!   start-up. The membership payload is the replication snapshot, so
//!   primary checkpoints and `StateSync` bodies are the same bytes.
//!
//! `AcDurable::apply` is the only code that gives a record its meaning,
//! and it has three kinds of caller. A live handler builds the record
//! and hands it to [`AreaController::wal_commit_record`], which commits
//! and then applies it — `apply` is private to this file so that no
//! handler can apply what it has not committed. `on_restarted` assigns
//! [`AcDurable::decode`] of the newest valid checkpoint (else the
//! deployed state the crash wipe left), folded over the WAL suffix by
//! [`AcDurable::fold`]. [`crate::durable::replay_ac`] is the same
//! decode and fold without a node around it, for the durability
//! invariant and the fuzzer.
//!
//! A departure queued in a batch window (Section III-E) needs no queue
//! of its own: `Leave`/`Evict` remove the member row and leave the leaf,
//! so a client leaf without a row *is* the queued departure
//! ([`AcDurable::departed`]). It survives every path a snapshot takes —
//! checkpoint, `StateSync`, promotion — and the next flush batches it
//! out of the tree.
//!
//! Replayed tree joins draw fresh randomness, so a recovered tree's
//! path keys differ from the ones members still hold; recovery
//! re-issues every path ([`AreaController::post_recovery_resync`]).

use super::replication::AreaImage;
use super::{AcDeployment, AreaController, MemberRecord, Role, AC_MEMBER_BASE};
use crate::config::MykilConfig;
use crate::durable::{AcCheckpoint, AcWalRecord};
use crate::identity::{ClientId, DeviceId};
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, NodeId, SecretBytes, Time};
use mykil_tree::{AreaTree, MemberId, RekeyPlan};
use rand::RngCore;
use std::collections::BTreeSet;

/// Everything about an area controller that survives a crash.
#[derive(Debug, Clone)]
pub struct AcDurable {
    pub(crate) role: Role,
    /// Fencing epoch for split-brain reconciliation: bumped on every
    /// takeover, carried in heartbeats, and compared after a heal — the
    /// lower-epoch primary demotes itself (Section IV-C extension).
    pub(crate) takeover_epoch: u64,
    /// The counterpart's takeover epoch as last seen in heartbeat
    /// traffic (a backup tracks its primary; a primary its backup).
    pub(crate) peer_takeover_epoch: u64,
    /// Monotonic snapshot sequence (primary role) so a retransmitted or
    /// reordered `StateSync` can never regress the backup.
    pub(crate) sync_seq: u64,
    /// Highest snapshot sequence applied (backup role).
    pub(crate) applied_sync_seq: u64,
    /// After a takeover: the primary this node took over from, i.e. the
    /// only node whose stale heartbeats warrant a signed `Demote`.
    pub(crate) stale_peer: Option<NodeId>,
    /// Backup replica address and encoded public key, if replicated —
    /// the one part of the deployment record that changes at run time
    /// (lost at promotion, adopted after a demotion is acknowledged).
    pub(crate) backup: Option<(NodeId, Vec<u8>)>,
    /// The area as this node runs it. Meaningful in the primary role; a
    /// backup's is blank.
    pub(crate) image: AreaImage,
    /// Latest snapshot from the primary (backup role), kept as the
    /// opaque bytes it arrived in until promotion decodes it. Held
    /// zeroizing — the snapshot embeds the primary's full key tree.
    pub(crate) escrow: Option<SecretBytes>,
}

impl AcDurable {
    /// The state a controller is deployed with.
    pub(crate) fn deployed(
        role: Role,
        backup: Option<(NodeId, Vec<u8>)>,
        image: AreaImage,
    ) -> AcDurable {
        AcDurable {
            role,
            takeover_epoch: 0,
            peer_takeover_epoch: 0,
            sync_seq: 0,
            applied_sync_seq: 0,
            stale_peer: None,
            backup,
            image,
            escrow: None,
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current takeover (fencing) epoch.
    pub fn takeover_epoch(&self) -> u64 {
        self.takeover_epoch
    }

    /// Current rekey epoch.
    pub fn epoch(&self) -> u64 {
        self.image.epoch
    }

    /// Ids of all members with a row.
    pub fn member_ids(&self) -> BTreeSet<u64> {
        self.image.members.keys().map(|c| c.0).collect()
    }

    /// The auxiliary-key tree (inspection only).
    pub fn tree(&self) -> &AreaTree {
        &self.image.tree
    }

    /// The backup replica's address, if replicated.
    pub(crate) fn backup_node(&self) -> Option<NodeId> {
        self.backup.as_ref().map(|(node, _)| *node)
    }

    /// Clients that left or were evicted since the last flush: their
    /// rows are gone and their leaves wait for the next batched rekey.
    /// Child controllers (`id >= AC_MEMBER_BASE`) never have rows.
    pub fn departed(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.image.tree.members().filter(|m| {
            m.0 < AC_MEMBER_BASE && !self.image.members.contains_key(&ClientId(m.0))
        })
    }

    /// Serializes the full-state checkpoint for the current role.
    pub fn encode(&self) -> Vec<u8> {
        let (primary, primary_node, snapshot) = match self.role {
            Role::Primary => (true, 0, Some(self.image.encode())),
            Role::Backup { primary } => (
                false,
                primary.index() as u32,
                self.escrow.as_ref().map(|s| s.as_slice().to_vec()),
            ),
        };
        AcCheckpoint {
            primary,
            primary_node,
            takeover_epoch: self.takeover_epoch,
            peer_takeover_epoch: self.peer_takeover_epoch,
            sync_seq: self.sync_seq,
            applied_sync_seq: self.applied_sync_seq,
            stale_peer: self.stale_peer.map(|n| n.index() as u32),
            backup: self
                .backup
                .as_ref()
                .map(|(n, pubkey)| (n.index() as u32, pubkey.clone())),
            snapshot,
        }
        .to_bytes()
    }

    /// Parses [`Self::encode`]'s bytes; `None` on corruption. A
    /// backup's checkpoint carries no area of its own, so it gets
    /// `blank` — the image of the state it was deployed with.
    pub(crate) fn decode(bytes: &[u8], now: Time, blank: &AreaImage) -> Option<AcDurable> {
        let cp = AcCheckpoint::from_bytes(bytes)?;
        let (role, image, escrow) = if cp.primary {
            (Role::Primary, AreaImage::decode(&cp.snapshot?, now)?, None)
        } else {
            let primary = NodeId::from_index(cp.primary_node as usize);
            let escrow = cp.snapshot.map(SecretBytes::new);
            (Role::Backup { primary }, blank.clone(), escrow)
        };
        Some(AcDurable {
            role,
            takeover_epoch: cp.takeover_epoch,
            peer_takeover_epoch: cp.peer_takeover_epoch,
            sync_seq: cp.sync_seq,
            applied_sync_seq: cp.applied_sync_seq,
            stale_peer: cp.stale_peer.map(|n| NodeId::from_index(n as usize)),
            backup: cp
                .backup
                .map(|(node, pubkey)| (NodeId::from_index(node as usize), pubkey)),
            image,
            escrow,
        })
    }

    /// The transition function: what one durable record does to the
    /// state. Returns what the live path needs from the change — the
    /// join's rekey plan, empty for every other record — or, when the
    /// record changed less than it says, the counter recovery reports
    /// that under.
    fn apply<R: RngCore + ?Sized>(
        &mut self,
        rec: &AcWalRecord,
        rng: &mut R,
        now: Time,
    ) -> Result<RekeyPlan, &'static str> {
        match rec {
            AcWalRecord::Join {
                client,
                node,
                pubkey,
                device,
                valid_until_us,
            } => {
                let pubkey =
                    RsaPublicKey::from_bytes(pubkey).map_err(|_| "ac-recovery-join-failed")?;
                let member = MemberId(*client);
                // Re-admission after a missed eviction, or of a client
                // whose departure still waits in the batch window:
                // clear the stale leaf, or the next flush would evict
                // the membership granted here.
                if self.image.tree.contains(member) {
                    let _ = self.image.tree.leave(member, rng);
                    self.image.members.remove(&ClientId(*client));
                }
                let plan = self
                    .image
                    .tree
                    .join(member, rng)
                    .map_err(|_| "ac-recovery-join-failed")?;
                self.image.members.insert(
                    ClientId(*client),
                    MemberRecord {
                        node: NodeId::from_index(*node as usize),
                        pubkey,
                        device: device.map(DeviceId),
                        valid_until: Time::from_micros(*valid_until_us),
                        last_heard: now,
                    },
                );
                return Ok(plan);
            }
            AcWalRecord::Leave { client } | AcWalRecord::Evict { client } => {
                self.image.members.remove(&ClientId(*client));
            }
            AcWalRecord::Promoted {
                takeover_epoch,
                old_primary,
            } => {
                self.role = Role::Primary;
                self.takeover_epoch = *takeover_epoch;
                self.stale_peer = Some(NodeId::from_index(*old_primary as usize));
                // This node no longer has a backup of its own.
                self.backup = None;
                if let Some(escrow) = self.escrow.take() {
                    self.image = AreaImage::decode(escrow.as_slice(), now)
                        .ok_or("ac-recovery-bad-snapshot")?;
                }
            }
            AcWalRecord::Demoted { new_primary } => {
                self.role = Role::Backup {
                    primary: NodeId::from_index(*new_primary as usize),
                };
                // Replica bookkeeping from the primary stint must not
                // block the new primary's snapshots, and the area it ran
                // is the winner's now: a checkpoint would not keep it.
                self.applied_sync_seq = 0;
                self.escrow = None;
                let (cfg, parent) = (self.image.tree.config(), self.image.parent.take());
                self.image = AreaImage::blank(cfg, parent, rng);
            }
        }
        Ok(RekeyPlan::default())
    }

    /// Folds a WAL suffix over the state. An unparseable record ends
    /// the replay — everything after it is suspect, as after a torn
    /// tail — so a first count below `wal.len()` says one was met; the
    /// second value lists, by recovery counter, the records that
    /// changed less than they say.
    pub(crate) fn fold<R: RngCore + ?Sized>(
        &mut self,
        wal: &[Vec<u8>],
        rng: &mut R,
        now: Time,
    ) -> (usize, Vec<&'static str>) {
        let mut refused = Vec::new();
        let mut folded = 0;
        for raw in wal {
            let Some(rec) = AcWalRecord::from_bytes(raw) else {
                break;
            };
            refused.extend(self.apply(&rec, rng, now).err());
            folded += 1;
        }
        (folded, refused)
    }
}

impl AreaController {
    /// The state a controller is deployed with — what a crash leaves
    /// when stable storage holds nothing newer.
    pub(crate) fn deployed_state(
        cfg: &MykilConfig,
        deploy: &AcDeployment,
        tree_seed: u64,
    ) -> AcDurable {
        let mut rng = mykil_crypto::drbg::Drbg::from_seed(tree_seed);
        AcDurable::deployed(
            deploy.role,
            deploy.backup.map(|node| (node, deploy.backup_pubkey.clone())),
            AreaImage::blank(cfg.tree, deploy.parent.clone(), &mut rng),
        )
    }

    /// Commits one WAL record (append + fsync) to stable storage, then
    /// applies it: the only way a live handler changes what a record
    /// describes.
    pub(crate) fn wal_commit_record(
        &mut self,
        ctx: &mut Context<'_>,
        rec: &AcWalRecord,
    ) -> Result<RekeyPlan, &'static str> {
        ctx.storage().wal_commit(rec.to_bytes());
        let now = ctx.now();
        self.durable.apply(rec, ctx.rng(), now)
    }

    /// Writes a checkpoint (compaction point): after this the durable
    /// state equals the in-memory state and the WAL prefix is
    /// truncated.
    pub(crate) fn persist_checkpoint(&mut self, ctx: &mut Context<'_>) {
        let bytes = self.durable.encode();
        ctx.storage().checkpoint(bytes);
    }

    /// A state that arrived by snapshot — recovery, takeover — may hold
    /// departures its batch window never flushed; owe them a rekey.
    pub(crate) fn adopt_departures(&mut self) {
        self.update_needed |= self.durable.departed().next().is_some();
    }

    /// Resets every field that does not survive a power loss. Called by
    /// the simulator at crash time (no [`Context`] exists then).
    ///
    /// What survives is the durable local configuration a real node
    /// would read back from its config files at boot: `cfg`, `cost`,
    /// the keypair, the RS public key, `K_shared` (and the replication
    /// key derived from it), the deployment record, and the
    /// deployment-time tree seed. The `stats` counters also survive —
    /// they are harness-side diagnostics, not protocol state.
    pub(crate) fn wipe_volatile(&mut self) {
        self.durable = Self::deployed_state(&self.cfg, &self.deploy, self.tree_seed);
        self.pending_admissions.clear();
        self.pending_rejoins.clear();
        self.update_needed = false;
        self.buffered_join_updates.clear();
        self.recorded_members.clear();
        self.parent_epoch = 0;
        self.last_heard_parent = Time::ZERO;
        self.pending_parent_join = None;
        self.parent_switch_cursor = 0;
        self.prev_area_keys.clear();
        self.seen_data.clear();
        self.seen_order.clear();
        self.last_area_mcast = Time::ZERO;
        self.hb_seq = 0;
        self.last_heartbeat = Time::ZERO;
        self.pending_sync = None;
        self.last_backup_ack = Time::ZERO;
        self.backup_presumed_dead = false;
        self.pending_demote = None;
    }

    /// Post-recovery key resynchronization (primary role).
    ///
    /// WAL-replayed tree joins rotated path keys with fresh randomness,
    /// so members' held paths may be stale; re-issue the current path
    /// to every member and child controller, then checkpoint (which
    /// also compacts the just-replayed WAL), rekey out — when the
    /// policy is to do so at once — any departure the crash caught
    /// between its record and its flush, and push a catch-up snapshot
    /// to the backup.
    pub(crate) fn post_recovery_resync(&mut self, ctx: &mut Context<'_>) {
        for (client, rec) in &self.durable.image.members {
            self.unicast_path(ctx, MemberId(client.0), rec.node, &rec.pubkey);
        }
        for (member, node) in &self.durable.image.child_ac_members {
            if let Some(pubkey) = self.directory_pubkey(*node) {
                self.unicast_path(ctx, MemberId(*member), *node, &pubkey);
            }
        }
        self.persist_checkpoint(ctx);
        self.after_membership_change(ctx);
    }
}
