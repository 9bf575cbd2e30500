//! The area controller's durable state: one value, one transition
//! function.
//!
//! [`AcDurable`] holds all and only what a checkpoint plus a WAL suffix
//! reproduce (formats in [`crate::durable`]):
//!
//! - a WAL record per change of the area or of this node's role
//!   ([`AcWalRecord`]), committed before the change's effects leave the
//!   node. A record that moves the tree carries the seed its keys are
//!   drawn from, so every fold of it lands on the same keys;
//! - a full checkpoint ([`AcDurable::encode`]) when the WAL has grown
//!   past [`CHECKPOINT_WAL_RECORDS`], at role transitions, after
//!   recovery, at start-up, and when a backup adopts a full image —
//!   never per rekey. Its area payload is the image a primary ships to
//!   a backup that attaches.
//!
//! Every other field of [`AreaController`] is volatile, the parent
//! area's keys too: recovery and takeover re-enrol, which rekeys them.
//!
//! `AcDurable::apply` is the only code that gives a record its meaning,
//! and it has four kinds of caller. A live handler builds the record
//! and hands it to [`AreaController::wal_commit_record`], which applies
//! and commits it in one turn — `apply` is private to this file so that
//! no handler can apply what it does not commit. A backup hands the same
//! function the records its primary ships, so its `image` is a live
//! replica, byte for byte. `on_restarted` assigns what
//! [`AreaController::replay`] returns: [`AcDurable::decode`] of the
//! newest valid checkpoint (else the deployed state), folded over the
//! WAL suffix. The durability invariant compares memory with the same
//! call, and [`crate::durable::replay_ac`] is the same fold without a
//! node around it, for the fuzzer and the benchmark.
//!
//! A departure queued in a batch window (Section III-E) needs no queue
//! of its own: `Leave`/`Evict` remove the member row and leave the leaf,
//! so a client leaf without a row *is* the queued departure
//! ([`AcDurable::departed`]). It survives every path an image takes —
//! checkpoint, `StateSync`, promotion — and the next `Flush` batches it
//! out of the tree.
//!
//! A complete log replays to the keys members hold; a log a lying disk
//! cut short does not, so recovery still re-issues every path
//! ([`AreaController::post_recovery_resync`]).

use super::replication::AreaImage;
use super::{AcDeployment, AreaController, MemberRecord, ParentLink, Role, AC_MEMBER_BASE};
use crate::config::MykilConfig;
use crate::durable::{
    AcCheckpoint, AcWalRecord, Seed, SyncPosition, CHECKPOINT_WAL_RECORDS, SYNC_BACKLOG_RECORDS,
};
use crate::identity::{AreaId, ClientId, DeviceId};
use crate::timer::PendingTimers;
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, GroupId, NodeId, Recovered, SecretBytes, Time};
use mykil_tree::{AreaTree, MemberId, RekeyPlan};
use std::collections::BTreeSet;

/// Everything about an area controller that survives a crash.
///
/// Which node is the counterpart is no part of it: each area's two
/// controllers are a pair fixed at deployment, and the role with its
/// takeover epoch is all that says which of the two runs the area.
#[derive(Debug, Clone)]
pub struct AcDurable {
    pub(crate) role: Role,
    /// Fencing epoch for split-brain reconciliation: claimed by every
    /// takeover above any this node holds or has heard, carried in
    /// heartbeats and in `Demote`, adopted by the side that steps down.
    /// Of two primaries the higher `(takeover_epoch, node)` keeps the
    /// area (Section IV-C extension).
    pub(crate) takeover_epoch: u64,
    /// Where `image` stands in the replication log, on either role: a
    /// step per record that changes the area and per image shipped, so
    /// a reordered or repeated `StateSync` can never regress the backup,
    /// and a digest of the steps, so the backup's acknowledgement names
    /// the area it holds.
    pub(crate) position: SyncPosition,
    /// The area: as this node runs it (primary role), or its live
    /// replica of the primary's (backup role) — the last image adopted,
    /// folded over every record shipped since.
    pub(crate) image: AreaImage,
}

impl AcDurable {
    /// The state a controller is deployed with.
    pub(crate) fn deployed(role: Role, image: AreaImage) -> AcDurable {
        AcDurable {
            role,
            takeover_epoch: 0,
            position: SyncPosition::default(),
            image,
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

    /// Clients that left or were evicted since the last flush: their
    /// rows are gone and their leaves wait for the next batched rekey.
    /// Child controllers (`id >= AC_MEMBER_BASE`) never have rows.
    pub fn departed(&self) -> impl Iterator<Item = MemberId> + '_ {
        // Leaves and rows both ascend by client id: one merge walk, no
        // lookup per leaf — every flush runs this, on both replicas.
        let mut rows = self.image.members.keys().map(|c| c.0).peekable();
        let leaves = self.image.tree.members().take_while(|m| m.0 < AC_MEMBER_BASE);
        leaves.filter(move |m| {
            while rows.next_if(|row| *row < m.0).is_some() {}
            rows.peek() != Some(&m.0)
        })
    }

    /// Serializes the full-state checkpoint for the current role.
    pub fn encode(&self) -> Vec<u8> {
        AcCheckpoint {
            primary: self.role == Role::Primary,
            takeover_epoch: self.takeover_epoch,
            position: self.position,
            snapshot: self.image.encode(),
        }
        .to_bytes()
    }

    /// Parses [`Self::encode`]'s bytes; `None` on corruption.
    pub(crate) fn decode(bytes: &[u8], now: Time) -> Option<AcDurable> {
        let cp = AcCheckpoint::from_bytes(bytes)?;
        Some(AcDurable {
            role: if cp.primary { Role::Primary } else { Role::Backup },
            takeover_epoch: cp.takeover_epoch,
            position: cp.position,
            image: AreaImage::decode(&cp.snapshot, now)?,
        })
    }

    /// The transition function: what one durable record (`bytes`, as
    /// committed) does to the state. Returns what the live path needs
    /// from the change — the rekey plan of the record's tree operation,
    /// empty where it has none — or, when the record changed less than
    /// it says, the counter recovery reports that under. Every key it
    /// makes comes from the record's seed: two folds of one log agree
    /// byte for byte.
    fn apply(
        &mut self,
        rec: &AcWalRecord,
        bytes: &[u8],
        now: Time,
    ) -> Result<RekeyPlan, &'static str> {
        if rec.changes_area() {
            // One step of the replication log, on either role.
            self.position = self.position.after(bytes);
        }
        match rec {
            AcWalRecord::Join {
                client,
                node,
                pubkey,
                device,
                valid_until_us,
                seed,
            } => {
                let pubkey =
                    RsaPublicKey::from_bytes(pubkey).map_err(|_| "ac-recovery-join-failed")?;
                self.image.members.remove(&ClientId(*client));
                let plan = self.join_leaf(MemberId(*client), seed)?;
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
                Ok(plan)
            }
            AcWalRecord::Leave { client } | AcWalRecord::Evict { client } => {
                self.image.members.remove(&ClientId(*client));
                Ok(RekeyPlan::default())
            }
            AcWalRecord::Flush { seed } => {
                self.image.epoch += 1;
                let leavers: Vec<MemberId> = self.departed().collect();
                // Leavers are read off the tree; a refusal means
                // tree-state drift, and the batch waits for the next
                // flush.
                let out = self.image.tree.batch_leave(&leavers, &mut seed.rng());
                out.map(|out| out.plan).map_err(|_| "ac-evictions-deferred")
            }
            AcWalRecord::Rotate { seed } => {
                self.image.epoch += 1;
                Ok(self.image.tree.rotate_area_key(&mut seed.rng()))
            }
            AcWalRecord::Epoch { epoch, step_down: None } => {
                self.role = Role::Primary;
                self.takeover_epoch = *epoch;
                // A replica's rows never hear their members; the
                // silence so far was this node's role, not theirs.
                for row in self.image.members.values_mut() {
                    row.last_heard = now;
                }
                Ok(RekeyPlan::default())
            }
            AcWalRecord::Epoch { epoch, step_down: Some(seed) } => {
                self.role = Role::Backup;
                self.takeover_epoch = *epoch;
                // The area this node ran is the winner's now, and the
                // position it stood at must not block the winner's first
                // image.
                self.position = SyncPosition::default();
                let (cfg, parent) = (self.image.tree.config(), self.image.parent.take());
                self.image = AreaImage::blank(cfg, parent, &mut seed.rng());
                Ok(RekeyPlan::default())
            }
            AcWalRecord::Enrol { child_area, node, seed } => {
                let member = MemberId(AC_MEMBER_BASE + u64::from(*child_area));
                let plan = self.join_leaf(member, seed)?;
                self.image.child_ac_members.insert(member.0, NodeId::from_index(*node as usize));
                Ok(plan)
            }
            AcWalRecord::Parent { node, area, group } => {
                self.image.parent = Some(ParentLink {
                    node: NodeId::from_index(*node as usize),
                    area: AreaId(*area),
                    group: GroupId::from_index(*group as usize),
                });
                Ok(RekeyPlan::default())
            }
        }
    }

    /// Joins `member` to the tree with keys drawn from `seed`, first
    /// clearing a leaf it still holds — after a missed eviction, a
    /// departure still in the batch window (whose flush would evict the
    /// membership granted here), a child enrolling again.
    fn join_leaf(&mut self, member: MemberId, seed: &Seed) -> Result<RekeyPlan, &'static str> {
        let rng = &mut seed.rng();
        if self.image.tree.contains(member) {
            let _ = self.image.tree.leave(member, rng);
        }
        self.image.tree.join(member, rng).map_err(|_| "ac-recovery-join-failed")
    }

    /// Recovery's fold: the newest valid checkpoint — else `base`, the
    /// state a crash leaves — folded over the WAL suffix. An
    /// unparseable record ends the replay: everything after it is
    /// suspect, as after a torn tail.
    pub(crate) fn restore(
        base: AcDurable,
        checkpoint: Option<&[u8]>,
        wal: &[Vec<u8>],
        now: Time,
    ) -> Restored {
        let decoded = checkpoint.map(|bytes| AcDurable::decode(bytes, now));
        let mut counters = Vec::new();
        if let Some(None) = decoded {
            counters.push(BAD_CHECKPOINT);
        }
        let mut recovered = matches!(decoded, Some(Some(_)));
        let mut state = decoded.flatten().unwrap_or(base);
        for raw in wal {
            let Some(rec) = AcWalRecord::from_bytes(raw) else {
                counters.push("ac-recovery-bad-wal-record");
                break;
            };
            counters.extend(state.apply(&rec, raw, now).err());
            recovered = true;
        }
        Restored { state, recovered, counters }
    }
}

/// The recovery counter of a checkpoint that did not parse.
pub(crate) const BAD_CHECKPOINT: &str = "ac-recovery-bad-checkpoint";

/// What [`AcDurable::restore`] rebuilt from stable storage.
pub(crate) struct Restored {
    pub state: AcDurable,
    /// A checkpoint parsed or a record folded: the base was replaced.
    pub recovered: bool,
    /// Recovery counters: a checkpoint that did not parse, a record that
    /// ended the fold, records that changed less than they say.
    pub counters: Vec<&'static str>,
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
            AreaImage::blank(cfg.tree, deploy.parent.clone(), &mut rng),
        )
    }

    /// What recovery would rebuild from `stored`: recovery's fold over
    /// this node's deployed state. `on_restarted` assigns it, and the
    /// durability invariant compares memory with it.
    pub(crate) fn replay(&self, stored: &Recovered, now: Time) -> Restored {
        let base = Self::deployed_state(&self.cfg, &self.deploy, self.tree_seed);
        let checkpoint = stored.checkpoint.as_ref().map(|(_, bytes)| bytes.as_slice());
        AcDurable::restore(base, checkpoint, &stored.wal, now)
    }

    /// Applies one WAL record and commits it (append + fsync) to stable
    /// storage in the same turn, before any of its effects leave the
    /// node: the only way a live handler — or a backup folding its
    /// primary's log — changes what a record describes. A primary
    /// queues a record that changes the area for its backup, with the
    /// position it follows (the next [`Self::sync_backup`] ships what
    /// the queue holds unshipped); a log grown past
    /// [`CHECKPOINT_WAL_RECORDS`] is compacted here.
    pub(crate) fn wal_commit_record(
        &mut self,
        ctx: &mut Context<'_>,
        rec: &AcWalRecord,
    ) -> Result<RekeyPlan, &'static str> {
        let bytes = rec.to_bytes();
        // While an image is owed the backup learns of this record from
        // the image.
        if self.durable.role == Role::Primary && rec.changes_area() && !self.image_owed {
            let from = self.durable.position;
            self.sync_backlog.push_back((from, SecretBytes::new(bytes.clone())));
            if self.sync_backlog.len() > SYNC_BACKLOG_RECORDS {
                self.owe_image();
            }
        }
        let out = self.durable.apply(rec, &bytes, ctx.now());
        ctx.wal_commit(bytes);
        self.wal_records += 1;
        if self.wal_records > CHECKPOINT_WAL_RECORDS {
            self.persist_checkpoint(ctx);
        }
        out
    }

    /// Writes a checkpoint (compaction point): after this the durable
    /// state equals the in-memory state and the WAL prefix is
    /// truncated.
    pub(crate) fn persist_checkpoint(&mut self, ctx: &mut Context<'_>) {
        let bytes = self.durable.encode();
        ctx.checkpoint(bytes);
        self.wal_records = 0;
    }

    /// A state that arrived by image — recovery, takeover — may hold
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
    /// key derived from it), the deployment record with the peer
    /// resolved from it, and the deployment-time tree seed. The `stats`
    /// counters also survive — they are harness-side diagnostics, not
    /// protocol state.
    pub(crate) fn wipe_volatile(&mut self) {
        self.durable = Self::deployed_state(&self.cfg, &self.deploy, self.tree_seed);
        self.pending_admissions.clear();
        self.pending_rejoins.clear();
        self.update_needed = false;
        self.buffered_join_updates.clear();
        self.recorded_members.clear();
        self.parent_keys.clear();
        self.last_heard_parent = Time::ZERO;
        self.pending_parent_join = None;
        self.parent_switch_cursor = 0;
        self.prev_area_keys.clear();
        self.seen_data.clear();
        self.seen_order.clear();
        self.last_area_mcast = Time::ZERO;
        self.heard_epoch = 0;
        self.last_heartbeat = Time::ZERO;
        self.wal_records = 0;
        self.owe_image();
        self.last_backup_ack = Time::ZERO;
        self.backup_presumed_dead = false;
        self.pending_demote = None;
        self.timers = PendingTimers::default();
    }

    /// Post-recovery key resynchronization (primary role).
    ///
    /// A log cut short by a lying disk replays to older keys than
    /// members hold, so their paths may be stale; re-issue the current
    /// path to every member and child controller, then checkpoint (which
    /// also compacts the just-replayed WAL and makes the epoch jump
    /// durable), rekey out — when the policy is to do so at once — any
    /// departure the crash caught between its record and its flush, and
    /// push the re-attach image to the backup.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::tests::pubkey;
    use mykil_crypto::drbg::Drbg;
    use mykil_tree::{TreeBackend, TreeConfig};
    use proptest::prelude::*;
    use rand::RngCore;

    /// One record of an area's log: `(kind, client, seed)` over a
    /// universe of 24 clients — enough for a quad tree to split leaves,
    /// vacate them and fill them again — and three child areas, each
    /// enrolled again and again.
    fn record(&(kind, client, seed): &(u8, u64, u64)) -> AcWalRecord {
        let mut bytes = [0u8; 32];
        Drbg::from_seed(seed).fill_bytes(&mut bytes);
        let seed = Seed::from_bytes(bytes);
        match kind {
            0..=3 => AcWalRecord::Join {
                client,
                node: client as u32,
                pubkey: pubkey(client as u8),
                device: (client % 2 == 0).then_some([client as u8; 6]),
                valid_until_us: 1_000_000 + client,
                seed,
            },
            4 => AcWalRecord::Leave { client },
            5 => AcWalRecord::Evict { client },
            6 => AcWalRecord::Flush { seed },
            7 => AcWalRecord::Rotate { seed },
            8 => AcWalRecord::Enrol { child_area: (client % 3) as u32, node: client as u32, seed },
            9 => AcWalRecord::Parent { node: client as u32, area: 0, group: client as u32 },
            // Mostly a takeover; now and then a step-down, which blanks
            // the area.
            _ => AcWalRecord::Epoch { epoch: client, step_down: (client == 1).then_some(seed) },
        }
    }

    fn blank(backend: TreeBackend) -> AcDurable {
        let cfg = TreeConfig::quad().with_backend(backend);
        let image = AreaImage::blank(cfg, None, &mut Drbg::from_seed(5));
        AcDurable::deployed(Role::Primary, image)
    }

    fn fold(mut state: AcDurable, log: &[AcWalRecord]) -> AcDurable {
        for rec in log {
            let _ = state.apply(rec, &rec.to_bytes(), Time::ZERO);
        }
        state
    }

    /// What a replica must reproduce: every byte of the checkpoint —
    /// image, role, position — the queued departures, the epoch.
    fn facts(state: &AcDurable) -> (Vec<u8>, Vec<MemberId>, u64) {
        (state.encode(), state.departed().collect(), state.epoch())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

        /// The fold is a pure function of image and log, on both tree
        /// backends: two folds of one log are identical, and an image
        /// taken at any cut — encoded, decoded, folded over the rest —
        /// lands byte for byte where the straight-through fold does.
        /// This is what lets a backup hold a live replica, and what
        /// would catch any tree state `snapshot`/`restore` does not
        /// round-trip (vacant / open-interior / occupied ordering, the
        /// forest's overrides and versions).
        #[test]
        fn an_image_may_be_taken_anywhere_in_the_fold(
            steps in proptest::collection::vec((0u8..11, 1u64..25, any::<u64>()), 0..80),
            cut in 0usize..81,
            khf in any::<bool>(),
        ) {
            let backend = if khf { TreeBackend::Khf } else { TreeBackend::Explicit };
            let log: Vec<AcWalRecord> = steps.iter().map(record).collect();
            let cut = cut.min(log.len());

            let whole = fold(blank(backend), &log);
            prop_assert!(facts(&whole) == facts(&fold(blank(backend), &log)), "two folds differ");
            whole.image.tree.check_invariants();

            let prefix = fold(blank(backend), &log[..cut]);
            let image = AreaImage::decode(&prefix.image.encode(), Time::ZERO).expect("own image decodes");
            prop_assert_eq!(image.tree.config().backend(), backend);
            let resumed = fold(AcDurable { image, ..prefix }, &log[cut..]);
            prop_assert!(
                facts(&resumed) == facts(&whole),
                "an image after {cut} of {} records resumes elsewhere (epoch {} vs {}, departed {:?} vs {:?})",
                log.len(), resumed.epoch(), whole.epoch(),
                resumed.departed().collect::<Vec<_>>(), whole.departed().collect::<Vec<_>>()
            );
        }
    }

    /// Two recoveries of a primary from one durable base — the first
    /// one's checkpoint and rotation lost to a lying disk — ship their
    /// re-attach images at one sequence. The backup, which folded the
    /// first incarnation's rotation past it, drops the second image as
    /// stale, and the second incarnation's own rotation with it; its
    /// heartbeat ack names a position the primary never held (the same
    /// sequence over another area, or one ahead of it), and the primary
    /// sends one image above it.
    fn two_recoveries_from_one_base(rotate_again: bool) {
        use crate::group::GroupBuilder;
        use crate::invariants::InvariantChecker;
        use mykil_net::{Duration, StoreFault};

        let mut g = GroupBuilder::new(93).areas(1).replicated(true).build();
        g.settle();
        let (primary, backup) = (g.primaries[0], g.backups[0]);
        g.sim.crash(primary);
        g.sim.inject_storage_fault(primary, StoreFault::LostTail);
        assert!(g.sim.restart(primary));
        g.run_for(Duration::from_millis(1));
        g.sim.invoke(primary, |ac: &mut AreaController, ctx| ac.freshness_rotate(ctx));
        g.run_for(Duration::from_millis(50));
        let first = g.ac(0).durable.position;
        assert_eq!(g.backup(0).durable.position, first);

        g.sim.crash(primary);
        assert!(g.sim.restart(primary));
        g.run_for(Duration::from_millis(1));
        if rotate_again {
            g.sim.invoke(primary, |ac: &mut AreaController, ctx| ac.freshness_rotate(ctx));
        }
        let second = g.ac(0).durable.position;
        assert_eq!(second.seq, first.seq - u64::from(!rotate_again), "not one base");
        assert_ne!(second, first);
        let images = g.stats().counter("state-sync-images");
        g.run_for(Duration::from_secs(1));
        assert_eq!(g.sim.node::<AreaController>(backup).role(), Role::Backup);
        assert_eq!(g.stats().counter("ac-backup-lost-state"), 1);
        assert_eq!(g.stats().counter("state-sync-images"), images + 1);
        let (p, b) = (g.ac(0), g.backup(0));
        assert!(p.backup_in_sync() && b.durable.position == p.durable.position);
        assert!(b.durable.position.seq > first.seq);
        assert!(b.durable.image.encode() == p.durable.image.encode());
        assert_eq!(InvariantChecker::new().check(&g), vec![]);
    }

    #[test]
    fn two_recoveries_from_one_base_owe_one_image() {
        two_recoveries_from_one_base(true);
    }

    #[test]
    fn a_backup_ahead_of_its_primary_adopts_its_image() {
        two_recoveries_from_one_base(false);
    }
}
