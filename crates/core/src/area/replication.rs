//! Primary-backup replication of an area controller (Section IV-C).
//!
//! The replicated state is exactly what the paper lists: "the complete
//! auxiliary tree, public keys of the area members, area controllers
//! and the registration server, and the identities of the parent area
//! controller and all child area controllers". Multicast data in flight
//! is deliberately *not* replicated — members may miss packets during a
//! takeover, which the paper accepts.
//!
//! Replication is log shipping. The backup's [`AreaImage`] is a live
//! replica: it adopts a full image when it (re)attaches — start-up,
//! revival, the primary's recovery, adoption after a demotion, a
//! position the primary never held, a backlog past
//! `SYNC_BACKLOG_RECORDS`; between images the primary ships the WAL
//! records that changed the area (members, tree, child enrolments, the
//! parent link), seeds included, and the backup commits and folds them
//! through the same `wal_commit_record`. One `StateSync` body
//! ([`SyncBody`]) carries either, under one seal, sent once. Both sides
//! stand at a [`SyncPosition`], and the backup's heartbeat ack, which
//! names its own, is the only acknowledgement.

// `Msg` dispatch lists every variant, so a new wire message does not
// compile until each role triages it.
#![cfg_attr(
    not(test),
    warn(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use super::{AreaController, MemberRecord, ParentLink, Role, Timer};
use crate::durable::{AcWalRecord, Seed, SyncPosition};
use crate::identity::{AreaId, ClientId, DeviceId};
use crate::msg::{Msg, SyncBody};
use crate::node_keys::{demote_signed_bytes, takeover_signed_bytes};
use crate::wire::{Reader, Writer};
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, GroupId, NodeId, Time};
use mykil_tree::{AreaTree, TreeConfig};
use rand::RngCore;
use std::collections::BTreeMap;

/// The area state a primary replicates to its backup, and the payload
/// of either's checkpoint: the same bytes every way.
#[derive(Debug, Clone)]
pub(crate) struct AreaImage {
    pub tree: AreaTree,
    pub members: BTreeMap<ClientId, MemberRecord>,
    pub parent: Option<ParentLink>,
    /// Rekey epoch of the last key-update multicast.
    pub epoch: u64,
    /// Tree member id → node address for enrolled child controllers.
    pub child_ac_members: BTreeMap<u64, NodeId>,
}

impl AreaImage {
    /// An area nobody has joined yet.
    pub fn blank<R: RngCore + ?Sized>(
        cfg: TreeConfig,
        parent: Option<ParentLink>,
        rng: &mut R,
    ) -> AreaImage {
        AreaImage {
            tree: AreaTree::new(cfg, rng),
            members: BTreeMap::new(),
            parent,
            epoch: 0,
            child_ac_members: BTreeMap::new(),
        }
    }

    /// Serializes the replicated state (tree, members, hierarchy,
    /// epoch).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.tree.snapshot());
        w.u32(self.members.len() as u32);
        for (client, rec) in &self.members {
            w.u64(client.0)
                .u32(rec.node.index() as u32)
                .bytes(&rec.pubkey.to_bytes())
                .u8(rec.device.is_some() as u8);
            if let Some(d) = rec.device {
                w.raw(d.as_bytes());
            }
            w.u64(rec.valid_until.as_micros());
        }
        match &self.parent {
            Some(p) => {
                w.u8(1)
                    .u32(p.node.index() as u32)
                    .u32(p.area.0)
                    .u32(p.group.index() as u32);
            }
            None => {
                w.u8(0);
            }
        }
        w.u64(self.epoch);
        // Child-AC enrollments (tree member id → node). Without these a
        // promoted backup rejects every child-AC `KeyRefreshRequest`,
        // cutting children off from parent-area keys forever.
        w.u32(self.child_ac_members.len() as u32);
        for (member, node) in &self.child_ac_members {
            w.u64(*member).u32(node.index() as u32);
        }
        w.into_bytes()
    }

    /// Parses [`Self::encode`]'s bytes; `None` on any malformed input.
    /// Every member gets a fresh liveness grace period from `now`: the
    /// image arrives by recovery or replication, and silence before it
    /// was the controller's, not the members'.
    pub fn decode(bytes: &[u8], now: Time) -> Option<AreaImage> {
        let mut r = Reader::new(bytes);
        let tree = AreaTree::restore(r.bytes().ok()?).ok()?;
        let count = r.u32().ok()? as usize;
        let mut members = BTreeMap::new();
        for _ in 0..count {
            let client = ClientId(r.u64().ok()?);
            let node = NodeId::from_index(r.u32().ok()? as usize);
            let pubkey = RsaPublicKey::from_bytes(r.bytes().ok()?).ok()?;
            let device = if r.u8().ok()? == 1 {
                Some(DeviceId(r.array::<6>().ok()?))
            } else {
                None
            };
            let valid_until = Time::from_micros(r.u64().ok()?);
            members.insert(
                client,
                MemberRecord {
                    node,
                    pubkey,
                    device,
                    valid_until,
                    last_heard: now,
                },
            );
        }
        let parent = if r.u8().ok()? == 1 {
            Some(ParentLink {
                node: NodeId::from_index(r.u32().ok()? as usize),
                area: AreaId(r.u32().ok()?),
                group: GroupId::from_index(r.u32().ok()? as usize),
            })
        } else {
            None
        };
        let epoch = r.u64().ok()?;
        let enrolled_count = r.u32().ok()? as usize;
        let mut child_ac_members = BTreeMap::new();
        for _ in 0..enrolled_count {
            let member = r.u64().ok()?;
            let node = NodeId::from_index(r.u32().ok()? as usize);
            child_ac_members.insert(member, node);
        }
        r.finish().ok()?;
        Some(AreaImage {
            tree,
            members,
            parent,
            epoch,
            child_ac_members,
        })
    }
}

impl AreaController {
    /// Brings the backup up to date (called after every key update,
    /// membership change, or hierarchy change): ships the records
    /// committed since the last shipment, or — while an image is owed —
    /// the full area image, under the sequence it brings the backup to,
    /// so that a reordered or repeated sync can never regress it. The
    /// backup's heartbeat acks say what arrived
    /// ([`Self::handle_heartbeat_ack`]); nothing is sent while it is
    /// presumed dead.
    pub(crate) fn sync_backup(&mut self, ctx: &mut Context<'_>) {
        let Some(backup) = self.peer_node() else {
            return;
        };
        if self.durable.role != Role::Primary || self.backup_presumed_dead {
            return;
        }
        let image;
        let body = if self.image_owed {
            // An image is a step of the sequence no record takes, and
            // starts the digest chain afresh.
            image = self.durable.image.encode();
            self.durable.position = SyncPosition::image(self.durable.position.seq + 1, &image);
            self.image_owed = false;
            ctx.stats().bump("state-sync-images", 1);
            SyncBody::Image { seq: self.durable.position.seq, image: &image }
        } else {
            let shipped = self.shipped;
            let records: Vec<&[u8]> = self
                .sync_backlog
                .iter()
                .filter(|(from, _)| from.seq >= shipped)
                .map(|(_, rec)| rec.as_slice())
                .collect();
            if records.is_empty() {
                return;
            }
            ctx.stats().bump("state-sync-records", records.len() as u64);
            SyncBody::Records { seq: self.durable.position.seq, records }
        };
        self.node_keys.charge_symmetric(ctx, 1);
        let ct = self.repl_key.seal(&body.to_bytes(), ctx.rng());
        self.shipped = self.durable.position.seq;
        ctx.send(backup, "state-sync", Msg::StateSync { ct }.to_bytes());
    }

    /// Stops queueing records for the backup, which holds nothing this
    /// node can build on: the next sync ships a full image, and nothing
    /// shipped before it counts.
    pub(crate) fn owe_image(&mut self) {
        self.image_owed = true;
        self.acked = None;
        self.sync_backlog.clear();
        (self.shipped, self.shipped_at_ack) = (0, 0);
    }

    /// Whether the backup holds this node's area: it acknowledged the
    /// position this node stands at, and is not presumed dead. The
    /// replica-equality invariant compares the two images only then.
    pub fn backup_in_sync(&self) -> bool {
        self.acked == Some(self.durable.position) && !self.backup_presumed_dead
    }

    /// Primary heartbeat tick. Heartbeats keep flowing to a presumed-
    /// dead peer (they are cheap and detect its recovery, and a peer
    /// that also claims the area hears this node's epoch in them); only
    /// the `StateSync` traffic stops.
    pub(crate) fn tick_heartbeat(&mut self, ctx: &mut Context<'_>) {
        if let Some(backup) = self.peer_node() {
            ctx.send(
                backup,
                "replication",
                Msg::Heartbeat { takeover_epoch: self.durable.takeover_epoch }.to_bytes(),
            );
            let threshold = self
                .cfg
                .heartbeat_interval
                .saturating_mul(self.cfg.failover_threshold as u64);
            if !self.backup_presumed_dead && ctx.now().since(self.last_backup_ack) >= threshold {
                self.backup_presumed_dead = true;
                ctx.stats().bump("backup-presumed-dead", 1);
                // It re-attaches with an image.
                self.owe_image();
            }
        }
        Timer::Heartbeat.arm(&mut self.timers, ctx, self.cfg.heartbeat_interval);
    }

    /// The one acknowledgement of replication (primary role): the
    /// backup's heartbeat ack names the position its replica stands at,
    /// refreshes the liveness clock and revives a presumed-dead backup.
    ///
    /// - A position this node held — where it stands, or one its backlog
    ///   follows — trims the backlog up to there; short of what had been
    ///   shipped when the previous ack was read, the rest is shipped
    ///   again. (Not when the heartbeat left: a heartbeat can overtake
    ///   the larger `StateSync` shipped just before it.)
    /// - A position this node never held — the same sequence over
    ///   another area, one past where it stands, one below its backlog —
    ///   owes an image at a sequence above both, which the backup cannot
    ///   drop as stale; unless it is only below an image shipped since
    ///   the previous ack was read, still on its way.
    pub(crate) fn handle_heartbeat_ack(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        takeover_epoch: u64,
        at: SyncPosition,
    ) {
        if self.peer_node() != Some(from) {
            return;
        }
        self.heard_epoch = self.heard_epoch.max(takeover_epoch);
        self.last_backup_ack = ctx.now();
        if self.backup_presumed_dead {
            self.backup_presumed_dead = false;
            ctx.stats().bump("ac-backup-recovered", 1);
        }
        let first = self.sync_backlog.front().map_or(self.durable.position, |(from, _)| *from);
        let on_its_way = self.shipped_at_ack < first.seq && first.seq <= self.shipped;
        if at == self.durable.position || self.sync_backlog.iter().any(|(from, _)| *from == at) {
            self.sync_backlog.retain(|(from, _)| from.seq >= at.seq);
            self.acked = Some(at);
            self.image_owed = false;
            if at.seq < self.shipped_at_ack {
                ctx.stats().bump("ac-state-sync-reshipped", 1);
                self.shipped = at.seq;
            }
        } else if at.seq >= first.seq || !on_its_way {
            if !self.image_owed {
                ctx.stats().bump("ac-backup-lost-state", 1);
            }
            self.durable.position.seq = self.durable.position.seq.max(at.seq);
            self.owe_image();
        }
        self.sync_backup(ctx);
        self.shipped_at_ack = self.shipped;
    }

    /// Message dispatch while in the backup role.
    pub(crate) fn on_backup_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Msg) {
        let from_peer = self.peer_node() == Some(from);
        match msg {
            Msg::Heartbeat { takeover_epoch } if from_peer => {
                self.last_heartbeat = ctx.now();
                // Remember the primary's fencing epoch so a later
                // takeover fences strictly above it.
                self.heard_epoch = self.heard_epoch.max(takeover_epoch);
                ctx.send(
                    from,
                    "replication",
                    Msg::HeartbeatAck {
                        takeover_epoch: self.durable.takeover_epoch,
                        position: self.durable.position,
                    }
                    .to_bytes(),
                );
            }
            Msg::StateSync { ct } if from_peer => {
                self.last_heartbeat = ctx.now();
                let Ok(plain) = self.repl_key.open(&ct) else { return };
                let Some(body) = SyncBody::from_bytes(&plain) else { return };
                self.apply_sync(ctx, body);
            }
            // Replication traffic from impostor nodes, and every area/
            // join/rekey message: a standby replica ignores them all
            // (listed explicitly so a new wire message fails to compile
            // until triaged here).
            Msg::Heartbeat { .. }
            | Msg::StateSync { .. }
            | Msg::Join1 { .. }
            | Msg::Join2 { .. }
            | Msg::Join3 { .. }
            | Msg::Join4 { .. }
            | Msg::Join5 { .. }
            | Msg::Join6 { .. }
            | Msg::Join7 { .. }
            | Msg::Rejoin1 { .. }
            | Msg::Rejoin2 { .. }
            | Msg::Rejoin3 { .. }
            | Msg::Rejoin4 { .. }
            | Msg::Rejoin5 { .. }
            | Msg::Rejoin6 { .. }
            | Msg::RejoinDenied { .. }
            | Msg::AreaJoinReq { .. }
            | Msg::AreaJoinAck { .. }
            | Msg::KeyUpdate { .. }
            | Msg::KeyUnicast { .. }
            | Msg::KeyRefreshRequest { .. }
            | Msg::LeaveRequest { .. }
            | Msg::Data { .. }
            | Msg::AcAlive { .. }
            | Msg::MemberAlive { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::Takeover { .. }
            | Msg::Demote { .. } => {}
        }
    }

    /// Applies a `StateSync` body to the replica (backup role).
    ///
    /// Monotonic-sequence guard: a reordered or stale sync must not
    /// overwrite a newer state, and records apply only on top of the
    /// sequence they follow — a gap is left for the primary to read off
    /// the next `HeartbeatAck` and fill. Records fold through
    /// `wal_commit_record`, which moves the position a step each; an
    /// image sets it.
    fn apply_sync(&mut self, ctx: &mut Context<'_>, body: SyncBody<'_>) {
        let applied = self.durable.position.seq;
        match body {
            SyncBody::Image { seq, image: bytes } if seq > applied => {
                let Some(image) = AreaImage::decode(bytes, ctx.now()) else { return };
                self.durable.image = image;
                self.durable.position = SyncPosition::image(seq, bytes);
                // No record describes an image: it is durable as a
                // checkpoint, or a post-crash takeover promotes whatever
                // the replica held before it.
                self.persist_checkpoint(ctx);
            }
            SyncBody::Records { seq, records } if seq > applied => {
                // The sequence the first record follows.
                let base = seq.saturating_sub(records.len() as u64);
                if base > applied {
                    ctx.stats().bump("backup-sync-gap", 1);
                    return;
                }
                for raw in records.iter().skip((applied - base) as usize) {
                    // Only what changes the area is a primary's to send;
                    // anything else ends the batch like a torn record.
                    let Some(rec) = AcWalRecord::from_bytes(raw).filter(AcWalRecord::changes_area)
                    else {
                        return;
                    };
                    let _ = self.wal_commit_record(ctx, &rec);
                }
            }
            SyncBody::Image { .. } | SyncBody::Records { .. } => {
                ctx.stats().bump("backup-stale-sync-dropped", 1);
            }
        }
    }

    /// Backup watchdog: take over after `failover_threshold` missed
    /// heartbeats.
    pub(crate) fn tick_backup_watch(&mut self, ctx: &mut Context<'_>) {
        let silence = ctx.now().since(self.last_heartbeat);
        let threshold = self
            .cfg
            .heartbeat_interval
            .saturating_mul(self.cfg.failover_threshold as u64);
        if silence >= threshold {
            self.take_over(ctx);
        } else {
            Timer::BackupWatch.arm(&mut self.timers, ctx, self.cfg.heartbeat_interval);
        }
    }

    /// Becomes the area's controller: restore replicated state, announce
    /// to the area, the registration server and the parent, and start
    /// the primary timers.
    fn take_over(&mut self, ctx: &mut Context<'_>) {
        // The promotion must be durable before it is announced: a
        // promoted backup that crashes and forgets it was primary would
        // leave the area with no controller at all. WAL first, then the
        // compacting checkpoint — if the checkpoint write is later lost
        // to a lying disk, the older slot plus this record still
        // replays the promotion. The replica is live: applying the
        // record only changes whose area it is and restarts the
        // members' liveness clocks. The epoch fences strictly above
        // anything the peer ever announced here: after a heal, whichever
        // of the two primaries holds the lower epoch is demoted.
        let epoch = self.durable.takeover_epoch.max(self.heard_epoch) + 1;
        let _ = self.wal_commit_record(ctx, &AcWalRecord::Epoch { epoch, step_down: None });
        self.adopt_departures();
        self.stats.takeovers += 1;
        ctx.stats().bump("ac-takeovers", 1);
        self.persist_checkpoint(ctx);
        // The peer fell silent: it gets no `StateSync` until it answers
        // a heartbeat as backup, or acknowledges a `Demote`.
        self.backup_presumed_dead = true;

        self.announce_takeover(ctx);

        // Re-enroll with the parent so parent-area keys are fresh.
        if let Some(p) = self.durable.image.parent.clone() {
            ctx.join_group(p.group);
            self.request_parent_enrollment(ctx, &p);
        }
        self.resume_role(ctx);
    }

    /// Signed takeover announcement: members switch their AC pointer,
    /// the RS updates its directory, child controllers repoint parents.
    /// Also re-sent after a split-brain heal, for the partition that
    /// missed the original.
    fn announce_takeover(&mut self, ctx: &mut Context<'_>) {
        let sig = self.node_keys.sign(ctx, &takeover_signed_bytes(self.deploy.area));
        let announce = Msg::Takeover {
            area: self.deploy.area,
            sig,
            pubkey: self.node_keys.public().to_bytes(),
        }
        .to_bytes();
        ctx.multicast(self.deploy.group, "takeover", announce.clone());
        // The RS copy must survive loss — a silently lost announcement
        // leaves the directory pointing at the dead primary.
        ctx.send_reliable(self.deploy.rs_node, "takeover", announce);
        self.last_area_mcast = ctx.now();
    }

    /// Whether `(epoch, node)` outranks this node's own claim: the
    /// higher takeover epoch keeps the area, the higher node id breaks
    /// a tie.
    fn outranks(&self, ctx: &Context<'_>, epoch: u64, node: NodeId) -> bool {
        (epoch, node) > (self.durable.takeover_epoch, ctx.id())
    }

    /// A primary received its peer's heartbeat: the peer also believes
    /// it runs this area. If this node's claim outranks the peer's, send
    /// it a signed `Demote` (reliably — the heal may still be flaky);
    /// otherwise the peer's own `Demote` is on its way.
    pub(crate) fn handle_peer_claim(&mut self, ctx: &mut Context<'_>, from: NodeId, epoch: u64) {
        if self.peer_node() != Some(from) {
            return;
        }
        self.heard_epoch = self.heard_epoch.max(epoch);
        if self.outranks(ctx, epoch, from) || self.pending_demote.is_some() {
            return; // outranked, or one fence in flight is enough
        }
        ctx.stats().bump("ac-demote-sent", 1);
        let signed = demote_signed_bytes(self.deploy.area, self.durable.takeover_epoch);
        let sig = self.node_keys.sign(ctx, &signed);
        let token = ctx.send_reliable(
            from,
            "takeover",
            Msg::Demote {
                area: self.deploy.area,
                takeover_epoch: self.durable.takeover_epoch,
                sig,
            }
            .to_bytes(),
        );
        self.pending_demote = Some(token);
    }

    /// A primary received a `Demote`: its peer took over behind a
    /// partition or a crash and holds the higher claim. Verify it under
    /// the peer's deployment key, adopt the peer's epoch and step down to
    /// the backup role, to be re-imaged through the normal StateSync
    /// path.
    pub(crate) fn handle_demote(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        area: AreaId,
        takeover_epoch: u64,
        sig: &[u8],
    ) {
        let Some((peer, peer_key)) = &self.peer else {
            return;
        };
        if area != self.deploy.area || *peer != from || !self.outranks(ctx, takeover_epoch, from) {
            return;
        }
        let signed = demote_signed_bytes(area, takeover_epoch);
        if !self.node_keys.verify(ctx, peer_key, &signed, sig) {
            return;
        }
        // Epoch fence lost: step down. Losing the fence must stick
        // across a crash, or a recovered node would come back up
        // believing it still runs the area.
        let step_down = Some(Seed::draw(ctx.rng()));
        let _ = self.wal_commit_record(ctx, &AcWalRecord::Epoch { epoch: takeover_epoch, step_down });
        // The batch window belonged to the area just handed over.
        self.update_needed = false;
        self.buffered_join_updates.clear();
        self.recorded_members.clear();
        self.backup_presumed_dead = false;
        // A `Demote` this node sent while it held the higher claim is
        // stale now; its retransmissions stop.
        if let Some(token) = self.pending_demote.take() {
            ctx.cancel_reliable(token);
        }
        self.owe_image();
        if let Some((_, token)) = self.pending_parent_join.take() {
            ctx.cancel_reliable(token);
        }
        // The parent-area path belonged to the area handed over.
        self.parent_keys.clear();
        self.stats.demotions += 1;
        ctx.stats().bump("ac-demotions", 1);
        self.persist_checkpoint(ctx);
        self.resume_role(ctx);
    }

    /// The peer acknowledged the `Demote` (the gates on both sides
    /// mirror each other, so delivery implies acceptance): it is this
    /// node's backup again, and is brought up to date.
    pub(crate) fn handle_demote_acked(&mut self, ctx: &mut Context<'_>) {
        self.last_backup_ack = ctx.now();
        self.backup_presumed_dead = false;
        ctx.stats().bump("ac-demote-acked", 1);
        // Stepping down blanked the peer's area: it attaches with an
        // image.
        self.owe_image();
        // Members and child controllers in the stale partition missed
        // the original takeover announcement; repeat it now that both
        // sides can hear it.
        self.announce_takeover(ctx);
        self.sync_backup(ctx);
    }

    /// Sends a signed area-join request to establish or re-establish
    /// membership in `parent`'s area, and says whether one went out.
    pub(crate) fn request_parent_enrollment(
        &mut self,
        ctx: &mut Context<'_>,
        parent: &ParentLink,
    ) -> bool {
        let Some(parent_pub) = self.directory_pubkey(parent.node) else {
            return false;
        };
        let mut w = Writer::new();
        w.u32(self.deploy.area.0).u64(ctx.now().as_micros());
        let Some((ct, sig)) = self.node_keys.seal_signed(ctx, &parent_pub, &w.into_bytes()) else {
            return false;
        };
        // Supersede any older in-flight request: only the latest target
        // may answer, and its request rides the reliable channel.
        if let Some((_, old)) = self.pending_parent_join.take() {
            ctx.cancel_reliable(old);
        }
        let token = ctx.send_reliable(
            parent.node,
            "area-join",
            Msg::AreaJoinReq { ct, sig }.to_bytes(),
        );
        self.pending_parent_join = Some((parent.node, token));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::{AreaController, AreaImage};
    use crate::group::GroupBuilder;

    /// Regression: `child_ac_members` must survive the snapshot round
    /// trip, or a promoted backup rejects every child-AC key refresh.
    #[test]
    fn replica_snapshot_round_trips_child_ac_enrollments() {
        let mut g = GroupBuilder::new(91).areas(2).replicated(true).build();
        g.settle();
        let (bytes, expect_children, expect_epoch) =
            g.sim.invoke(g.primaries[0], |ac: &mut AreaController, _ctx| {
                let image = &ac.durable.image;
                (image.encode(), image.child_ac_members.clone(), image.epoch)
            });
        assert!(
            !expect_children.is_empty(),
            "area 1 should be enrolled as a child of area 0"
        );
        let image = AreaImage::decode(&bytes, g.sim.now()).expect("snapshot parses");
        assert_eq!(image.child_ac_members, expect_children);
        assert_eq!(image.epoch, expect_epoch);
        assert_eq!(image.encode(), bytes, "snapshot does not re-encode to itself");
    }

    /// Two primaries at one takeover epoch: the higher node id keeps
    /// the area. Each hears the other's heartbeats, but a heartbeat
    /// never makes a node step down; the winner's signed `Demote` does,
    /// and the loser stands by at the winner's epoch.
    #[test]
    fn at_equal_epochs_the_higher_node_keeps_the_area() {
        use crate::area::Role;
        use crate::durable::AcWalRecord;
        use crate::invariants::InvariantChecker;

        let mut g = GroupBuilder::new(99).areas(1).replicated(true).build();
        let m = g.register_member(1);
        g.settle();
        let (low, high) = (g.primaries[0], g.backups[0]);
        assert!(low < high);
        // The backup claims the area at the primary's own epoch, without
        // the takeover that would claim one above it.
        g.sim.invoke(high, |ac: &mut AreaController, ctx| {
            let claim = AcWalRecord::Epoch { epoch: 0, step_down: None };
            ac.wal_commit_record(ctx, &claim).expect("a claim always applies");
            ac.resume_role(ctx);
        });
        g.run_for(mykil_net::Duration::from_secs(2));

        let (winner, loser) = (g.sim.node::<AreaController>(high), g.ac(0));
        assert_eq!((winner.role(), loser.role()), (Role::Primary, Role::Backup));
        assert_eq!(loser.durable.takeover_epoch, 0);
        assert_eq!(g.stats().counter("ac-demotions"), 1);
        // The winner's repeated announcement moved the member over.
        assert!(g.is_member(m));
        assert_eq!(InvariantChecker::new().check(&g), vec![]);
    }

    /// A stale (lower-sequence) sync — e.g. a delayed retransmission
    /// arriving after a newer one — must not regress the backup, be it
    /// an image or records; and records that do not follow what the
    /// backup holds are a gap it leaves alone.
    #[test]
    fn stale_state_sync_cannot_regress_backup() {
        use crate::durable::AcWalRecord;
        use crate::msg::{Msg, SyncBody};

        let mut g = GroupBuilder::new(92).areas(1).replicated(true).build();
        g.register_member(1);
        g.settle();
        let backup_node = g.backups[0];
        let applied = g.sim.node::<AreaController>(backup_node).durable.position.seq;
        assert!(applied > 1, "backup never applied a sync");
        let state = g.sim.node::<AreaController>(backup_node).durable.image.encode();

        // Replay sealed bodies with old sequence numbers, and one from
        // the future.
        let primary = g.primaries[0];
        let repl_key = g.sim.node::<AreaController>(primary).repl_key.clone();
        let mut rng = mykil_crypto::drbg::Drbg::from_seed(7);
        let blank = AreaImage::blank(mykil_tree::TreeConfig::default(), None, &mut rng).encode();
        let leave = AcWalRecord::Leave { client: 1 }.to_bytes();
        for body in [
            SyncBody::Image { seq: 1, image: &blank },
            SyncBody::Image { seq: applied, image: &blank },
            SyncBody::Records { seq: applied, records: vec![&leave] },
            SyncBody::Records { seq: applied + 2, records: vec![&leave] },
        ] {
            let ct = repl_key.seal(&body.to_bytes(), &mut rng);
            g.sim.invoke(backup_node, |ac: &mut AreaController, ctx| {
                ac.on_backup_message(ctx, primary, Msg::StateSync { ct });
            });
        }
        let b = g.sim.node::<AreaController>(backup_node);
        assert_eq!(b.durable.position.seq, applied, "stale seq must not apply");
        assert!(b.durable.image.encode() == state, "stale sync overwrote state");
        assert_eq!(g.stats().counter("backup-stale-sync-dropped"), 3);
        assert_eq!(g.stats().counter("backup-sync-gap"), 1);
    }

    /// A primary does not queue records without bound for a backup that
    /// is slow to acknowledge: past `SYNC_BACKLOG_RECORDS` it drops the
    /// queue and owes a full image, which then carries everything.
    #[test]
    fn a_backlog_past_the_bound_becomes_one_image() {
        use crate::durable::{AcWalRecord, Seed, SYNC_BACKLOG_RECORDS};

        let mut g = GroupBuilder::new(98).areas(1).replicated(true).build();
        g.register_member(1);
        g.settle();
        let primary = g.primaries[0];
        assert!(g.sim.node::<AreaController>(primary).backup_in_sync());
        let images = g.stats().counter("state-sync-images");

        g.sim.invoke(primary, |ac: &mut AreaController, ctx| {
            for _ in 0..SYNC_BACKLOG_RECORDS {
                let rotate = AcWalRecord::Rotate { seed: Seed::draw(ctx.rng()) };
                ac.wal_commit_record(ctx, &rotate).expect("a rotation always applies");
            }
            assert_eq!(ac.sync_backlog.len(), SYNC_BACKLOG_RECORDS);
            let rotate = AcWalRecord::Rotate { seed: Seed::draw(ctx.rng()) };
            ac.wal_commit_record(ctx, &rotate).expect("a rotation always applies");
            assert!(ac.image_owed && ac.sync_backlog.is_empty());
            ac.sync_backup(ctx);
        });
        g.run_for(mykil_net::Duration::from_secs(1));
        assert_eq!(g.stats().counter("state-sync-images"), images + 1);
        let (p, b) = (g.sim.node::<AreaController>(primary), g.backup(0));
        assert!(p.backup_in_sync());
        assert!(b.durable.image.encode() == p.durable.image.encode());
        assert_eq!(b.durable.position, p.durable.position);
    }

    /// Regression: a primary whose backup died must stop burning
    /// bandwidth on `StateSync`, and must resume — with a catch-up
    /// snapshot — the moment the backup acks heartbeats again.
    #[test]
    fn primary_detects_dead_backup_and_resyncs_on_recovery() {
        use mykil_net::Duration;

        let mut g = GroupBuilder::new(95).areas(1).replicated(true).build();
        let a = g.register_member(1);
        g.settle();
        assert!(g.is_member(a));
        let primary = g.primaries[0];
        let backup_node = g.backups[0];

        // Kill the backup; heartbeat acks stop.
        g.sim.crash(backup_node);
        g.run_for(Duration::from_secs(4));
        assert_eq!(g.stats().counter("backup-presumed-dead"), 1);
        assert!(g.sim.node::<AreaController>(primary).backup_presumed_dead);

        // Membership churn while the backup is down must not produce
        // any sync traffic toward the dead node.
        let syncs_before = g.stats().kind("state-sync").messages_sent;
        let b = g.register_member(2);
        g.run_for(Duration::from_secs(2));
        assert!(g.is_member(b));
        assert_eq!(
            g.stats().kind("state-sync").messages_sent,
            syncs_before,
            "primary kept syncing a presumed-dead backup"
        );
        assert!(g.sim.node::<AreaController>(primary).sync_backlog.is_empty());

        // The backup returns: the next heartbeat ack revives it and an
        // immediate catch-up sync closes the replication gap.
        g.sim.restart(backup_node);
        g.run_for(Duration::from_secs(2));
        assert_eq!(g.stats().counter("ac-backup-recovered"), 1);
        assert!(!g.sim.node::<AreaController>(primary).backup_presumed_dead);
        assert!(
            g.stats().kind("state-sync").messages_sent > syncs_before,
            "no catch-up sync after the backup returned"
        );
        // The catch-up image carries the member admitted during the
        // outage.
        assert_eq!(g.sim.node::<AreaController>(backup_node).durable.image.members.len(), 2);
        assert!(g.sim.node::<AreaController>(primary).backup_in_sync());
    }

    /// Regression: a checkpoint may be taken anywhere, also inside a
    /// batch window (a long WAL or a role change takes one whenever it
    /// occurs). It truncates
    /// the `Leave` record, so the departure it queued must be readable
    /// from the image itself.
    #[test]
    fn checkpoint_inside_a_batch_window_keeps_the_queued_departure() {
        use crate::config::MykilConfig;
        use crate::member::Member;
        use mykil_net::Duration;
        use mykil_tree::MemberId;

        // Only data flushes: the backstop timer is an hour away.
        let cfg = MykilConfig {
            rekey_interval: Duration::from_secs(3600),
            ..MykilConfig::test()
        };
        let mut g = GroupBuilder::new(96).config(cfg).areas(1).replicated(true).build();
        let a = g.register_member(1);
        let b = g.register_member(2);
        g.settle();
        g.send_data(a, b"flush the joins");
        g.run_for(Duration::from_secs(1));

        let b_leaf = MemberId(g.member(b).client_id().expect("b joined").0);
        assert!(g.sim.invoke(b, |m: &mut Member, ctx| m.leave(ctx)));
        g.run_for(Duration::from_millis(150));
        let primary = g.primaries[0];
        g.sim.invoke(primary, |ac: &mut AreaController, ctx| {
            assert!(ac.update_needed && ac.durable.departed().eq([b_leaf]));
            ac.persist_checkpoint(ctx);
        });

        // Crash and restart in the same instant: no takeover, recovery
        // from the node's own checkpoint and (now empty) WAL.
        g.sim.crash(primary);
        assert!(g.sim.restart(primary));
        g.run_for(Duration::from_millis(200));
        let ac = g.sim.node::<AreaController>(primary);
        assert!(ac.durable.departed().eq([b_leaf]));
        assert!(ac.update_needed, "recovery forgot the queued departure");

        let rekeys_before = ac.stats.rekeys;
        g.send_data(a, b"flush the leave");
        g.run_for(Duration::from_secs(1));
        let ac = g.sim.node::<AreaController>(primary);
        assert!(
            !ac.durable.image.tree.contains(b_leaf),
            "the departed member's leaf outlived the flush"
        );
        assert_eq!(ac.stats.rekeys, rekeys_before + 1, "no key update was multicast");
    }
}
