//! Failure detection and recovery at the area controller
//! (Sections IV-A and IV-C of the paper).
//!
//! - the AC multicasts `alive` after `T_idle` of multicast silence;
//! - members silent for `5·T_active` are unilaterally evicted (a
//!   batched leave);
//! - a parent area silent for `5·T_idle` triggers a parent switch: a
//!   signed area-join exchange with a preferred alternative controller.

use super::{AreaController, ParentLink, RejoinStage, Timer};
use crate::durable::{AcWalRecord, Seed};
use crate::identity::{AreaId, ClientId};
use crate::msg::{Msg, RejoinDenyReason};
use crate::node_keys::takeover_signed_bytes;
use crate::rekey::{decode_path, receive_key_update, KeyState};
use crate::wire::{self, Writer};
use mykil_net::{Context, GroupId, NodeId, Time};
use mykil_tree::MemberId;

impl AreaController {
    /// `T_idle` tick: multicast `alive` when the area has been quiet.
    pub(crate) fn tick_idle_alive(&mut self, ctx: &mut Context<'_>) {
        if ctx.now().since(self.last_area_mcast) >= self.cfg.t_idle {
            ctx.multicast(
                self.deploy.group,
                "alive",
                Msg::AcAlive {
                    area: self.deploy.area,
                    epoch: self.durable.image.epoch,
                }
                .to_bytes(),
            );
            self.last_area_mcast = ctx.now();
        }
        Timer::IdleAlive.arm(&mut self.timers, ctx, self.cfg.t_idle);
    }

    /// Periodic sweep: evict silent or expired members, time out
    /// rejoin-verification waits.
    pub(crate) fn tick_sweep(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let evict_after = self.cfg.ac_evict_after();
        let stale: Vec<ClientId> = self
            .durable
            .image
            .members
            .iter()
            .filter(|(_, rec)| {
                now.since(rec.last_heard) >= evict_after || now > rec.valid_until
            })
            .map(|(c, _)| *c)
            .collect();
        let mut changed = false;
        for client in stale {
            // Durable before effective: a crash right after the sweep
            // must not resurrect the evicted member on recovery.
            let _ = self.wal_commit_record(ctx, &AcWalRecord::Evict { client: client.0 });
            self.stats.evictions += 1;
            ctx.stats().bump("ac-evictions", 1);
            changed = true;
        }
        if changed {
            self.update_needed = true;
            self.after_membership_change(ctx);
        }

        // Rejoins stuck waiting on an unreachable previous AC.
        let expired: Vec<NodeId> = self
            .pending_rejoins
            .iter()
            .filter(|(_, p)| p.stage == RejoinStage::AwaitPrevAc && now >= p.deadline)
            .map(|(n, _)| *n)
            .collect();
        for node in expired {
            self.resolve_unverified_rejoin(ctx, node);
        }

        Timer::Sweep.arm(&mut self.timers, ctx, self.cfg.t_active);
    }

    /// Freshness timer: flush pending updates even without data traffic
    /// (the second rekey trigger of Section III-E).
    pub(crate) fn tick_rekey(&mut self, ctx: &mut Context<'_>) {
        if self.update_needed {
            self.flush_key_updates(ctx);
            self.sync_backup(ctx);
        } else if self.cfg.idle_freshness_rekey && self.durable.image.tree.member_count() > 0 {
            self.freshness_rotate(ctx);
        }
        Timer::Rekey.arm(&mut self.timers, ctx, self.cfg.rekey_interval);
    }

    /// Rotates only the area key, multicast under its previous value —
    /// the periodic freshness rekey of Section III-E.
    pub(crate) fn freshness_rotate(&mut self, ctx: &mut Context<'_>) {
        self.note_area_key();
        let rotate = AcWalRecord::Rotate { seed: Seed::draw(ctx.rng()) };
        let Ok(plan) = self.wal_commit_record(ctx, &rotate) else { return };
        // The plan's single change carries (PreviousSelf, old key), so the
        // streaming encoder seals under the superseded area key directly.
        let mut w = crate::wire::Writer::with_capacity(crate::rekey::entries_wire_len(&plan));
        crate::rekey::write_entries_from_plan(&plan, ctx.rng(), &mut w);
        self.multicast_key_update(ctx, w.into_bytes());
        ctx.stats().bump("ac-freshness-rekeys", 1);
        self.sync_backup(ctx);
    }

    /// Parent-liveness check: switch parents after `5·T_idle` of
    /// silence.
    pub(crate) fn tick_parent_check(&mut self, ctx: &mut Context<'_>) {
        if self.durable.image.parent.is_some()
            && ctx.now().since(self.last_heard_parent) >= self.cfg.member_disconnect_after()
        {
            self.start_parent_switch(ctx);
        }
        Timer::ParentCheck.arm(&mut self.timers, ctx, self.cfg.t_idle);
    }

    /// Picks the next preferred parent and sends a signed area-join
    /// request (Section IV-C).
    ///
    /// Consecutive attempts rotate through `deploy.preferred_parents`
    /// (cursor-based), so a dead first candidate cannot absorb every
    /// retry while live alternatives sit unused. Each preferred area
    /// contributes two candidates: its primary and, when the
    /// deployment registers one, its backup — after a failover the
    /// area's live controller is the backup node, and a rotation that
    /// only knows primaries would retry a demoted (or dead) node
    /// forever.
    pub(crate) fn start_parent_switch(&mut self, ctx: &mut Context<'_>) {
        let current = self.durable.image.parent.as_ref().map(|p| p.node);
        let mut candidates: Vec<ParentLink> = Vec::new();
        for p in &self.deploy.preferred_parents {
            candidates.push(p.clone());
            if let Some(b) = self.deploy.backups.by_area(p.area) {
                candidates.push(ParentLink {
                    node: NodeId::from_index(b.node as usize),
                    area: p.area,
                    group: p.group,
                });
            }
        }
        let n = candidates.len();
        let mut chosen = None;
        for i in 0..n {
            let idx = (self.parent_switch_cursor + i) % n;
            let cand = &candidates[idx];
            if Some(cand.node) != current && cand.node != ctx.id() {
                chosen = Some((idx, cand.clone()));
                break;
            }
        }
        let Some((idx, next)) = chosen else {
            return;
        };
        self.parent_switch_cursor = (idx + 1) % n;
        if self.request_parent_enrollment(ctx, &next) {
            ctx.stats().bump("ac-parent-switch-attempts", 1);
            // Stop treating the dead parent as alive; the ack installs
            // the replacement.
            self.last_heard_parent = ctx.now();
        }
    }

    /// Handles an area-join request from a prospective child controller.
    pub(crate) fn handle_area_join_req(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        ct: &[u8],
        sig: &[u8],
    ) {
        let Some(child_pub) = self.directory_pubkey(from) else {
            return;
        };
        let Some(plain) = self.node_keys.open_signed(ctx, &child_pub, ct, sig) else {
            return;
        };
        let Some((child_area, ts)) =
            wire::parse(&plain, |r| Ok((AreaId(r.u32()?), Time::from_micros(r.u64()?))))
        else {
            return;
        };
        if !self.fresh_timestamp(ctx.now(), ts) {
            return;
        }
        // Enroll the child AC as a member of this area's tree, durably
        // before the ack leaves.
        self.note_area_key();
        let member = MemberId(super::AC_MEMBER_BASE + child_area.0 as u64);
        let enrol = AcWalRecord::Enrol {
            child_area: child_area.0,
            node: from.index() as u32,
            seed: Seed::draw(ctx.rng()),
        };
        let Ok(plan) = self.wal_commit_record(ctx, &enrol) else {
            ctx.stats().bump("ac-admissions-rejected", 1);
            return;
        };
        self.buffer_join_plan(&plan);
        self.send_displaced_unicasts(ctx, &plan, member);
        self.update_needed = true;
        let path_bytes = plan
            .unicasts
            .iter()
            .find(|u| u.member == member)
            .map(|u| crate::rekey::encode_tree_path(&u.keys))
            .unwrap_or_else(|| crate::rekey::encode_path(&[]));

        // Ack: {my area, my group, my rekey epoch, the child's path
        // keys, ts}, sealed to the child and signed.
        let mut w = Writer::new();
        w.u32(self.deploy.area.0)
            .u32(self.deploy.group.index() as u32)
            .u64(self.durable.image.epoch)
            .bytes(&path_bytes)
            .u64(ctx.now().as_micros());
        let Some((ack_ct, ack_sig)) = self.node_keys.seal_signed(ctx, &child_pub, &w.into_bytes())
        else {
            return;
        };
        // Reliable: a lost ack would otherwise strand the child with a
        // transport-acknowledged request and no installed parent.
        ctx.send_reliable(
            from,
            "area-join",
            Msg::AreaJoinAck { ct: ack_ct, sig: ack_sig }.to_bytes(),
        );
        self.after_membership_change(ctx);
    }

    /// Installs a new parent from an area-join acknowledgement.
    ///
    /// Only the node targeted by the in-flight switch/enrollment may
    /// answer: an ack from anyone else — a replayed exchange, a stale
    /// candidate from an earlier attempt, or an impostor in the
    /// directory — is dropped before any crypto work.
    pub(crate) fn handle_area_join_ack(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        ct: &[u8],
        sig: &[u8],
    ) {
        match self.pending_parent_join {
            Some((target, _)) if target == from => {}
            _ => {
                ctx.stats().bump("ac-ack-unexpected", 1);
                return;
            }
        }
        let Some(parent_pub) = self.directory_pubkey(from) else {
            return;
        };
        let Some(plain) = self.node_keys.open_signed(ctx, &parent_pub, ct, sig) else {
            return;
        };
        let Some((parent_area, group_raw, parent_epoch, path, ts)) = wire::parse(&plain, |r| {
            Ok((
                AreaId(r.u32()?),
                r.u32()?,
                r.u64()?,
                decode_path(r.bytes()?)?,
                Time::from_micros(r.u64()?),
            ))
        }) else {
            return;
        };
        if !self.fresh_timestamp(ctx.now(), ts) {
            return;
        }
        let link = ParentLink {
            node: from,
            area: parent_area,
            group: GroupId::from_index(group_raw as usize),
        };
        // Leave the old parent's multicast group, join the new one.
        if let Some(old) = &self.durable.image.parent {
            ctx.leave_group(old.group);
        }
        ctx.join_group(link.group);
        // The exchange completed; stop any still-pending retransmission
        // of the request.
        if let Some((_, token)) = self.pending_parent_join.take() {
            ctx.cancel_reliable(token);
        }
        self.parent_keys = KeyState::at(parent_epoch, &path);
        self.last_heard_parent = ctx.now();
        self.stats.parent_switches += 1;
        ctx.stats().bump("ac-parent-switches", 1);
        // A recovered node must rejoin the hierarchy where it left off.
        // Re-enrolling with the parent this node already had moves only
        // the volatile parent keys.
        if self.durable.image.parent.as_ref() != Some(&link) {
            self.commit_parent(ctx, &link);
        }
    }

    /// Repoints the parent link, durably, and ships the change to the
    /// backup.
    fn commit_parent(&mut self, ctx: &mut Context<'_>, link: &ParentLink) {
        let group = link.group.index() as u32;
        let repoint = AcWalRecord::Parent { node: link.node.index() as u32, area: link.area.0, group };
        let _ = self.wal_commit_record(ctx, &repoint);
        self.sync_backup(ctx);
    }

    /// Key updates from the parent area (this AC is a member there).
    pub(crate) fn handle_parent_key_update(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        area: AreaId,
        epoch: u64,
        body: &[u8],
        sig: &[u8],
    ) {
        let Some(parent) = &self.durable.image.parent else { return };
        if parent.node != from || parent.area != area {
            return;
        }
        let Some(parent_pub) = self.directory_pubkey(from) else {
            return;
        };
        let keys = &mut self.parent_keys;
        if receive_key_update(ctx, &self.node_keys, &parent_pub, keys, area, epoch, body, sig) {
            self.request_parent_key_refresh(ctx);
        }
    }

    /// Asks the parent controller to re-send this AC's key path in the
    /// parent tree (missed-update recovery).
    pub(crate) fn request_parent_key_refresh(&mut self, ctx: &mut Context<'_>) {
        let Some(parent) = &self.durable.image.parent else { return };
        self.parent_keys.overtaken = false;
        let me = ClientId(super::AC_MEMBER_BASE + self.deploy.area.0 as u64);
        ctx.send(
            parent.node,
            "key-unicast",
            Msg::KeyRefreshRequest { client: me }.to_bytes(),
        );
    }

    /// Serves key-refresh requests from area members and child ACs.
    pub(crate) fn handle_key_refresh(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        client: ClientId,
    ) {
        if client.0 >= super::AC_MEMBER_BASE {
            // A child controller: re-send its path in this tree.
            if self.durable.image.child_ac_members.get(&client.0) != Some(&from) {
                // An unknown child controller believes it is enrolled
                // here (we evicted it during a partition, or a takeover
                // snapshot predates its enrollment). Dropping the
                // request silently would strand it: our alive beacons
                // keep its parent-silence detector happy while every
                // rekey passes it by. Tell it the session is dead.
                self.deny_rejoin(ctx, from, RejoinDenyReason::NotMember);
                return;
            }
            if let Some(pubkey) = self.directory_pubkey(from) {
                self.unicast_path(ctx, MemberId(client.0), from, &pubkey);
            }
            return;
        }
        match self.durable.image.members.get(&client) {
            Some(r) if r.node == from => {
                if let Some(rec) = self.durable.image.members.get_mut(&client) {
                    rec.last_heard = ctx.now();
                }
                self.unicast_current_path(ctx, client);
            }
            // Someone else's client id: stay silent, a NACK here would
            // let a spoofer invalidate the real member's session.
            Some(_) => {}
            // Evicted (or never admitted): the requester's session is
            // dead — say so, or it stays keyless while our beacons keep
            // its disconnect detector quiet.
            None => self.deny_rejoin(ctx, from, RejoinDenyReason::NotMember),
        }
    }

    /// Unicast key refreshes from the parent (displacement or batch
    /// refresh — the AC is just another member of the parent area).
    /// Only the parent's paths count, as for a member: a primary that
    /// restarts after its backup took over re-issues every path of the
    /// tree it recovered.
    pub(crate) fn handle_parent_key_unicast(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        if self.durable.image.parent.as_ref().is_none_or(|p| p.node != from) {
            return;
        }
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        if let Ok(path) = decode_path(&plain) {
            self.parent_keys.settle(&path);
        }
    }

    /// A neighboring area changed hands; repoint the parent link if it
    /// was our parent.
    pub(crate) fn handle_neighbor_takeover(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        area: AreaId,
        sig: &[u8],
        pubkey: &[u8],
    ) {
        let Some(parent) = &self.durable.image.parent else { return };
        if parent.area != area || parent.node == from {
            return;
        }
        // Validate against the deployment's keys for that area — a
        // takeover claim must come from either node of the area's pair.
        let deployed = [&self.deploy.directory, &self.deploy.backups]
            .into_iter()
            .filter_map(|dir| dir.by_area(area))
            .any(|info| info.node == from.index() as u32 && info.pubkey == pubkey);
        if !deployed {
            return;
        }
        let Ok(pk) = mykil_crypto::rsa::RsaPublicKey::from_bytes(pubkey) else {
            return;
        };
        if !self.node_keys.verify(ctx, &pk, &takeover_signed_bytes(area), sig) {
            return;
        }
        // A crash or a takeover must not re-enrol with the node that
        // just died.
        let link = ParentLink { node: from, area, group: parent.group };
        self.commit_parent(ctx, &link);
        self.parent_keys.restart_lineage();
        self.request_parent_key_refresh(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::AreaController;
    use crate::group::GroupBuilder;
    use crate::rekey::tests::{path_to, signed_update};
    use crate::wire::Writer;
    use mykil_crypto::drbg::Drbg;
    use mykil_crypto::envelope::HybridCiphertext;
    use mykil_crypto::keys::SymmetricKey;
    use mykil_net::{Duration, Node, NodeId};

    /// A fully valid `AreaJoinAck` as `from` would send it to `to`:
    /// sealed to `to`, signed by `from`, fresh timestamp, empty path,
    /// parent epoch `epoch`.
    fn join_ack(g: &mut crate::group::GroupHandle, from: NodeId, to: NodeId, epoch: u64) -> (Vec<u8>, Vec<u8>) {
        let (keypair, area, group) = g.sim.invoke(from, |ac: &mut AreaController, _ctx| {
            (ac.node_keys.keypair().clone(), ac.deploy.area, ac.deploy.group)
        });
        let to_pub = g.sim.invoke(to, |ac: &mut AreaController, _ctx| ac.node_keys.public().clone());
        let mut w = Writer::new();
        w.u32(area.0)
            .u32(group.index() as u32)
            .u64(epoch)
            .bytes(&crate::rekey::encode_path(&[]))
            .u64(g.sim.now().as_micros());
        let mut rng = Drbg::from_seed(10 + epoch);
        let ct = HybridCiphertext::encrypt(&to_pub, &w.into_bytes(), &mut rng).expect("encrypt").to_bytes();
        let sig = keypair.sign(&ct);
        (ct, sig)
    }

    /// Regression: a well-formed, freshly-timestamped `AreaJoinAck`
    /// from a directory-listed controller that was never asked must be
    /// dropped. Before the in-flight-target gate, it silently rewired
    /// the parent link.
    #[test]
    fn unsolicited_area_join_ack_is_dropped() {
        let mut g = GroupBuilder::new(93).areas(3).build();
        g.settle();
        let ac1 = g.primaries[1];
        let ac2 = g.primaries[2];
        let (ct, sig) = join_ack(&mut g, ac2, ac1, 7);

        let parent_before = g.sim.node::<AreaController>(ac1).parent().cloned();
        assert_eq!(parent_before.as_ref().map(|p| p.area.0), Some(0));

        // No switch is in flight: the ack is unsolicited and must die
        // at the gate, before signature or timestamp checks even run.
        g.sim.invoke(ac1, |ac: &mut AreaController, ctx| {
            ac.handle_area_join_ack(ctx, ac2, &ct, &sig);
        });
        let ac1_state = g.sim.node::<AreaController>(ac1);
        assert_eq!(
            ac1_state.parent().map(|p| p.area.0),
            Some(0),
            "unsolicited ack rewired the parent link"
        );
        assert_eq!(ac1_state.stats.parent_switches, 0);
        assert_eq!(g.stats().counter("ac-ack-unexpected"), 1);

        // Control: the *same bytes* are accepted once AC2 really is the
        // in-flight target — proving the gate, not crypto or
        // freshness, rejected the replay above.
        g.sim.invoke(ac1, |ac: &mut AreaController, ctx| {
            let token = ctx.send_reliable(ac2, "area-join", Vec::new());
            ac.pending_parent_join = Some((ac2, token));
            ac.handle_area_join_ack(ctx, ac2, &ct, &sig);
        });
        let ac1_state = g.sim.node::<AreaController>(ac1);
        assert_eq!(ac1_state.parent().map(|p| p.node), Some(ac2));
        assert!(ac1_state.pending_parent_join.is_none());
    }

    /// Regression: a parent link repointed by a neighbor's takeover is a
    /// hierarchy change like any other. It used to live in memory only,
    /// so until the next flush a crash — or this area's own takeover —
    /// re-enrolled with the parent that had just died.
    #[test]
    fn a_repointed_parent_reaches_stable_storage_and_the_backup() {
        use crate::durable::replay_ac;
        use mykil_net::Duration;

        let mut g = GroupBuilder::new(97).areas(2).replicated(true).build();
        g.settle();
        g.crash_ac(0);
        g.run_for(Duration::from_secs(2));
        let promoted = g.backups[0];
        assert_eq!(g.ac(1).parent().map(|p| p.node), Some(promoted), "area 1 never repointed");

        let stored = g.sim.storage(g.primaries[1]).load();
        let replayed = replay_ac(stored.checkpoint.as_ref().map(|(_, b)| b.as_slice()), &stored.wal)
            .expect("area 1's storage replays");
        assert_eq!(replayed.image.parent.map(|p| p.node), Some(promoted));

        let replica = &g.backup(1).durable.image;
        assert_eq!(replica.parent.as_ref().map(|p| p.node), Some(promoted));
    }

    /// A child controller whose parent area changes hands restarts its
    /// parent lineage, as a member does: the promoted parent's replica
    /// never received the rotation before the crash, so its epoch
    /// trails the one the child's keys reached, and its next update is
    /// still applied.
    #[test]
    fn a_neighbour_takeover_restarts_the_parent_lineage() {
        use mykil_net::Duration;

        let mut g = GroupBuilder::new(97).areas(2).replicated(true).build();
        g.settle();
        let (primary, backup) = (g.primaries[0], g.backups[0]);
        g.sim.cut_link(primary, backup);
        g.sim.invoke(primary, |ac: &mut AreaController, ctx| ac.freshness_rotate(ctx));
        g.run_for(Duration::from_millis(20));
        assert_eq!(g.ac(1).parent_area_key(), Some(g.ac(0).area_key()));
        let reached = g.ac(1).parent_keys.epoch;
        g.sim.crash(primary);
        g.run_for(Duration::from_secs(1));

        let promoted = g.sim.node::<AreaController>(backup);
        assert_eq!(g.ac(1).parent().map(|p| p.node), Some(backup), "area 1 never repointed");
        assert!(promoted.epoch() < reached, "the promoted replica does not trail");
        g.sim.invoke(backup, |ac: &mut AreaController, ctx| ac.freshness_rotate(ctx));
        g.run_for(Duration::from_millis(20));
        let promoted = g.sim.node::<AreaController>(backup);
        assert_eq!(g.ac(1).parent_area_key(), Some(promoted.area_key()), "update dropped");
        assert_eq!(g.ac(1).parent_keys.epoch, promoted.epoch());
    }

    /// A restarted child controller re-enrols with its parent by a
    /// record the parent ships like any other: no checkpoint, no image
    /// owed, and the parent's backup folds it byte for byte. Only the
    /// restarted node's own backup is re-imaged.
    #[test]
    fn a_child_reenrolment_is_a_record_not_an_image() {
        let mut g = GroupBuilder::new(99).areas(4).replicated(true).build();
        g.settle();
        let (parent, child) = (g.primaries[0], g.primaries[1]);
        let images = g.stats().counter("state-sync-images");
        let slot = g.sim.storage(parent).load().checkpoint.map(|(seq, _)| seq);
        g.sim.crash(child);
        g.run_for(mykil_net::Duration::from_millis(50));
        assert!(g.sim.restart(child));
        g.run_for(mykil_net::Duration::from_secs(2));
        assert_eq!(g.ac(1).parent_area_key(), Some(g.ac(0).area_key()), "no re-enrolment");
        assert_eq!(g.stats().counter("state-sync-images"), images + 1);
        assert_eq!(g.sim.storage(parent).load().checkpoint.map(|(seq, _)| seq), slot);
        assert!(g.ac(0).backup_in_sync());
        assert!(g.backup(0).durable.image.encode() == g.ac(0).durable.image.encode());
    }

    /// A child controller installs a parent-area path only from its
    /// parent, as a member does from its controller: a primary that
    /// restarts after its backup took over re-issues every path of the
    /// tree it recovered. Any path that opened used to count.
    #[test]
    fn a_child_controller_installs_parent_paths_only_from_its_parent() {
        let mut g = GroupBuilder::new(95).areas(3).build();
        g.settle();
        let (parent, child, stranger) = (g.primaries[0], g.primaries[1], g.primaries[2]);
        assert_eq!(g.ac(1).parent().map(|p| p.node), Some(parent));
        let stale = SymmetricKey::from_label("a tree the parent area left behind");
        let unicast = path_to(g.ac(1).public_key(), &stale);
        let held = g.ac(1).parent_area_key();
        g.sim.invoke(child, |ac: &mut AreaController, ctx| ac.on_message(ctx, stranger, &unicast));
        assert_eq!(g.ac(1).parent_area_key(), held, "a stranger's path was installed");
        g.sim.invoke(child, |ac: &mut AreaController, ctx| ac.on_message(ctx, parent, &unicast));
        assert_eq!(g.ac(1).parent_area_key(), Some(stale), "the parent's path was not");
    }

    /// A child controller whose parent-key refresh is lost asks again at
    /// the parent's next beacon: the refresh stays owed until a path
    /// arrives. It used to be forgotten once sent, and the beacon, at
    /// an epoch the missed update had already passed, asked nothing.
    #[test]
    fn a_lost_parent_key_refresh_is_asked_again_at_the_next_beacon() {
        let mut g = GroupBuilder::new(96).areas(2).build();
        g.settle();
        let (parent, child, area, epoch) = (g.primaries[0], g.primaries[1], g.ac(0).area(), g.ac(0).epoch());
        // The child holds a stale parent-area key, and an update sealed
        // under a key it never held shows it missed one.
        let stale = SymmetricKey::from_label("stale");
        g.sim.invoke(child, |ac: &mut AreaController, _ctx| ac.parent_keys.install_path(&[(0, stale)]));
        let lost = SymmetricKey::from_label("lost");
        let signer = g.ac(0).node_keys.keypair();
        let (body, sig) = signed_update(area, epoch + 1, &lost, &lost, signer);
        // Its refresh request is lost.
        g.sim.cut_link(child, parent);
        g.sim.invoke(child, |ac: &mut AreaController, ctx| {
            ac.handle_parent_key_update(ctx, parent, area, epoch + 1, &body, &sig)
        });
        g.run_for(Duration::from_millis(50));
        assert!(g.ac(1).parent_keys.owed.is_some());
        g.sim.restore_link(child, parent);
        g.run_for(Duration::from_millis(300));
        assert_eq!(g.ac(0).epoch(), epoch, "a rekey, not a beacon, answered");
        assert!(g.ac(1).parent_keys.owed.is_none());
        assert_eq!(g.ac(1).parent_area_key(), Some(g.ac(0).area_key()), "nothing asked again");
    }

    /// An ack from a *different* live candidate than the one currently
    /// targeted is also dropped — stale answers from earlier rotation
    /// attempts must not race the newest request.
    #[test]
    fn ack_from_stale_switch_target_is_dropped() {
        let mut g = GroupBuilder::new(94).areas(3).build();
        g.settle();
        let ac1 = g.primaries[1];
        let ac2 = g.primaries[2];
        let (ct, sig) = join_ack(&mut g, ac2, ac1, 9);

        // The in-flight switch targets some other node entirely.
        let decoy = NodeId::from_index(0);
        g.sim.invoke(ac1, |ac: &mut AreaController, ctx| {
            let token = ctx.send_reliable(decoy, "area-join", Vec::new());
            ac.pending_parent_join = Some((decoy, token));
            ac.handle_area_join_ack(ctx, ac2, &ct, &sig);
        });
        let ac1_state = g.sim.node::<AreaController>(ac1);
        assert_eq!(ac1_state.parent().map(|p| p.area.0), Some(0));
        assert_eq!(ac1_state.pending_parent_join.as_ref().map(|p| p.0), Some(decoy));
        assert_eq!(g.stats().counter("ac-ack-unexpected"), 1);
    }
}
