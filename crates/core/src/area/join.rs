//! Join steps 4, 6 and 7 at the area controller, plus the shared
//! admission path used by joins and rejoins.

use super::{AreaController, PendingAdmission};
use crate::durable::{AcWalRecord, Seed};
use crate::error::ProtocolError;
use crate::identity::{ClientId, DeviceId};
use crate::msg::Msg;
use crate::rekey::encode_tree_path;
use crate::ticket::Ticket;
use crate::welcome::Welcome;
use crate::wire;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, NodeId, Time};
use mykil_tree::{MemberId, RekeyPlan};

impl AreaController {
    /// Join step 4: the RS introduces an authorized client.
    pub(crate) fn handle_join4(&mut self, ctx: &mut Context<'_>, ct: &[u8], sig: &[u8]) {
        let Some(plain) = self.node_keys.open_signed(ctx, &self.rs_pub, ct, sig) else {
            return;
        };
        let Some((nonce_ac, client, ts, pubkey, duration)) = wire::parse(&plain, |r| {
            Ok((
                r.u64()?,
                ClientId(r.u64()?),
                Time::from_micros(r.u64()?),
                r.bytes()?,
                mykil_net::Duration::from_micros(r.u64()?),
            ))
        }) else {
            return;
        };
        // Timestamp window: catches the replay attack the paper calls
        // out in its step-4 description.
        if !self.fresh_timestamp(ctx.now(), ts) {
            ctx.stats().bump("ac-replays-rejected", 1);
            return;
        }
        let Ok(pubkey) = RsaPublicKey::from_bytes(pubkey) else {
            return;
        };
        self.pending_admissions.insert(
            nonce_ac,
            PendingAdmission {
                client,
                pubkey,
                valid_until: ctx.now() + duration,
            },
        );
    }

    /// Join step 6: the client proves it holds `Nonce_AC` and presents
    /// its challenge; step 7 (the welcome) is the reply.
    pub(crate) fn handle_join6(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        let Some((nonce_ac_2, nonce_ca, device)) =
            wire::parse(&plain, |r| Ok((r.u64()?, r.u64()?, DeviceId(r.array()?))))
        else {
            return;
        };
        let Some(pending) = self
            .pending_admissions
            .remove(&nonce_ac_2.wrapping_sub(2))
        else {
            return;
        };
        let Ok(welcome) = self.admit(
            ctx,
            pending.client,
            &pending.pubkey,
            Some(device),
            pending.valid_until,
            from,
            nonce_ca.wrapping_add(1),
        ) else {
            ctx.stats().bump("ac-admissions-rejected", 1);
            return;
        };
        let Some(ct7) = self.node_keys.seal(ctx, &pending.pubkey, &welcome.to_bytes()) else {
            return;
        };
        self.stats.joins_admitted += 1;
        ctx.send(from, "join", Msg::Join7 { ct: ct7 }.to_bytes());
        self.after_membership_change(ctx);
    }

    /// Shared admission path: updates the tree, buffers the key-update
    /// multicast, unicasts fresh keys to any displaced member, issues a
    /// ticket, and builds the welcome payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnexpectedMessage`] when the key tree
    /// refuses the join — state drift between the membership map and
    /// the tree must reject the admission, never panic the controller.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit(
        &mut self,
        ctx: &mut Context<'_>,
        client: ClientId,
        pubkey: &RsaPublicKey,
        device: Option<DeviceId>,
        valid_until: Time,
        node: NodeId,
        nonce_echo: u64,
    ) -> Result<Welcome, ProtocolError> {
        let member = MemberId(client.0);
        self.note_area_key();
        // Write-ahead: the admission is durable before the welcome (or
        // rejoin grant) leaves this node, so a crash cannot orphan a
        // member that believes it was admitted.
        let seed = Seed::draw(ctx.rng());
        let plan = self
            .wal_commit_record(
                ctx,
                &AcWalRecord::Join {
                    client: client.0,
                    node: node.index() as u32,
                    pubkey: pubkey.to_bytes(),
                    device: device.map(|d| d.0),
                    valid_until_us: valid_until.as_micros(),
                    seed,
                },
            )
            .map_err(|_| ProtocolError::UnexpectedMessage("key tree refused the join"))?;
        self.buffer_join_plan(&plan);
        self.send_displaced_unicasts(ctx, &plan, member);

        let path: Vec<(u32, SymmetricKey)> = plan
            .unicasts
            .iter()
            .find(|u| u.member == member)
            .map(|u| {
                u.keys
                    .iter()
                    .map(|(n, k)| (n.raw() as u32, k.clone()))
                    .collect()
            })
            .unwrap_or_default();

        let ticket = Ticket {
            join_time: ctx.now(),
            valid_until,
            client,
            device: device.unwrap_or(DeviceId([0; 6])),
            public_key: pubkey.to_bytes(),
            last_area: self.deploy.area,
            last_ac: ctx.id().index() as u32,
        }
        .seal(&self.k_shared, ctx.rng());

        self.recorded_members.insert(client, self.durable.image.epoch);
        self.update_needed = true;

        let backup = self.durable.backup.as_ref();
        Ok(Welcome {
            nonce_echo,
            client,
            area: self.deploy.area,
            group_raw: self.deploy.group.index() as u32,
            ac_node: ctx.id().index() as u32,
            backup_node: backup.map_or(u32::MAX, |(b, _)| b.index() as u32),
            backup_pubkey: backup.map_or_else(Vec::new, |(_, pubkey)| pubkey.clone()),
            ticket: ticket.0,
            path,
            epoch: self.durable.image.epoch,
            valid_until_us: valid_until.as_micros(),
        })
    }

    /// Unicasts fresh leaf keys to members displaced by a leaf split
    /// (Figure 4: "unicast the list of new auxiliary keys appropriately
    /// encrypted to m_c").
    pub(crate) fn send_displaced_unicasts(
        &mut self,
        ctx: &mut Context<'_>,
        plan: &RekeyPlan,
        newcomer: MemberId,
    ) {
        for u in &plan.unicasts {
            if u.member == newcomer {
                continue;
            }
            // The displaced occupant is a client — or a child AC whose
            // leaf in this tree was split.
            let target = if let Some(rec) = self.durable.image.members.get(&ClientId(u.member.0)) {
                Some((rec.node, rec.pubkey.clone()))
            } else {
                self.durable.image.child_ac_members.get(&u.member.0).and_then(|&node| {
                    self.directory_pubkey(node).map(|pk| (node, pk))
                })
            };
            let Some((node, pubkey)) = target else {
                continue;
            };
            if let Some(ct) = self.node_keys.seal(ctx, &pubkey, &encode_tree_path(&u.keys)) {
                ctx.send(node, "key-unicast", Msg::KeyUnicast { ct }.to_bytes());
            }
        }
    }

    /// Common tail of a membership change: flush immediately or leave
    /// the batch pending, then ship the backup what was committed.
    pub(crate) fn after_membership_change(&mut self, ctx: &mut Context<'_>) {
        if self.batch_now() {
            self.flush_key_updates(ctx);
        }
        self.sync_backup(ctx);
    }

    pub(crate) fn fresh_timestamp(&self, now: Time, ts: Time) -> bool {
        let window = self.cfg.timestamp_window;
        let (a, b) = if now >= ts { (now, ts) } else { (ts, now) };
        a.since(b) <= window
    }
}
