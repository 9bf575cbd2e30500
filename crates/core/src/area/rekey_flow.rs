//! Key-update buffering and flushing — the batching of Section III-E.
//!
//! Joins are applied to the tree immediately (the newcomer needs its
//! keys in step 7) but the *multicast* announcing the refreshed path is
//! buffered: per changed node we remember only the key value before the
//! first buffered change, so N aggregated joins cost one encrypted entry
//! per node instead of N. Leaves are deferred entirely and applied as
//! one batched tree operation at flush time. A flush happens when
//! multicast data arrives (`update_needed` flag), on the freshness
//! timer, or immediately under [`BatchPolicy::Immediate`](crate::config::BatchPolicy).

use super::AreaController;
use crate::durable::{AcWalRecord, Seed};
use crate::identity::ClientId;
use crate::msg::Msg;
use crate::rekey::{entries_wire_len, key_update_digest, write_plan_entries, KEY_ENV_LEN};
use crate::wire::{self, Writer};
use mykil_crypto::envelope;
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, NodeId};
use mykil_tree::{MemberId, NodeIdx, RekeyPlan};
use std::collections::BTreeSet;

impl AreaController {
    /// Buffers the multicast part of a join rekey plan. For every
    /// changed node we keep the key value before its *first* buffered
    /// change, so consecutive joins collapse into a single
    /// `E_old(K_newest)` entry each — the paper's join aggregation.
    pub(crate) fn buffer_join_plan(&mut self, plan: &RekeyPlan) {
        for change in &plan.changes {
            let node = change.node.raw() as u32;
            for (under, key) in &change.encryptions {
                if matches!(under, mykil_tree::EncryptUnder::PreviousSelf) {
                    self.buffered_join_updates.entry(node).or_insert(key.clone());
                }
            }
        }
    }

    /// Unicasts a member's current full key path (flush refresh).
    pub(crate) fn unicast_current_path(&self, ctx: &mut Context<'_>, client: ClientId) {
        if let Some(rec) = self.durable.image.members.get(&client) {
            self.unicast_path(ctx, MemberId(client.0), rec.node, &rec.pubkey);
        }
    }

    /// Unicasts the current full key path of `member` — a client or an
    /// enrolled child controller — to `node`, sealed to `pubkey`.
    pub(crate) fn unicast_path(
        &self,
        ctx: &mut Context<'_>,
        member: MemberId,
        node: NodeId,
        pubkey: &RsaPublicKey,
    ) {
        let mut path = Vec::new();
        if self.durable.image.tree.path_keys_into(member, &mut path).is_err() {
            return;
        }
        if let Some(ct) = self.node_keys.seal(ctx, pubkey, &crate::rekey::encode_tree_path(&path)) {
            ctx.send(node, "key-unicast", Msg::KeyUnicast { ct }.to_bytes());
        }
    }

    /// Multicasts a key-update body to the area at the current epoch,
    /// signed with the AC's private key so members cannot forge one
    /// (Section III-E).
    pub(crate) fn multicast_key_update(&mut self, ctx: &mut Context<'_>, body: Vec<u8>) {
        let (area, epoch) = (self.deploy.area, self.durable.image.epoch);
        let sig = self.node_keys.sign_digest(ctx, &key_update_digest(area, epoch, &body));
        let update = Msg::KeyUpdate { area, epoch, body, sig };
        ctx.multicast(self.deploy.group, "key-update", update.to_bytes());
        self.last_area_mcast = ctx.now();
        self.stats.rekeys += 1;
    }

    /// Handles a voluntary member departure (Section III-D).
    ///
    /// The request is encrypted to this controller and must come from
    /// the network address the member joined from; the member-leave
    /// rekey of Figure 5 follows (batched like any other event).
    pub(crate) fn handle_leave_request(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        ct: &[u8],
    ) {
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        // {client, nonce}: the nonce only makes the ciphertext unique.
        let Some((client, _nonce)) = wire::parse(&plain, |r| Ok((ClientId(r.u64()?), r.u64()?)))
        else {
            return;
        };
        if self.durable.image.members.get(&client).is_none_or(|rec| rec.node != from) {
            return;
        }
        // The departure must survive a crash: a recovered controller
        // re-admitting a member that left would resurrect its access.
        // The record takes the member's row; its leaf waits for the
        // next flush.
        let _ = self.wal_commit_record(ctx, &AcWalRecord::Leave { client: client.0 });
        self.update_needed = true;
        ctx.stats().bump("ac-voluntary-leaves", 1);
        self.after_membership_change(ctx);
    }

    /// Performs the aggregated rekey and multicasts one signed
    /// key-update message (Figures 5/6 semantics over real envelopes).
    pub(crate) fn flush_key_updates(&mut self, ctx: &mut Context<'_>) {
        // Departures never wait without the flag: the handler that
        // commits one sets it, and so does adopting a snapshot that
        // holds one.
        if !self.update_needed && self.buffered_join_updates.is_empty() {
            return;
        }

        // 1. Aggregated join updates: E_{K_first_old}(K_current).
        //    Skipped for nodes that the leave batch below will change
        //    again — their join-era values die with the leave rekey.
        let join_nodes = std::mem::take(&mut self.buffered_join_updates);

        // 2. Batched leaves (single combined tree operation): every
        //    client leaf whose row a `Leave`/`Evict` record took. The
        //    `Flush` record batches them out of the tree and advances
        //    the epoch — durably, and for the backup too.
        let leavers = self.durable.departed().count();
        if leavers > 0 {
            self.note_area_key();
        }
        let epoch = self.durable.image.epoch;
        let leave_plan = if leavers > 0 || !join_nodes.is_empty() {
            let flush = AcWalRecord::Flush { seed: Seed::draw(ctx.rng()) };
            self.wal_commit_record(ctx, &flush).unwrap_or_else(|counter| {
                // Defer the eviction batch to the next flush instead of
                // panicking mid-rekey.
                ctx.stats().bump(counter, 1);
                RekeyPlan::default()
            })
        } else {
            RekeyPlan::default()
        };
        let leave_changed: BTreeSet<u32> =
            leave_plan.changes.iter().map(|c| c.node.raw() as u32).collect();

        // Entry counts are known up front, so the whole signed body is
        // streamed into one pre-sized frame: each envelope is sealed in
        // place, with no per-entry allocations or intermediate entry list.
        let join_count = join_nodes
            .keys()
            .filter(|n| !leave_changed.contains(n))
            .count();
        let leave_count = leave_plan.encryption_count();
        let total_entries = join_count + leave_count;

        let mut w = Writer::with_capacity(
            join_count * (4 + 1 + 4 + KEY_ENV_LEN) + entries_wire_len(&leave_plan),
        );
        w.u32(total_entries as u32);
        for (node, old_key) in &join_nodes {
            if leave_changed.contains(node) {
                continue;
            }
            let current = self.durable.image.tree.node_key(NodeIdx::from_raw(*node as usize));
            self.node_keys.charge_symmetric(ctx, 1);
            w.u32(*node).u8(0).u32(KEY_ENV_LEN as u32);
            w.append_with(|buf| envelope::seal_into(old_key, current.as_bytes(), ctx.rng(), buf));
        }

        self.node_keys.charge_symmetric(ctx, leave_count as u64);
        write_plan_entries(&leave_plan, ctx.rng(), &mut w);

        // 3. Unicast current paths to recorded members (the paper:
        //    "sends appropriate unicast messages to the members whose
        //    identities were recorded"):
        //    - members admitted in an *earlier* flush window get their
        //      final refresh now (this closes the race where a newcomer
        //      missed a key-update multicast sent before it subscribed
        //      to the area's multicast group), then drop off the list;
        //    - members admitted in *this* window are refreshed now only
        //      if the window held several events (their step-7 path may
        //      already be stale), and stay recorded for one more flush.
        let this_window: Vec<ClientId> = self
            .recorded_members
            .iter()
            .filter(|(_, e)| **e == epoch)
            .map(|(c, _)| *c)
            .collect();
        let earlier: Vec<ClientId> = self
            .recorded_members
            .iter()
            .filter(|(_, e)| **e < epoch)
            .map(|(c, _)| *c)
            .collect();
        for client in earlier {
            self.recorded_members.remove(&client);
            if self.durable.image.members.contains_key(&client) {
                self.unicast_current_path(ctx, client);
            }
        }
        if this_window.len() + leavers > 1 {
            for client in &this_window {
                if self.durable.image.members.contains_key(client) {
                    self.unicast_current_path(ctx, *client);
                }
            }
        }

        self.update_needed = false;
        // The last members left: nobody to tell.
        if total_entries == 0 {
            return;
        }
        self.multicast_key_update(ctx, w.into_bytes());
        ctx.stats().bump("ac-rekeys", 1);
    }
}
