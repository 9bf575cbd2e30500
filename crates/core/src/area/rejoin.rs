//! The six-step rejoin protocol at the area controllers (Figure 7).
//!
//! `AC_B` (the new controller) authenticates the mobile member with its
//! ticket and a challenge–response, then — to defeat ticket-sharing
//! cohorts — asks `AC_A` (the previous controller) to confirm the member
//! really departed (steps 4–5). Under a partition between the
//! controllers, [`RejoinPolicy`](crate::config::RejoinPolicy) decides
//! between denying (option 1) and admitting with the NIC-address check
//! (option 2).

use super::{AreaController, PendingRejoin, RejoinStage};
use crate::config::RejoinPolicy;
use crate::durable::AcWalRecord;
use crate::identity::{ClientId, DeviceId};
use crate::msg::{Msg, RejoinDenyReason};
use crate::ticket::SealedTicket;
use crate::wire::{self, Writer};
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, NodeId, Time};
use rand::RngCore;

impl AreaController {
    /// Rejoin step 1: ticket presentation.
    pub(crate) fn handle_rejoin1(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        let Some((nonce_cb, device, ticket_bytes)) =
            wire::parse(&plain, |r| Ok((r.u64()?, DeviceId(r.array()?), r.bytes()?.to_vec())))
        else {
            return;
        };
        // Verify the ticket under K_shared.
        self.node_keys.charge_symmetric(ctx, 1);
        let Ok(ticket) = SealedTicket(ticket_bytes).open(&self.k_shared) else {
            self.deny_rejoin(ctx, from, RejoinDenyReason::BadTicket);
            return;
        };
        if !ticket.is_valid_at(ctx.now()) {
            self.deny_rejoin(ctx, from, RejoinDenyReason::BadTicket);
            return;
        }
        let Ok(client_pub) = RsaPublicKey::from_bytes(&ticket.public_key) else {
            self.deny_rejoin(ctx, from, RejoinDenyReason::BadTicket);
            return;
        };
        // Step 2: challenge the client (it must hold the private key
        // matching the ticket, which defeats simple ticket theft).
        let nonce_bc = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.u64(nonce_cb.wrapping_add(1)).u64(nonce_bc);
        let Some(ct2) = self.node_keys.seal(ctx, &client_pub, &w.into_bytes()) else {
            return;
        };
        self.pending_rejoins.insert(
            from,
            PendingRejoin {
                client: ticket.client,
                pubkey: client_pub,
                device,
                ticket_device: ticket.device,
                valid_until: ticket.valid_until,
                nonce_bc,
                // Where to ask about departure.
                prev_ac: ticket.last_ac,
                stage: RejoinStage::AwaitStep3,
                deadline: ctx.now() + self.cfg.member_disconnect_after(),
            },
        );
        ctx.send(from, "rejoin", Msg::Rejoin2 { ct: ct2 }.to_bytes());
    }

    /// Rejoin step 3: the client answers the challenge; `AC_B` then asks
    /// `AC_A` (step 4) or decides locally.
    pub(crate) fn handle_rejoin3(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Some(pending) = self.pending_rejoins.get(&from) else {
            return;
        };
        if pending.stage != RejoinStage::AwaitStep3 {
            return;
        }
        let answer = self
            .node_keys
            .open(ctx, ct)
            .and_then(|plain| wire::parse(&plain, |r| r.u64()));
        if answer != Some(pending.nonce_bc.wrapping_add(1)) {
            self.pending_rejoins.remove(&from);
            return;
        }
        let prev_ac = pending.prev_ac;

        // Ablation / paper Section V-D: skip the departure check
        // entirely (the 0.28 s rejoin variant).
        if !self.cfg.verify_departure_on_rejoin {
            self.resolve_unverified_rejoin(ctx, from);
            return;
        }

        // Local case: the member is rejoining its own previous area
        // (e.g. after a transient disconnection) — no steps 4/5 needed.
        // Admission clears the stale membership.
        if prev_ac == ctx.id().index() as u32 {
            self.complete_rejoin(ctx, from);
            return;
        }

        // Steps 4: ask the previous controller whether the member left.
        let target = NodeId::from_index(prev_ac as usize);
        let Some(prev_pub) = self.directory_pubkey(target) else {
            // Unknown previous AC: fall back to the partition policy.
            self.resolve_unverified_rejoin(ctx, from);
            return;
        };
        let client = self.pending_rejoins[&from].client;
        let mut w = Writer::new();
        w.u64(client.0)
            .u64(ctx.now().as_micros())
            .u32(from.index() as u32);
        let Some((ct4, sig4)) = self.node_keys.seal_signed(ctx, &prev_pub, &w.into_bytes()) else {
            return;
        };
        if let Some(p) = self.pending_rejoins.get_mut(&from) {
            p.stage = RejoinStage::AwaitPrevAc;
            p.deadline = ctx.now() + self.cfg.member_disconnect_after();
        }
        ctx.send(target, "rejoin", Msg::Rejoin4 { ct: ct4, sig: sig4 }.to_bytes());
    }

    /// Rejoin step 4 at the *previous* controller: report whether the
    /// client has departed, evicting it if it is silently stale.
    pub(crate) fn handle_rejoin4(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        ct: &[u8],
        sig: &[u8],
    ) {
        let Some(requester_pub) = self.directory_pubkey(from) else {
            return;
        };
        let Some(plain) = self.node_keys.open_signed(ctx, &requester_pub, ct, sig) else {
            return;
        };
        let Some((client, ts, client_node)) = wire::parse(&plain, |r| {
            Ok((ClientId(r.u64()?), Time::from_micros(r.u64()?), r.u32()?))
        }) else {
            return;
        };
        if !self.fresh_timestamp(ctx.now(), ts) {
            ctx.stats().bump("ac-replays-rejected", 1);
            return;
        }
        let departed = match self.durable.image.members.get(&client) {
            None => true,
            Some(rec) => {
                let silent = ctx.now().since(rec.last_heard) >= self.cfg.member_disconnect_after();
                if silent {
                    // The member moved away; finalize its departure —
                    // durably, before telling the new controller it may
                    // admit (the member must never hold membership in
                    // two areas across a crash of this one).
                    let _ = self.wal_commit_record(ctx, &AcWalRecord::Evict { client: client.0 });
                    self.update_needed = true;
                    self.after_membership_change(ctx);
                    self.stats.evictions += 1;
                    true
                } else {
                    false
                }
            }
        };
        // Step 5 response, encrypted + signed.
        let mut w = Writer::new();
        w.u64(client.0)
            .u8(departed as u8)
            .u64(ctx.now().as_micros())
            .u32(client_node);
        let Some((ct5, sig5)) = self.node_keys.seal_signed(ctx, &requester_pub, &w.into_bytes())
        else {
            return;
        };
        ctx.send(from, "rejoin", Msg::Rejoin5 { ct: ct5, sig: sig5 }.to_bytes());
    }

    /// Rejoin step 5 back at the new controller.
    pub(crate) fn handle_rejoin5(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        ct: &[u8],
        sig: &[u8],
    ) {
        let Some(prev_pub) = self.directory_pubkey(from) else {
            return;
        };
        let Some(plain) = self.node_keys.open_signed(ctx, &prev_pub, ct, sig) else {
            return;
        };
        let Some((client, departed, ts, client_node)) = wire::parse(&plain, |r| {
            Ok((ClientId(r.u64()?), r.u8()? == 1, Time::from_micros(r.u64()?), r.u32()?))
        }) else {
            return;
        };
        if !self.fresh_timestamp(ctx.now(), ts) {
            return;
        }
        let client_node = NodeId::from_index(client_node as usize);
        let Some(pending) = self.pending_rejoins.get(&client_node) else {
            return;
        };
        if pending.stage != RejoinStage::AwaitPrevAc || pending.client != client {
            return;
        }
        if departed {
            self.complete_rejoin(ctx, client_node);
        } else {
            self.pending_rejoins.remove(&client_node);
            self.deny_rejoin(ctx, client_node, RejoinDenyReason::StillMemberElsewhere);
        }
    }

    /// Admits the pending rejoiner and sends the signed step-6 welcome.
    pub(crate) fn complete_rejoin(&mut self, ctx: &mut Context<'_>, client_node: NodeId) {
        let Some(pending) = self.pending_rejoins.remove(&client_node) else {
            return;
        };
        let Ok(welcome) = self.admit(
            ctx,
            pending.client,
            &pending.pubkey,
            Some(pending.device),
            pending.valid_until,
            client_node,
            0,
        ) else {
            ctx.stats().bump("ac-admissions-rejected", 1);
            return;
        };
        let Some((ct6, sig6)) =
            self.node_keys.seal_signed(ctx, &pending.pubkey, &welcome.to_bytes())
        else {
            return;
        };
        self.stats.rejoins_admitted += 1;
        ctx.send(
            client_node,
            "rejoin",
            Msg::Rejoin6 { ct: ct6, sig: sig6 }.to_bytes(),
        );
        self.after_membership_change(ctx);
    }

    /// Applies the partition policy when `AC_A` cannot confirm the
    /// departure (Section IV-B options 1 and 2).
    pub(crate) fn resolve_unverified_rejoin(&mut self, ctx: &mut Context<'_>, client_node: NodeId) {
        let Some(pending) = self.pending_rejoins.get(&client_node) else {
            return;
        };
        match self.cfg.rejoin_policy {
            RejoinPolicy::Deny => {
                self.pending_rejoins.remove(&client_node);
                self.deny_rejoin(ctx, client_node, RejoinDenyReason::PartitionedStrict);
            }
            RejoinPolicy::AdmitWithDeviceCheck => {
                if pending.device == pending.ticket_device {
                    self.complete_rejoin(ctx, client_node);
                } else {
                    self.pending_rejoins.remove(&client_node);
                    self.deny_rejoin(ctx, client_node, RejoinDenyReason::DeviceMismatch);
                }
            }
        }
    }

    pub(crate) fn deny_rejoin(
        &mut self,
        ctx: &mut Context<'_>,
        to: NodeId,
        reason: RejoinDenyReason,
    ) {
        self.stats.rejoins_denied += 1;
        ctx.stats().bump("ac-rejoins-denied", 1);
        ctx.send(to, "rejoin", Msg::RejoinDenied { reason }.to_bytes());
    }
}
