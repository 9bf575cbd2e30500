//! The registration server (steps 1–5 of the join protocol, Figure 3).
//!
//! The registration server authenticates prospective members with a
//! challenge–response handshake, checks their authorization information
//! against an [`AuthDb`], assigns them a
//! [`ClientId`] and an area, and introduces them to that area's
//! controller — steps 4 and 5 run back-to-back after the client's
//! step-3 response verifies.

// `Msg` dispatch lists every variant, so a new wire message does not
// compile until each role triages it.
#![cfg_attr(
    not(test),
    warn(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use crate::auth::{AuthDb, AuthDecision};
use crate::config::MykilConfig;
use crate::crypto_cost::CryptoCost;
use crate::directory::{AcDirectory, AcInfo};
use crate::durable::{replay_rs, RsCheckpoint, RsWalRecord};
use crate::identity::{AreaId, ClientId};
use crate::msg::Msg;
use crate::node_keys::{takeover_signed_bytes, NodeKeys};
use crate::wire::{self, Writer};
use mykil_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use mykil_net::{Context, Node, NodeId};
use rand::RngCore;
use std::collections::BTreeMap;

/// A join handshake in flight at the registration server.
#[derive(Debug)]
struct PendingJoin {
    client_pub: RsaPublicKey,
    nonce_wc: u64,
    granted: mykil_net::Duration,
}

/// Counters exposed for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrationStats {
    /// Join handshakes completed (through step 5).
    pub joins_completed: u64,
    /// Authorization rejections at step 1.
    pub denied: u64,
    /// Messages that failed to decrypt or verify.
    pub rejected_messages: u64,
}

/// The registration server node.
pub struct RegistrationServer {
    pub(crate) node_keys: NodeKeys,
    auth: Box<dyn AuthDb>,
    directory: AcDirectory,
    /// The directory as deployed — what a crashed server reads back
    /// from its configuration before recovery replays takeovers on top.
    directory_initial: AcDirectory,
    pending: BTreeMap<NodeId, PendingJoin>,
    /// Handshakes lost to the last crash, reported at restart.
    wiped_pending: u64,
    next_client: u64,
    next_area: usize,
    /// Backup-controller public keys per area: with `directory_initial`,
    /// each area's controller pair, for takeover validation.
    backup_keys: BTreeMap<AreaId, RsaPublicKey>,
    /// Counters exposed for tests and reports.
    pub stats: RegistrationStats,
}

impl std::fmt::Debug for RegistrationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistrationServer")
            .field("areas", &self.directory.entries.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl RegistrationServer {
    /// Creates a registration server with a pre-generated key pair, an
    /// authorization backend, and the AC directory.
    pub fn new(
        cfg: MykilConfig,
        cost: CryptoCost,
        keypair: RsaKeyPair,
        auth: Box<dyn AuthDb>,
        directory: AcDirectory,
    ) -> Self {
        RegistrationServer {
            node_keys: NodeKeys::new(keypair, cost, cfg.rsa_bits),
            auth,
            directory_initial: directory.clone(),
            directory,
            pending: BTreeMap::new(),
            wiped_pending: 0,
            next_client: 1,
            next_area: 0,
            backup_keys: BTreeMap::new(),
            stats: RegistrationStats::default(),
        }
    }

    /// Registers the backup controller key for an area so a takeover
    /// announcement from it will be accepted.
    pub fn register_backup(&mut self, area: AreaId, key: RsaPublicKey) {
        self.backup_keys.insert(area, key);
    }

    /// The server's public key (well known, per the paper's assumption).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.node_keys.public()
    }

    /// Current directory (tests inspect takeover updates).
    pub fn directory(&self) -> &AcDirectory {
        &self.directory
    }

    /// Next client id to be handed out (durability invariant checks).
    pub fn next_client(&self) -> u64 {
        self.next_client
    }

    /// The state a checkpoint captures (id allocators + directory).
    fn durable_state(&self) -> RsCheckpoint {
        RsCheckpoint {
            next_client: self.next_client,
            next_area: self.next_area as u64,
            directory: self.directory.clone(),
        }
    }

    /// Writes the full-state checkpoint.
    fn persist_checkpoint(&mut self, ctx: &mut Context<'_>) {
        ctx.checkpoint(self.durable_state().to_bytes());
    }

    /// Chooses an area for a new member. The paper allows proximity or
    /// load-based policies; round-robin stands in for load balancing.
    fn pick_area(&mut self) -> Option<AcInfo> {
        if self.directory.entries.is_empty() {
            return None;
        }
        let info = self.directory.entries[self.next_area % self.directory.entries.len()].clone();
        self.next_area += 1;
        Some(info)
    }

    fn handle_join1(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        // Decrypt {auth_info, Pub_k, Nonce_CW} (one private op).
        let Some(plain) = self.node_keys.open(ctx, ct) else {
            self.stats.rejected_messages += 1;
            return;
        };
        let Some((auth_info, pubkey, nonce_cw)) =
            wire::parse(&plain, |r| Ok((r.bytes()?, r.bytes()?, r.u64()?)))
        else {
            self.stats.rejected_messages += 1;
            return;
        };
        let Ok(client_pub) = RsaPublicKey::from_bytes(pubkey) else {
            self.stats.rejected_messages += 1;
            return;
        };
        let granted = match self.auth.authorize(auth_info) {
            AuthDecision::Granted { duration } => duration,
            AuthDecision::Denied => {
                self.stats.denied += 1;
                return;
            }
        };
        // Step 2: {Nonce_CW+1, Nonce_WC} to the client.
        let nonce_wc = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.u64(nonce_cw.wrapping_add(1)).u64(nonce_wc);
        let Some(reply) = self.node_keys.seal(ctx, &client_pub, &w.into_bytes()) else {
            return;
        };
        self.pending.insert(
            from,
            PendingJoin {
                client_pub,
                nonce_wc,
                granted,
            },
        );
        ctx.send(from, "join", Msg::Join2 { ct: reply }.to_bytes());
    }

    fn handle_join3(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Some(pending) = self.pending.remove(&from) else {
            self.stats.rejected_messages += 1;
            return;
        };
        let answer = self
            .node_keys
            .open(ctx, ct)
            .and_then(|plain| wire::parse(&plain, |r| r.u64()));
        if answer != Some(pending.nonce_wc.wrapping_add(1)) {
            self.stats.rejected_messages += 1;
            return;
        }

        // Client is authenticated and authorized. Assign identity/area.
        let client = ClientId(self.next_client);
        self.next_client += 1;
        // The id is burned durably before any reply: a recovered RS
        // must never hand the same id to a second client.
        ctx.wal_commit(RsWalRecord::ClientAssigned { client: client.0 }.to_bytes());
        let Some(ac) = self.pick_area() else {
            return;
        };
        let Ok(ac_pub) = RsaPublicKey::from_bytes(&ac.pubkey) else {
            return;
        };
        let nonce_ac = ctx.rng().next_u64();
        let now_us = ctx.now().as_micros();

        // Step 4 → AC: {Nonce_AC, K_id, ts, Pub_k, membership duration},
        // encrypted to the AC and signed by the RS.
        let mut w = Writer::new();
        w.u64(nonce_ac)
            .u64(client.0)
            .u64(now_us)
            .bytes(&pending.client_pub.to_bytes())
            .u64(pending.granted.as_micros());
        let Some((ct4, sig4)) = self.node_keys.seal_signed(ctx, &ac_pub, &w.into_bytes()) else {
            return;
        };
        ctx.send(
            NodeId::from_index(ac.node as usize),
            "join",
            Msg::Join4 { ct: ct4, sig: sig4 }.to_bytes(),
        );

        // Step 5 → client: {Nonce_AC+1, area, AC address+key, directory},
        // encrypted to the client and signed by the RS.
        let mut w = Writer::new();
        w.u64(nonce_ac.wrapping_add(1))
            .u32(ac.area.0)
            .u32(ac.node)
            .bytes(&ac.pubkey);
        self.directory.write(&mut w);
        let Some((ct5, sig5)) =
            self.node_keys.seal_signed(ctx, &pending.client_pub, &w.into_bytes())
        else {
            return;
        };
        ctx.send(from, "join", Msg::Join5 { ct: ct5, sig: sig5 }.to_bytes());

        self.stats.joins_completed += 1;
        ctx.stats().bump("rs-joins", 1);
    }

    fn handle_takeover(
        &mut self,
        ctx: &mut Context<'_>,
        area: AreaId,
        sig: &[u8],
        pubkey: &[u8],
        from: NodeId,
    ) {
        // Either controller of the area's pair may take it over, and
        // signs the area id with its own key; the RS trusts the two keys
        // it was configured with at deployment (the directory carries
        // primary keys, so the builder registers backup keys via
        // `register_backup`).
        let primary_key = self
            .directory_initial
            .by_area(area)
            .filter(|info| info.pubkey == pubkey)
            .and_then(|info| RsaPublicKey::from_bytes(&info.pubkey).ok());
        let backup_key = self.backup_keys.get(&area).filter(|key| key.to_bytes() == pubkey);
        let accepted = primary_key.as_ref().or(backup_key).is_some_and(|expected| {
            self.node_keys.verify(ctx, expected, &takeover_signed_bytes(area), sig)
        });
        if !accepted {
            self.stats.rejected_messages += 1;
            return;
        }
        self.directory.upsert(AcInfo {
            area,
            node: from.index() as u32,
            pubkey: pubkey.to_vec(),
        });
        // The directory update must survive a crash — a recovered RS
        // pointing joins at a demoted primary would strand every new
        // client in that area. WAL + immediate compaction (takeovers
        // are rare; the checkpoint keeps recovery cheap).
        ctx.wal_commit(
            RsWalRecord::DirectoryUpsert {
                area: area.0,
                node: from.index() as u32,
                pubkey: pubkey.to_vec(),
            }
            .to_bytes(),
        );
        self.persist_checkpoint(ctx);
    }
}

impl Node for RegistrationServer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Baseline checkpoint so a crash at any point finds durable
        // allocator state.
        self.persist_checkpoint(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Ok(msg) = Msg::from_bytes(bytes) else {
            self.stats.rejected_messages += 1;
            return;
        };
        match msg {
            Msg::Join1 { ct } => self.handle_join1(ctx, from, &ct),
            Msg::Join3 { ct } => self.handle_join3(ctx, from, &ct),
            Msg::Takeover { area, sig, pubkey } => {
                self.handle_takeover(ctx, area, &sig, &pubkey, from)
            }
            // Everything else belongs to ACs, members, or replicas; the
            // RS counts it as rejected (listed explicitly so a new wire
            // message fails to compile until triaged here).
            Msg::Join2 { .. }
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
            | Msg::Heartbeat { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::StateSync { .. }
            | Msg::Demote { .. } => {
                self.stats.rejected_messages += 1;
            }
        }
    }

    fn on_crashed_volatile_reset(&mut self) {
        // Handshakes in flight die with the process; surfacing that
        // honestly (instead of resuming with half-valid nonce state)
        // lets clients time out, retry step 1, and complete against the
        // fresh table.
        self.wiped_pending = self.pending.len() as u64;
        self.pending.clear();
        self.directory = self.directory_initial.clone();
        self.next_client = 1;
        self.next_area = 0;
    }

    fn on_restarted(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().bump("rs-restarts", 1);
        if self.wiped_pending > 0 {
            ctx.stats().bump("rs-pending-dropped", self.wiped_pending);
            self.wiped_pending = 0;
        }
        // Rebuild the id allocators and the takeover-updated directory
        // from stable storage: the checkpoint, or the deployed state the
        // volatile reset put back when none is usable, with the WAL
        // suffix folded over it.
        let rec = ctx.load();
        let checkpoint = rec.checkpoint.and_then(|(_seq, bytes)| {
            let cp = RsCheckpoint::from_bytes(&bytes);
            if cp.is_none() {
                ctx.stats().bump("rs-recovery-bad-checkpoint", 1);
            }
            cp
        });
        let had_checkpoint = checkpoint.is_some();
        let base = checkpoint.unwrap_or_else(|| self.durable_state());
        let (state, folded) = replay_rs(base, &rec.wal);
        self.next_client = state.next_client;
        self.next_area = state.next_area as usize;
        self.directory = state.directory;
        if folded < rec.wal.len() {
            ctx.stats().bump("rs-recovery-bad-wal-record", 1);
            // A record the log holds but the fold refuses (a short
            // read's stub) may be an id burn: skip one id per unread
            // record rather than hand a burned one out again.
            self.next_client += (rec.wal.len() - folded) as u64;
        }
        if had_checkpoint || folded > 0 {
            ctx.stats().bump("rs-recoveries", 1);
        }
        // Compact the replayed WAL into a fresh checkpoint.
        self.persist_checkpoint(ctx);
    }
}
