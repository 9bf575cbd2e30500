//! A group member: join, rejoin, data, liveness.
//!
//! Implements the client side of the 7-step join protocol (Figure 3),
//! the 6-step rejoin protocol (Figure 7), data multicast and reception
//! (Figure 2), and the member half of failure detection (Section IV-A):
//! periodic `alive` messages to the AC and a disconnect detector that
//! triggers an automatic rejoin to another area controller.

// `Msg` dispatch lists every variant, so a new wire message does not
// compile until each role triages it.
#![cfg_attr(
    not(test),
    warn(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use crate::config::MykilConfig;
use crate::crypto_cost::CryptoCost;
use crate::directory::AcDirectory;
use crate::identity::{AreaId, ClientId, DeviceId};
use crate::msg::{Msg, RejoinDenyReason};
use crate::node_keys::{takeover_signed_bytes, NodeKeys};
use crate::rekey::{decode_path, receive_key_update, KeyState};
use crate::timer::PendingTimers;
use crate::welcome::Welcome;
use crate::wire::{self, Writer};
use mykil_crypto::envelope;
use mykil_crypto::rc4::Rc4;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use mykil_net::{Context, GroupId, Node, NodeId, Time};
use rand::RngCore;

crate::timer::timer_kinds! {
    /// The member's two liveness clocks (Section IV-A).
    enum Timer {
        /// Send an `alive` to the controller every `T_active`.
        Alive = 1,
        /// Every `T_idle`: detect a silent controller, an expired
        /// subscription or a stuck handshake.
        Disconnect = 2,
    }
}

/// Where the member is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberPhase {
    /// Not yet registered.
    Idle,
    /// Join step 1 sent, awaiting step 2.
    AwaitJoin2 { nonce_cw: u64 },
    /// Step 3 sent, awaiting step 5.
    AwaitJoin5,
    /// Step 6 sent, awaiting step 7.
    AwaitJoin7 { nonce_ca: u64 },
    /// Full member of an area.
    Active,
    /// Rejoin step 1 sent, awaiting step 2.
    AwaitRejoin2 { nonce_cb: u64 },
    /// Rejoin step 3 sent, awaiting step 6.
    AwaitRejoin6,
    /// Rejoin was denied.
    Denied(RejoinDenyReason),
}

/// Latency milestones for the Section V-D measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemberTimings {
    /// When the last join attempt started / completed.
    pub join_started: Option<Time>,
    /// Completion of the join handshake (step 7 processed).
    pub join_completed: Option<Time>,
    /// When the last rejoin attempt started / completed.
    pub rejoin_started: Option<Time>,
    /// Completion of the rejoin handshake (step 6 processed).
    pub rejoin_completed: Option<Time>,
}

/// A group member node.
pub struct Member {
    cfg: MykilConfig,
    pub(crate) node_keys: NodeKeys,
    rs_pub: RsaPublicKey,
    rs_node: NodeId,
    device: DeviceId,
    auth_info: Vec<u8>,
    /// Join automatically at start; rejoin automatically on disconnect.
    auto: bool,

    phase: MemberPhase,
    client: Option<ClientId>,
    area: Option<AreaId>,
    ac_node: Option<NodeId>,
    ac_pub: Option<RsaPublicKey>,
    group: Option<GroupId>,
    backup_node: Option<NodeId>,
    backup_pub: Option<RsaPublicKey>,
    ticket: Option<Vec<u8>>,
    /// When the current membership expires (from the welcome payload).
    membership_expires: Option<Time>,
    keys: KeyState,
    directory: AcDirectory,
    epoch: u64,

    last_heard_ac: Time,
    last_sent_ac: Time,
    last_refresh_request: Time,
    /// A key refresh the rate limit held back, sent at the controller's
    /// next alive beacon.
    refresh_owed: bool,
    /// When the current phase was entered (handshake retry timer).
    phase_since: Time,
    /// The timer kinds with a firing queued.
    timers: PendingTimers,
    /// Key paths that arrived before the welcome (a small unicast can
    /// overtake the larger join-step-7 message); replayed after install.
    stashed_paths: Vec<Vec<(u32, SymmetricKey)>>,
    next_seq: u64,
    rejoin_target: Option<NodeId>,
    /// Rotation cursor into `directory` for handshake retries; when it
    /// wraps without landing anywhere, the member falls back to a full
    /// re-registration through the RS (whose directory, unlike this
    /// cached copy, tracks takeovers).
    rejoin_cursor: usize,

    /// Successfully decrypted application payloads, in arrival order.
    pub received: Vec<Vec<u8>>,
    /// Data messages that failed to decrypt (stale keys).
    pub decrypt_failures: u64,
    /// Number of disconnect events detected.
    pub disconnects_detected: u64,
    /// Latency milestones.
    pub timings: MemberTimings,
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member")
            .field("client", &self.client)
            .field("area", &self.area)
            .field("phase", &self.phase)
            .field("keys", &self.keys.key_count())
            .finish_non_exhaustive()
    }
}

impl Member {
    /// Creates a member with a pre-generated key pair.
    ///
    /// `auto` controls whether the member registers on startup and
    /// rejoins on disconnect by itself; tests that drive the protocol
    /// manually pass `false`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: MykilConfig,
        cost: CryptoCost,
        keypair: RsaKeyPair,
        rs_pub: RsaPublicKey,
        rs_node: NodeId,
        device: DeviceId,
        auth_info: Vec<u8>,
        auto: bool,
    ) -> Member {
        Member {
            node_keys: NodeKeys::new(keypair, cost, cfg.rsa_bits),
            cfg,
            rs_pub,
            rs_node,
            device,
            auth_info,
            auto,
            phase: MemberPhase::Idle,
            client: None,
            area: None,
            ac_node: None,
            ac_pub: None,
            group: None,
            backup_node: None,
            backup_pub: None,
            ticket: None,
            membership_expires: None,
            keys: KeyState::new(),
            directory: AcDirectory::default(),
            epoch: 0,
            last_heard_ac: Time::ZERO,
            last_sent_ac: Time::ZERO,
            last_refresh_request: Time::ZERO,
            refresh_owed: false,
            phase_since: Time::ZERO,
            timers: PendingTimers::default(),
            stashed_paths: Vec::new(),
            next_seq: 0,
            rejoin_target: None,
            rejoin_cursor: 0,
            received: Vec::new(),
            decrypt_failures: 0,
            disconnects_detected: 0,
            timings: MemberTimings::default(),
        }
    }

    // ---- accessors used by tests, examples and benches ----

    /// Current lifecycle phase.
    pub fn phase(&self) -> &MemberPhase {
        &self.phase
    }

    /// Whether the member is an active area member.
    pub fn is_active(&self) -> bool {
        self.phase == MemberPhase::Active
    }

    /// The member's assigned identity, once joined.
    pub fn client_id(&self) -> Option<ClientId> {
        self.client
    }

    /// The area the member currently belongs to.
    pub fn area(&self) -> Option<AreaId> {
        self.area
    }

    /// The member's current area-key view (None before joining).
    pub fn current_area_key(&self) -> Option<SymmetricKey> {
        self.keys.area_key()
    }

    /// Number of symmetric keys held (Section V-A storage metric).
    pub fn key_count(&self) -> usize {
        self.keys.key_count()
    }

    /// The member's sealed ticket, once issued.
    pub fn ticket(&self) -> Option<&[u8]> {
        self.ticket.as_deref()
    }

    /// The AC directory received at registration.
    pub fn directory(&self) -> &AcDirectory {
        &self.directory
    }

    fn set_phase(&mut self, now: Time, phase: MemberPhase) {
        if phase == MemberPhase::Active {
            self.rejoin_cursor = 0;
        }
        self.phase = phase;
        self.phase_since = now;
    }

    // ---- protocol actions (also invocable from harnesses) ----

    /// Starts the 7-step join protocol (step 1).
    pub fn start_join(&mut self, ctx: &mut Context<'_>) {
        let nonce_cw = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.bytes(&self.auth_info)
            .bytes(&self.node_keys.public().to_bytes())
            .u64(nonce_cw);
        let Some(ct) = self.node_keys.seal(ctx, &self.rs_pub, &w.into_bytes()) else {
            return;
        };
        self.timings.join_started = Some(ctx.now());
        self.set_phase(ctx.now(), MemberPhase::AwaitJoin2 { nonce_cw });
        ctx.send(self.rs_node, "join", Msg::Join1 { ct }.to_bytes());
    }

    /// Starts the 6-step rejoin protocol toward `target` (rejoin step 1).
    ///
    /// Requires a ticket from a previous join. Returns `false` without
    /// sending anything when no ticket is held.
    pub fn start_rejoin(&mut self, ctx: &mut Context<'_>, target: NodeId) -> bool {
        let Some(ticket) = self.ticket.clone() else {
            return false;
        };
        let target_pub = match self.directory.by_node(target.index() as u32) {
            Some(info) => match RsaPublicKey::from_bytes(&info.pubkey) {
                Ok(pk) => pk,
                Err(_) => return false,
            },
            None => return false,
        };
        // Leaving the old multicast group models the member moving away.
        if let Some(g) = self.group.take() {
            ctx.leave_group(g);
        }
        let nonce_cb = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.u64(nonce_cb)
            .raw(self.device.as_bytes())
            .bytes(&ticket);
        let Some(ct) = self.node_keys.seal(ctx, &target_pub, &w.into_bytes()) else {
            return false;
        };
        self.timings.rejoin_started = Some(ctx.now());
        self.stashed_paths.clear();
        self.rejoin_target = Some(target);
        self.ac_pub = Some(target_pub);
        self.set_phase(ctx.now(), MemberPhase::AwaitRejoin2 { nonce_cb });
        ctx.send(target, "rejoin", Msg::Rejoin1 { ct }.to_bytes());
        true
    }

    /// Announces a voluntary departure to the AC (Section III-D) and
    /// drops all group state except the ticket (which remains valid for
    /// a later rejoin within the membership period — the ski-pass
    /// model).
    ///
    /// Returns `false` when not currently a member.
    pub fn leave(&mut self, ctx: &mut Context<'_>) -> bool {
        if !self.is_active() {
            return false;
        }
        let (Some(ac), Some(ac_pub), Some(client)) = (self.ac_node, &self.ac_pub, self.client)
        else {
            return false;
        };
        let mut w = Writer::new();
        w.u64(client.0).u64(ctx.rng().next_u64());
        if let Some(ct) = self.node_keys.seal(ctx, ac_pub, &w.into_bytes()) {
            // Reliable: a silently lost leave means the AC keeps paying
            // rekey cost for a departed member until eviction kicks in.
            ctx.send_reliable(ac, "leave", Msg::LeaveRequest { ct }.to_bytes());
        }
        if let Some(g) = self.group.take() {
            ctx.leave_group(g);
        }
        self.set_phase(ctx.now(), MemberPhase::Idle);
        self.keys.clear();
        self.area = None;
        self.ac_node = None;
        self.ac_pub = None;
        self.backup_node = None;
        self.backup_pub = None;
        ctx.stats().bump("member-voluntary-leaves", 1);
        true
    }

    /// Multicasts application data: encrypts under a fresh random key
    /// `K_r`, seals `K_r` under the area key, and hands the packet to
    /// the AC (which rekeys if needed and forwards — Section III-E).
    ///
    /// Returns `false` when the member is not active.
    pub fn send_data(&mut self, ctx: &mut Context<'_>, payload: &[u8]) -> bool {
        let (Some(ac), Some(area_key), Some(client)) =
            (self.ac_node, self.keys.area_key(), self.client)
        else {
            return false;
        };
        let k_r = SymmetricKey::random(ctx.rng());
        let mut ciphertext = payload.to_vec();
        Rc4::new(k_r.as_bytes()).apply_keystream(&mut ciphertext);
        self.node_keys.charge_symmetric(ctx, 1);
        let wrapped = envelope::seal(&area_key, k_r.as_bytes(), ctx.rng());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.last_sent_ac = ctx.now();
        ctx.send(
            ac,
            "data",
            Msg::Data {
                origin: client,
                seq,
                wrapped_key: wrapped,
                payload: ciphertext,
            }
            .to_bytes(),
        );
        true
    }

    // ---- message handlers ----

    /// Steps 2 → 3 of either handshake: opens `{nonce + 1, challenge}`,
    /// checks the echo of the nonce this member sent, and seals
    /// `challenge + 1` to the challenger.
    fn answer_challenge(
        &self,
        ctx: &mut Context<'_>,
        ct: &[u8],
        sent_nonce: u64,
        challenger: &RsaPublicKey,
    ) -> Option<Vec<u8>> {
        let plain = self.node_keys.open(ctx, ct)?;
        let (echo, challenge) = wire::parse(&plain, |r| Ok((r.u64()?, r.u64()?)))?;
        if echo != sent_nonce.wrapping_add(1) {
            return None;
        }
        let mut w = Writer::new();
        w.u64(challenge.wrapping_add(1));
        self.node_keys.seal(ctx, challenger, &w.into_bytes())
    }

    fn handle_join2(&mut self, ctx: &mut Context<'_>, ct: &[u8]) {
        let MemberPhase::AwaitJoin2 { nonce_cw } = self.phase else {
            return;
        };
        let Some(ct3) = self.answer_challenge(ctx, ct, nonce_cw, &self.rs_pub) else {
            return;
        };
        self.set_phase(ctx.now(), MemberPhase::AwaitJoin5);
        ctx.send(self.rs_node, "join", Msg::Join3 { ct: ct3 }.to_bytes());
    }

    fn handle_join5(&mut self, ctx: &mut Context<'_>, ct: &[u8], sig: &[u8]) {
        if self.phase != MemberPhase::AwaitJoin5 {
            return;
        }
        let Some(plain) = self.node_keys.open_signed(ctx, &self.rs_pub, ct, sig) else {
            return;
        };
        let Some((nonce_ac_1, area, ac_node, ac_pub, dir)) = wire::parse(&plain, |r| {
            Ok((r.u64()?, AreaId(r.u32()?), r.u32()?, r.bytes()?, AcDirectory::read(r)?))
        }) else {
            return;
        };
        let Ok(ac_pub) = RsaPublicKey::from_bytes(ac_pub) else {
            return;
        };
        self.area = Some(area);
        self.ac_node = Some(NodeId::from_index(ac_node as usize));
        let ac_pub = &*self.ac_pub.insert(ac_pub);
        self.directory = dir;
        // Step 6 → AC: {Nonce_AC + 2, Nonce_CA, device id}. The device
        // id (NIC MAC) rides along so the AC can bind the ticket to the
        // member's hardware (Section IV-B).
        let nonce_ca = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.u64(nonce_ac_1.wrapping_add(1))
            .u64(nonce_ca)
            .raw(self.device.as_bytes());
        let Some(ct6) = self.node_keys.seal(ctx, ac_pub, &w.into_bytes()) else {
            return;
        };
        self.set_phase(ctx.now(), MemberPhase::AwaitJoin7 { nonce_ca });
        self.last_sent_ac = ctx.now();
        ctx.send(
            NodeId::from_index(ac_node as usize),
            "join",
            Msg::Join6 { ct: ct6 }.to_bytes(),
        );
    }

    fn install_welcome(&mut self, ctx: &mut Context<'_>, welcome: Welcome) {
        self.client = Some(welcome.client);
        self.area = Some(welcome.area);
        self.ac_node = Some(NodeId::from_index(welcome.ac_node as usize));
        self.group = Some(GroupId::from_index(welcome.group_raw as usize));
        if welcome.backup_node != u32::MAX {
            self.backup_node = Some(NodeId::from_index(welcome.backup_node as usize));
            self.backup_pub = RsaPublicKey::from_bytes(&welcome.backup_pubkey).ok();
        } else {
            self.backup_node = None;
            self.backup_pub = None;
        }
        self.ticket = Some(welcome.ticket);
        self.membership_expires = Some(Time::from_micros(welcome.valid_until_us));
        self.keys.clear();
        self.keys.install_path(&welcome.path);
        // Replay key refreshes that overtook the welcome on the wire.
        for path in self.stashed_paths.drain(..) {
            self.keys.install_path(&path);
        }
        self.epoch = welcome.epoch;
        self.refresh_owed = false;
        self.set_phase(ctx.now(), MemberPhase::Active);
        self.last_heard_ac = ctx.now();
        ctx.join_group(GroupId::from_index(welcome.group_raw as usize));
    }

    fn handle_join7(&mut self, ctx: &mut Context<'_>, ct: &[u8]) {
        let MemberPhase::AwaitJoin7 { nonce_ca } = self.phase else {
            return;
        };
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        let Ok(welcome) = Welcome::from_bytes(&plain) else {
            return;
        };
        if welcome.nonce_echo != nonce_ca.wrapping_add(1) {
            return;
        }
        self.install_welcome(ctx, welcome);
        self.timings.join_completed = Some(ctx.now());
        ctx.stats().bump("member-joins", 1);
    }

    fn handle_rejoin2(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let MemberPhase::AwaitRejoin2 { nonce_cb } = self.phase else {
            return;
        };
        if Some(from) != self.rejoin_target {
            return;
        }
        let Some(ac_pub) = &self.ac_pub else { return };
        let Some(ct3) = self.answer_challenge(ctx, ct, nonce_cb, ac_pub) else {
            return;
        };
        self.set_phase(ctx.now(), MemberPhase::AwaitRejoin6);
        ctx.send(from, "rejoin", Msg::Rejoin3 { ct: ct3 }.to_bytes());
    }

    fn handle_rejoin6(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8], sig: &[u8]) {
        if self.phase != MemberPhase::AwaitRejoin6 || Some(from) != self.rejoin_target {
            return;
        }
        let Some(ac_pub) = &self.ac_pub else { return };
        let Some(plain) = self.node_keys.open_signed(ctx, ac_pub, ct, sig) else {
            return;
        };
        let Ok(welcome) = Welcome::from_bytes(&plain) else {
            return;
        };
        self.install_welcome(ctx, welcome);
        self.timings.rejoin_completed = Some(ctx.now());
        ctx.stats().bump("member-rejoins", 1);
    }

    fn handle_key_update(
        &mut self,
        ctx: &mut Context<'_>,
        area: AreaId,
        epoch: u64,
        body: &[u8],
        sig: &[u8],
    ) {
        if self.area != Some(area) || !self.is_active() {
            return;
        }
        let Some(ac_pub) = &self.ac_pub else { return };
        let (node_keys, keys, seen) = (&self.node_keys, &mut self.keys, &mut self.epoch);
        if receive_key_update(ctx, node_keys, ac_pub, keys, seen, area, epoch, body, sig) {
            self.request_key_refresh(ctx);
        }
    }

    /// Rate-limited key-resynchronization request to the AC.
    fn request_key_refresh(&mut self, ctx: &mut Context<'_>) {
        self.refresh_owed = false;
        if !self.is_active() {
            return;
        }
        let (Some(ac), Some(client)) = (self.ac_node, self.client) else {
            return;
        };
        // At most one request per T_idle. One that comes sooner is owed,
        // not forgotten: the update that prompted it may be the last of
        // a burst, and nothing later would ask again.
        if self.last_refresh_request != Time::ZERO
            && ctx.now().since(self.last_refresh_request) < self.cfg.t_idle
        {
            self.refresh_owed = true;
            return;
        }
        self.last_refresh_request = ctx.now();
        self.last_sent_ac = ctx.now();
        ctx.stats().bump("member-key-refreshes", 1);
        ctx.send(
            ac,
            "key-unicast",
            Msg::KeyRefreshRequest { client }.to_bytes(),
        );
    }

    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a phase match, not `Msg` dispatch: a path in any other phase is dropped"
    )]
    fn handle_key_unicast(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        let Ok(path) = decode_path(&plain) else { return };
        match self.phase {
            // Only our controller's paths count: a primary that
            // restarts after its backup took over re-issues every path
            // of the tree it recovered, and installing those would put
            // this member on keys the area no longer uses, at an epoch
            // that never asks for a refresh. A path from our controller
            // answers whatever was asked of it before, owed or sent.
            MemberPhase::Active if Some(from) == self.ac_node => {
                self.keys.install_path(&path);
                self.refresh_owed = false;
            }
            // Mid-handshake with this AC: the welcome is still in
            // flight; stash so it is not clobbered by the (stale)
            // welcome path.
            MemberPhase::AwaitJoin7 { .. } | MemberPhase::AwaitRejoin6
                if Some(from) == self.ac_node || Some(from) == self.rejoin_target =>
            {
                self.stashed_paths.push(path);
            }
            _ => {}
        }
    }

    fn handle_data(&mut self, ctx: &mut Context<'_>, wrapped: &[u8], payload: &[u8]) {
        // Try the current area key first, then recently superseded ones
        // (a rotation multicast can be reordered with data by jitter).
        self.node_keys.charge_symmetric(ctx, 1);
        let Some(kr_bytes) = self
            .keys
            .area_keys_with_history()
            .find_map(|k| envelope::open(k, wrapped).ok())
        else {
            self.decrypt_failures += 1;
            self.request_key_refresh(ctx);
            return;
        };
        let Ok(kr) = <[u8; 16]>::try_from(kr_bytes.as_slice()) else {
            self.decrypt_failures += 1;
            return;
        };
        let mut plain = payload.to_vec();
        Rc4::new(&kr).apply_keystream(&mut plain);
        self.received.push(plain);
    }

    fn handle_takeover(&mut self, ctx: &mut Context<'_>, area: AreaId, sig: &[u8], from: NodeId) {
        if self.area != Some(area) {
            return;
        }
        let signed = takeover_signed_bytes(area);
        // The backup's key moves over only once its signature checks out.
        let node_keys = &self.node_keys;
        let Some(backup_pub) =
            self.backup_pub.take_if(|key| node_keys.verify(ctx, key, &signed, sig))
        else {
            return;
        };
        // The backup is now our AC.
        let pubkey = backup_pub.to_bytes();
        self.ac_node = Some(from);
        self.ac_pub = Some(backup_pub);
        self.backup_node = None;
        self.last_heard_ac = ctx.now();
        // Keep the cached directory pointing at the live controller, so
        // a later ticket rejoin toward this area resolves its key.
        self.directory.upsert(crate::directory::AcInfo {
            area,
            node: from.index() as u32,
            pubkey,
        });
        // The new controller's rekey lineage restarts from its replica
        // snapshot, which may trail (or, behind a partition, diverge
        // from) the epochs this member saw; restart epoch tracking and
        // fetch a fresh key path instead of comparing across lineages.
        self.epoch = 0;
        self.request_key_refresh(ctx);
    }

    /// Whether a join/rejoin handshake has been pending past the retry
    /// threshold (an unreachable counterpart, a lost message, ...).
    fn handshake_stuck(&self, now: Time) -> bool {
        let pending = matches!(
            self.phase,
            MemberPhase::AwaitJoin2 { .. }
                | MemberPhase::AwaitJoin5
                | MemberPhase::AwaitJoin7 { .. }
                | MemberPhase::AwaitRejoin2 { .. }
                | MemberPhase::AwaitRejoin6
        );
        pending
            && now.since(self.phase_since) >= self.cfg.member_disconnect_after().saturating_mul(2)
    }

    /// Restarts a stuck handshake: with a ticket, rotate to the next AC
    /// in the directory; once every cached entry has been tried (or
    /// without a ticket at all), re-register from scratch through the
    /// RS. The cached directory predates any failover, so a full
    /// rotation that lands nowhere means its entries are stale — dead
    /// or demoted nodes — and only the RS knows the successors.
    fn retry_handshake(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().bump("member-handshake-retries", 1);
        if self.ticket.is_some() {
            let n = self.directory.entries.len();
            while self.rejoin_cursor < n {
                let target = self.directory.entries[self.rejoin_cursor].node;
                self.rejoin_cursor += 1;
                if self.start_rejoin(ctx, NodeId::from_index(target as usize)) {
                    return;
                }
            }
            self.rejoin_cursor = 0;
        }
        self.start_join(ctx);
    }

    fn on_disconnect_detected(&mut self, ctx: &mut Context<'_>) {
        self.disconnects_detected += 1;
        ctx.stats().bump("member-disconnects", 1);
        if !self.auto {
            return;
        }
        // Pick another AC from the directory (not the current one).
        let current = self.ac_node.map(|n| n.index() as u32);
        let target = self
            .directory
            .entries
            .iter()
            .find(|e| Some(e.node) != current)
            .map(|e| e.node);
        if let Some(t) = target {
            self.start_rejoin(ctx, NodeId::from_index(t as usize));
        }
    }
}

impl Node for Member {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.auto {
            self.start_join(ctx);
        }
        Timer::Alive.arm(&mut self.timers, ctx, self.cfg.t_active);
        Timer::Disconnect.arm(&mut self.timers, ctx, self.cfg.t_idle);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Ok(msg) = Msg::from_bytes(bytes) else {
            return;
        };
        if Some(from) == self.ac_node {
            self.last_heard_ac = ctx.now();
        }
        match msg {
            Msg::Join2 { ct } => self.handle_join2(ctx, &ct),
            Msg::Join5 { ct, sig } => self.handle_join5(ctx, &ct, &sig),
            Msg::Join7 { ct } => self.handle_join7(ctx, &ct),
            Msg::Rejoin2 { ct } => self.handle_rejoin2(ctx, from, &ct),
            Msg::Rejoin6 { ct, sig } => self.handle_rejoin6(ctx, from, &ct, &sig),
            Msg::RejoinDenied { reason } => {
                if reason == RejoinDenyReason::NotMember
                    && self.auto
                    && self.is_active()
                    && Some(from) == self.ac_node
                {
                    // Our controller evicted us while we were unreachable
                    // (or a promoted replica never knew us): its beacons
                    // look alive but every key refresh is refused. The
                    // session is dead — re-authenticate with the ticket,
                    // or re-register when the rejoin cannot start.
                    ctx.stats().bump("member-session-invalidated", 1);
                    if !self.start_rejoin(ctx, from) {
                        self.start_join(ctx);
                    }
                } else if matches!(
                    self.phase,
                    MemberPhase::AwaitRejoin2 { .. } | MemberPhase::AwaitRejoin6
                ) {
                    self.set_phase(ctx.now(), MemberPhase::Denied(reason));
                    ctx.stats().bump("member-rejoin-denied", 1);
                    // An expired/garbled ticket cannot be fixed by
                    // retrying: fall back to full registration.
                    if self.auto && reason == RejoinDenyReason::BadTicket {
                        self.ticket = None;
                        ctx.stats().bump("member-reregistrations", 1);
                        self.start_join(ctx);
                    }
                }
            }
            Msg::KeyUpdate {
                area,
                epoch,
                body,
                sig,
            } => self.handle_key_update(ctx, area, epoch, &body, &sig),
            Msg::KeyUnicast { ct } => self.handle_key_unicast(ctx, from, &ct),
            Msg::Data {
                wrapped_key,
                payload,
                ..
            } => self.handle_data(ctx, &wrapped_key, &payload),
            // Our controller's alive beacon. (A primary that restarts
            // after its backup took over beacons too, from a
            // recovery-fenced epoch, until it is demoted.)
            Msg::AcAlive { area, epoch }
                if self.is_active() && Some(from) == self.ac_node && self.area == Some(area) =>
            {
                // A newer epoch means we missed a key-update multicast;
                // the area has also gone quiet, so a refresh the rate
                // limit held back is due now. Resynchronize.
                let missed = epoch > self.epoch;
                if missed {
                    self.epoch = epoch;
                }
                if missed || self.refresh_owed {
                    self.request_key_refresh(ctx);
                }
            }
            Msg::Takeover { area, sig, .. } => self.handle_takeover(ctx, area, &sig, from),
            // Alive beacons of other controllers.
            Msg::AcAlive { .. } => {}
            // Traffic addressed to the RS, to ACs, or to replicas — a
            // member deliberately ignores it (listed explicitly so a new
            // wire message fails to compile until triaged here).
            Msg::Join1 { .. }
            | Msg::Join3 { .. }
            | Msg::Join4 { .. }
            | Msg::Join6 { .. }
            | Msg::Rejoin1 { .. }
            | Msg::Rejoin3 { .. }
            | Msg::Rejoin4 { .. }
            | Msg::Rejoin5 { .. }
            | Msg::AreaJoinReq { .. }
            | Msg::AreaJoinAck { .. }
            | Msg::KeyRefreshRequest { .. }
            | Msg::LeaveRequest { .. }
            | Msg::MemberAlive { .. }
            | Msg::Heartbeat { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::StateSync { .. }
            | Msg::Demote { .. } => {}
        }
    }

    fn on_crashed_volatile_reset(&mut self) {
        // A member keeps no stable storage beyond what a real client
        // would hold on disk: its keypair and identity, the sealed
        // ticket (the paper's ski-pass — explicitly built to outlive
        // the session), the cached AC directory and last-known
        // controller addresses, and the data-plane sequence counter
        // (persisted so the ACs' replay dedup stays sound across a
        // restart). Session keys, handshake state and the group
        // subscription die with the process — forward secrecy means
        // they cannot be trusted after an outage anyway.
        self.phase = MemberPhase::Idle;
        self.group = None;
        self.keys.clear();
        self.epoch = 0;
        self.stashed_paths.clear();
        self.rejoin_target = None;
        self.rejoin_cursor = 0;
        self.last_heard_ac = Time::ZERO;
        self.last_sent_ac = Time::ZERO;
        self.last_refresh_request = Time::ZERO;
        self.phase_since = Time::ZERO;
        self.timers = PendingTimers::default();
    }

    fn on_restarted(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().bump("member-restarts", 1);
        // The crash dropped both liveness timers; re-arm them and let
        // the disconnect detector start from a fresh clock.
        Timer::Alive.arm(&mut self.timers, ctx, self.cfg.t_active);
        Timer::Disconnect.arm(&mut self.timers, ctx, self.cfg.t_idle);
        self.last_heard_ac = ctx.now();
        if !self.auto {
            // Manually driven members never self-initiate a handshake;
            // the harness decides how the wiped client comes back.
            return;
        }
        // Re-enter the group with the durable ticket: rejoin the
        // last-known controller, or fall back to a full registration
        // when no ticket/controller survives.
        if !self.ac_node.is_some_and(|ac| self.start_rejoin(ctx, ac)) {
            self.start_join(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(timer) = Timer::fired(&mut self.timers, tag) else {
            return;
        };
        match timer {
            Timer::Alive => {
                if self.is_active()
                    && ctx.now().since(self.last_sent_ac) >= self.cfg.t_active
                {
                    if let (Some(ac), Some(client)) = (self.ac_node, self.client) {
                        self.last_sent_ac = ctx.now();
                        ctx.send(ac, "alive", Msg::MemberAlive { client }.to_bytes());
                    }
                }
                Timer::Alive.arm(&mut self.timers, ctx, self.cfg.t_active);
            }
            Timer::Disconnect => {
                // Subscription expiry: re-register through the RS (the
                // ticket is no longer honored anywhere).
                if self.auto
                    && self.is_active()
                    && self.membership_expires.is_some_and(|t| ctx.now() > t)
                {
                    if let Some(g) = self.group.take() {
                        ctx.leave_group(g);
                    }
                    self.keys.clear();
                    self.ticket = None;
                    self.membership_expires = None;
                    ctx.stats().bump("member-reregistrations", 1);
                    self.start_join(ctx);
                } else if self.is_active()
                    && ctx.now().since(self.last_heard_ac) >= self.cfg.member_disconnect_after()
                {
                    self.on_disconnect_detected(ctx);
                } else if self.auto && self.handshake_stuck(ctx.now()) {
                    self.retry_handshake(ctx);
                }
                Timer::Disconnect.arm(&mut self.timers, ctx, self.cfg.t_idle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AreaController;
    use crate::group::GroupBuilder;
    use crate::rekey::{encode_entries, key_update_digest, UnderTag, WireKeyEntry};
    use mykil_crypto::drbg::Drbg;
    use mykil_net::Duration;

    /// A one-entry key update for `area`: `new` sealed under `old` as
    /// the next area key, signed by `signer` at `epoch`.
    fn signed_update(
        area: AreaId,
        epoch: u64,
        old: &SymmetricKey,
        new: &SymmetricKey,
        signer: &RsaKeyPair,
    ) -> (Vec<u8>, Vec<u8>) {
        let body = encode_entries(&[WireKeyEntry {
            node: crate::rekey::AREA_KEY_NODE,
            under: UnderTag::PrevSelf,
            env: envelope::seal(old, new.as_bytes(), &mut Drbg::from_seed(epoch)),
        }]);
        let sig = signer.sign_digest(&key_update_digest(area, epoch, &body));
        (body, sig)
    }

    /// Regression: the fail-over signature check is an RSA public
    /// operation like any other verify, so what the member does next
    /// waits for it. It used to run uncharged.
    #[test]
    fn takeover_verification_is_charged_one_public_op() {
        let public_op = Duration::from_millis(40);
        let cost = CryptoCost {
            rsa_private_2048: Duration::ZERO,
            rsa_public_2048: public_op,
            symmetric_op: Duration::ZERO,
        };
        let mut g = GroupBuilder::new(63).virtual_rsa_bits(2048).cost(cost).replicated(true).build();
        let m = g.register_member(1);
        g.settle();
        assert!(g.is_member(m));

        let backup = g.backups[0];
        let area = g.ac(0).area();
        let sig = g.backup(0).node_keys.keypair().sign(&takeover_signed_bytes(area));
        g.sim.enable_trace(4096);
        let announced = g.now();
        g.sim.invoke(m, |m: &mut Member, ctx| m.handle_takeover(ctx, area, &sig, backup));
        assert_eq!(g.member(m).ac_node, Some(backup), "a valid announcement repoints the member");
        g.run_for(Duration::from_millis(100));
        let request_arrived = g.sim.trace_events().into_iter().find_map(|e| match e {
            mykil_net::TraceEvent::Delivered { at, from, to, kind: "key-unicast", .. }
                if (from, to) == (m, backup) =>
            {
                Some(at)
            }
            _ => None,
        });
        let waited = request_arrived.expect("the member asks its new controller for keys").since(announced);
        assert!(waited >= public_op, "the refresh request left {waited} after the announcement");
    }

    /// Regression: two updates a member cannot open, less than `T_idle`
    /// apart, used to strand it — the second refresh request fell to the
    /// rate limit and nothing asked again. It is owed until the
    /// controller's next beacon. And only the member's own controller
    /// moves its epoch: a primary that restarts after its backup took
    /// over beacons from a recovery-fenced epoch, which used to make
    /// every later update of the live controller look old. Nor does
    /// anyone else's key path count: the same restarted primary
    /// re-issues every path of the tree it recovered.
    #[test]
    fn a_rate_limited_refresh_is_owed_and_foreign_beacons_are_ignored() {
        let mut g = GroupBuilder::new(65).areas(2).build();
        let m = g.register_member_manual(1);
        g.sim.invoke(m, |m: &mut Member, ctx| m.start_join(ctx));
        g.settle();
        let (area, controller, stranger) = (g.ac(0).area(), g.primaries[0], g.primaries[1]);
        let signer = g.ac(0).node_keys.keypair().clone();
        let epoch = g.sim.node::<Member>(m).epoch;
        let requests = |g: &crate::group::GroupHandle| g.stats().counter("member-key-refreshes");
        let before = requests(&g);

        let beacon = Msg::AcAlive { area, epoch: epoch + 1000 }.to_bytes();
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, stranger, &beacon));
        assert_eq!((g.sim.node::<Member>(m).epoch, requests(&g)), (epoch, before));

        let stale = SymmetricKey::from_label("a tree the area left behind");
        let path = crate::rekey::encode_path(&[(0, stale.clone())]);
        let ct = mykil_crypto::envelope::HybridCiphertext::encrypt(g.member(m).node_keys.public(), &path, &mut Drbg::from_seed(3))
            .expect("encrypt")
            .to_bytes();
        let unicast = Msg::KeyUnicast { ct }.to_bytes();
        let held = g.member(m).current_area_key();
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, stranger, &unicast));
        assert_eq!(g.member(m).current_area_key(), held, "a stranger's path was installed");
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, controller, &unicast));
        assert_eq!(g.member(m).current_area_key(), Some(stale), "the controller's path was not");

        // Sealed under a key the member never held.
        let lost = SymmetricKey::from_label("lost");
        for (step, sent) in [(1, 1), (2, 1)] {
            let (body, sig) = signed_update(area, epoch + step, &lost, &lost, &signer);
            g.sim.invoke(m, |m: &mut Member, ctx| {
                m.handle_key_update(ctx, area, epoch + step, &body, &sig)
            });
            assert_eq!(requests(&g), before + sent, "update {step}");
            // The first request is answered; the second update is later.
            g.run_for(Duration::from_millis(10));
        }
        assert!(g.sim.node::<Member>(m).refresh_owed);
        g.run_for(Duration::from_millis(300));
        assert_eq!(requests(&g), before + 2, "the beacon of {controller:?} collects the debt");
        assert!(!g.sim.node::<Member>(m).refresh_owed);
    }

    /// One receiver serves a member and a child controller (which *is*
    /// a member of its parent area): a next-epoch update applies, a
    /// skipped epoch applies and asks for a refresh, an older one is
    /// ignored, and a forged one changes nothing.
    #[test]
    fn member_and_child_controller_share_the_key_update_receiver() {
        let mut g = GroupBuilder::new(64).areas(2).build();
        let m = g.register_member_manual(1);
        g.sim.invoke(m, |m: &mut Member, ctx| m.start_join(ctx));
        g.settle();
        let (area, child) = (g.ac(0).area(), g.primaries[1]);
        assert_eq!(g.member(m).area(), Some(area));
        let parent = g.ac(0).node_keys.keypair().clone();

        let drive = |ctx: &mut Context<'_>, node_keys: &NodeKeys, keys: &mut KeyState, seen: &mut u64| {
            let start = *seen;
            let k0 = keys.area_key().expect("holds area 0's key");
            let [k1, k2, k3] = ["k1", "k2", "k3"].map(SymmetricKey::from_label);
            let mut receive = |old: &SymmetricKey, new: &SymmetricKey, epoch: u64, signer: &RsaKeyPair| {
                let (body, sig) = signed_update(area, epoch, old, new, signer);
                let refresh =
                    receive_key_update(ctx, node_keys, parent.public(), keys, seen, area, epoch, &body, &sig);
                (refresh, *seen, keys.area_key())
            };
            assert_eq!(receive(&k0, &k1, start + 1, &parent), (false, start + 1, Some(k1.clone())));
            let forger = node_keys.keypair();
            assert_eq!(receive(&k1, &k3, start + 2, forger), (false, start + 1, Some(k1.clone())));
            assert_eq!(receive(&k1, &k2, start + 3, &parent), (true, start + 3, Some(k2.clone())));
            assert_eq!(receive(&k2, &k3, start + 2, &parent), (false, start + 3, Some(k2.clone())));
        };
        g.sim.invoke(m, |m: &mut Member, ctx| drive(ctx, &m.node_keys, &mut m.keys, &mut m.epoch));
        g.sim.invoke(child, |ac: &mut AreaController, ctx| {
            drive(ctx, &ac.node_keys, &mut ac.parent_keys, &mut ac.parent_epoch)
        });
    }
}
