//! A group member: join, rejoin, data, liveness.
//!
//! Implements the client side of the 7-step join protocol (Figure 3),
//! the 6-step rejoin protocol (Figure 7), data multicast and reception
//! (Figure 2), and the member half of failure detection (Section IV-A):
//! periodic `alive` messages to the AC and a disconnect detector that
//! triggers an automatic rejoin to another area controller.

use crate::config::MykilConfig;
use crate::crypto_cost::CryptoCost;
use crate::directory::AcDirectory;
use crate::identity::{AreaId, ClientId, DeviceId};
use crate::msg::{Msg, RejoinDenyReason};
use crate::rekey::{decode_path, key_update_digest, KeyState};
use crate::welcome::Welcome;
use crate::wire::{Reader, Writer};
use mykil_crypto::envelope::{self, HybridCiphertext};
use mykil_crypto::rc4::Rc4;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use mykil_net::{Context, GroupId, Node, NodeId, Time};
use rand::RngCore;

const TIMER_ALIVE: u64 = 1;
const TIMER_DISCONNECT: u64 = 2;

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
    cost: CryptoCost,
    keypair: RsaKeyPair,
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
    /// When the current phase was entered (handshake retry timer).
    phase_since: Time,
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
            cfg,
            cost,
            keypair,
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
            phase_since: Time::ZERO,
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
            .bytes(&self.keypair.public().to_bytes())
            .u64(nonce_cw);
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        let Ok(ct) = HybridCiphertext::encrypt(&self.rs_pub, &w.into_bytes(), ctx.rng()) else {
            return;
        };
        self.timings.join_started = Some(ctx.now());
        self.set_phase(ctx.now(), MemberPhase::AwaitJoin2 { nonce_cw });
        ctx.send(self.rs_node, "join", Msg::Join1 { ct: ct.to_bytes() }.to_bytes());
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
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        let Ok(ct) = HybridCiphertext::encrypt(&target_pub, &w.into_bytes(), ctx.rng()) else {
            return false;
        };
        self.timings.rejoin_started = Some(ctx.now());
        self.stashed_paths.clear();
        self.rejoin_target = Some(target);
        self.ac_pub = Some(target_pub);
        self.set_phase(ctx.now(), MemberPhase::AwaitRejoin2 { nonce_cb });
        ctx.send(target, "rejoin", Msg::Rejoin1 { ct: ct.to_bytes() }.to_bytes());
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
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        if let Ok(ct) = HybridCiphertext::encrypt(ac_pub, &w.into_bytes(), ctx.rng()) {
            // Reliable: a silently lost leave means the AC keeps paying
            // rekey cost for a departed member until eviction kicks in.
            ctx.send_reliable(ac, "leave", Msg::LeaveRequest { ct: ct.to_bytes() }.to_bytes());
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
        ctx.charge_compute(self.cost.symmetric_op);
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

    fn decrypt(&self, ct: &[u8]) -> Option<Vec<u8>> {
        HybridCiphertext::from_bytes(ct)
            .ok()?
            .decrypt(&self.keypair)
            .ok()
    }

    fn handle_join2(&mut self, ctx: &mut Context<'_>, ct: &[u8]) {
        let MemberPhase::AwaitJoin2 { nonce_cw } = self.phase else {
            return;
        };
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let Some(plain) = self.decrypt(ct) else { return };
        let mut r = Reader::new(&plain);
        let (Ok(echo), Ok(nonce_wc)) = (r.u64(), r.u64()) else {
            return;
        };
        if r.finish().is_err() || echo != nonce_cw.wrapping_add(1) {
            return;
        }
        // Step 3: prove knowledge of Nonce_WC.
        let mut w = Writer::new();
        w.u64(nonce_wc.wrapping_add(1));
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        let Ok(ct3) = HybridCiphertext::encrypt(&self.rs_pub, &w.into_bytes(), ctx.rng()) else {
            return;
        };
        self.set_phase(ctx.now(), MemberPhase::AwaitJoin5);
        ctx.send(self.rs_node, "join", Msg::Join3 { ct: ct3.to_bytes() }.to_bytes());
    }

    fn handle_join5(&mut self, ctx: &mut Context<'_>, ct: &[u8], sig: &[u8]) {
        if self.phase != MemberPhase::AwaitJoin5 {
            return;
        }
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        if !self.rs_pub.verify(ct, sig) {
            return;
        }
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let Some(plain) = self.decrypt(ct) else { return };
        let parsed = (|| {
            let mut r = Reader::new(&plain);
            let nonce_ac_1 = r.u64().ok()?;
            let area = AreaId(r.u32().ok()?);
            let ac_node = r.u32().ok()?;
            let ac_pub = r.bytes().ok()?.to_vec();
            let dir = AcDirectory::read(&mut r).ok()?;
            r.finish().ok()?;
            Some((nonce_ac_1, area, ac_node, ac_pub, dir))
        })();
        let Some((nonce_ac_1, area, ac_node, ac_pub, dir)) = parsed else {
            return;
        };
        let Ok(ac_pub) = RsaPublicKey::from_bytes(&ac_pub) else {
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
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        let Ok(ct6) = HybridCiphertext::encrypt(ac_pub, &w.into_bytes(), ctx.rng()) else {
            return;
        };
        self.set_phase(ctx.now(), MemberPhase::AwaitJoin7 { nonce_ca });
        self.last_sent_ac = ctx.now();
        ctx.send(
            NodeId::from_index(ac_node as usize),
            "join",
            Msg::Join6 { ct: ct6.to_bytes() }.to_bytes(),
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
        self.set_phase(ctx.now(), MemberPhase::Active);
        self.last_heard_ac = ctx.now();
        ctx.join_group(GroupId::from_index(welcome.group_raw as usize));
    }

    fn handle_join7(&mut self, ctx: &mut Context<'_>, ct: &[u8]) {
        let MemberPhase::AwaitJoin7 { nonce_ca } = self.phase else {
            return;
        };
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let Some(plain) = self.decrypt(ct) else { return };
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
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let Some(plain) = self.decrypt(ct) else { return };
        let mut r = Reader::new(&plain);
        let (Ok(echo), Ok(nonce_bc)) = (r.u64(), r.u64()) else {
            return;
        };
        if r.finish().is_err() || echo != nonce_cb.wrapping_add(1) {
            return;
        }
        let Some(ac_pub) = &self.ac_pub else { return };
        let mut w = Writer::new();
        w.u64(nonce_bc.wrapping_add(1));
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        let Ok(ct3) = HybridCiphertext::encrypt(ac_pub, &w.into_bytes(), ctx.rng()) else {
            return;
        };
        self.set_phase(ctx.now(), MemberPhase::AwaitRejoin6);
        ctx.send(from, "rejoin", Msg::Rejoin3 { ct: ct3.to_bytes() }.to_bytes());
    }

    fn handle_rejoin6(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8], sig: &[u8]) {
        if self.phase != MemberPhase::AwaitRejoin6 || Some(from) != self.rejoin_target {
            return;
        }
        let Some(ac_pub) = &self.ac_pub else { return };
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        if !ac_pub.verify(ct, sig) {
            return;
        }
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let Some(plain) = self.decrypt(ct) else { return };
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
        // Verify the AC's signature over area ‖ epoch ‖ body.
        let Some(ac_pub) = &self.ac_pub else { return };
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        if !ac_pub.verify_digest(&key_update_digest(area, epoch, body), sig) {
            return;
        }
        // Ordering guard: a late-arriving older update must never
        // overwrite newer keys (multicasts can be reordered by jitter).
        if epoch <= self.epoch {
            return;
        }
        // Entries are opened straight out of the frame (no decoded
        // entry list); the count prefix alone prices the work.
        let Ok(count) = Reader::new(body).u32() else {
            return;
        };
        let Ok(outcome) = self.keys.apply_encoded(body) else {
            return;
        };
        ctx.charge_compute(self.cost.symmetric_op.saturating_mul(count as u64));
        // Stale protecting keys, nothing decryptable, or a skipped epoch
        // all mean we missed an update (e.g. one multicast before we
        // subscribed to the group); ask the AC for a fresh path.
        if outcome.stale > 0 || outcome.learned == 0 || epoch > self.epoch + 1 {
            self.request_key_refresh(ctx);
        }
        self.epoch = epoch;
    }

    /// Rate-limited key-resynchronization request to the AC.
    fn request_key_refresh(&mut self, ctx: &mut Context<'_>) {
        if !self.is_active() {
            return;
        }
        let (Some(ac), Some(client)) = (self.ac_node, self.client) else {
            return;
        };
        // At most one request per T_idle.
        if self.last_refresh_request != Time::ZERO
            && ctx.now().since(self.last_refresh_request) < self.cfg.t_idle
        {
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

    fn handle_key_unicast(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let Some(plain) = self.decrypt(ct) else { return };
        let Ok(path) = decode_path(&plain) else { return };
        match self.phase {
            MemberPhase::Active => self.keys.install_path(&path),
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
        ctx.charge_compute(self.cost.symmetric_op);
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
        let mut w = Writer::new();
        w.u32(area.0);
        let signed = w.into_bytes();
        // The backup's key moves over only once its signature checks out.
        let Some(backup_pub) = self.backup_pub.take_if(|key| key.verify(&signed, sig)) else {
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
        ctx.set_timer(self.cfg.t_active, TIMER_ALIVE);
        ctx.set_timer(self.cfg.t_idle, TIMER_DISCONNECT);
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
            Msg::AcAlive { area, epoch }
                // A newer epoch in the alive beacon means we missed a
                // key-update multicast; resynchronize.
                if self.is_active() && self.area == Some(area) && epoch > self.epoch => {
                    self.epoch = epoch;
                    self.request_key_refresh(ctx);
                }
            Msg::Takeover { area, sig, .. } => self.handle_takeover(ctx, area, &sig, from),
            // Alive beacons that failed the resync guard above.
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
    }

    fn on_restarted(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().bump("member-restarts", 1);
        // The crash dropped both liveness timers; re-arm them and let
        // the disconnect detector start from a fresh clock.
        ctx.set_timer(self.cfg.t_active, TIMER_ALIVE);
        ctx.set_timer(self.cfg.t_idle, TIMER_DISCONNECT);
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
        match tag {
            TIMER_ALIVE => {
                if self.is_active()
                    && ctx.now().since(self.last_sent_ac) >= self.cfg.t_active
                {
                    if let (Some(ac), Some(client)) = (self.ac_node, self.client) {
                        self.last_sent_ac = ctx.now();
                        ctx.send(ac, "alive", Msg::MemberAlive { client }.to_bytes());
                    }
                }
                ctx.set_timer(self.cfg.t_active, TIMER_ALIVE);
            }
            TIMER_DISCONNECT => {
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
                ctx.set_timer(self.cfg.t_idle, TIMER_DISCONNECT);
            }
            _ => {}
        }
    }
}
