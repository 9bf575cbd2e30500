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
use mykil_net::{Context, Duration, GroupId, Node, NodeId, Time};
use rand::RngCore;

crate::timer::timer_kinds! {
    /// The member's two liveness clocks (Section IV-A). Both run from
    /// the start of a handshake until the member is idle or denied.
    enum Timer {
        /// Send an `alive` to the controller every `T_active`.
        Alive = 1,
        /// Every `T_idle`: detect a silent controller, an expired
        /// subscription or a stuck handshake.
        Disconnect = 2,
    }
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

type Path = Vec<(u32, SymmetricKey)>;

/// A controller: its address and its key.
struct Controller {
    node: NodeId,
    key: RsaPublicKey,
}

/// Where the member is in its lifecycle, holding what that phase needs.
enum Phase {
    /// Not registered, or departed: no clock runs.
    Idle,
    /// Registering through the RS (Figure 3), at `step` since `since`.
    Joining { since: Time, step: JoinStep },
    /// Re-authenticating with the ticket at `target` (Figure 7).
    /// `cursor` is the next directory entry a stuck rejoin rotates to.
    Rejoining { since: Time, cursor: usize, target: Controller, step: RejoinStep },
    /// A member of an area.
    Active(Session),
    /// The last rejoin was refused: no clock runs.
    Denied(RejoinDenyReason),
}

/// The step each handshake awaits. The last one holds the key paths
/// that overtook the welcome on the wire, replayed after it.
enum JoinStep {
    Await2 { nonce_cw: u64 },
    Await5,
    Await7 { nonce_ca: u64, ac: Controller, stashed: Vec<Path> },
}

enum RejoinStep {
    Await2 { nonce_cb: u64 },
    Await6 { stashed: Vec<Path> },
}

/// What an active member holds for its area.
struct Session {
    client: ClientId,
    area: AreaId,
    group: GroupId,
    ac: Controller,
    /// The key of the pair's other controller, which stands by to take
    /// the area over (none when the area is not replicated).
    standby: Option<RsaPublicKey>,
    /// When the membership (and the ticket) expires.
    expires: Time,
    /// The area's keys, at the epoch they reach, with any refresh owed.
    keys: KeyState,
    last_heard: Time,
    last_sent: Time,
    /// When a key refresh was last asked for (the `T_idle` rate limit).
    last_refresh: Option<Time>,
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
    phase: Phase,
    ticket: Option<Vec<u8>>,
    directory: AcDirectory,
    /// The controller of the last session (or the one the RS assigned
    /// mid-join): a restarted member rejoins it.
    last_ac: Option<NodeId>,
    next_seq: u64,
    /// The timer kinds with a firing queued.
    timers: PendingTimers,

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
            .field("client", &self.client_id())
            .field("area", &self.area())
            .field("denied", &self.denied())
            .field("keys", &self.key_count())
            .finish_non_exhaustive()
    }
}

/// Steps 2 → 3 of either handshake: opens `{nonce + 1, challenge}`,
/// checks the echo of the nonce this member sent, and seals
/// `challenge + 1` to the challenger.
fn answer_challenge(
    node_keys: &NodeKeys,
    ctx: &mut Context<'_>,
    ct: &[u8],
    sent_nonce: u64,
    challenger: &RsaPublicKey,
) -> Option<Vec<u8>> {
    let plain = node_keys.open(ctx, ct)?;
    let (echo, challenge) = wire::parse(&plain, |r| Ok((r.u64()?, r.u64()?)))?;
    if echo != sent_nonce.wrapping_add(1) {
        return None;
    }
    let mut w = Writer::new();
    w.u64(challenge.wrapping_add(1));
    node_keys.seal(ctx, challenger, &w.into_bytes())
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
            phase: Phase::Idle,
            ticket: None,
            directory: AcDirectory::default(),
            last_ac: None,
            next_seq: 0,
            timers: PendingTimers::default(),
            received: Vec::new(),
            decrypt_failures: 0,
            disconnects_detected: 0,
            timings: MemberTimings::default(),
        }
    }

    // ---- accessors used by tests, examples and benches ----

    /// Why the last rejoin was refused, while the member stays refused.
    pub fn denied(&self) -> Option<RejoinDenyReason> {
        let Phase::Denied(reason) = self.phase else { return None };
        Some(reason)
    }

    fn session(&self) -> Option<&Session> {
        let Phase::Active(session) = &self.phase else { return None };
        Some(session)
    }

    /// Whether the member is an active area member.
    pub fn is_active(&self) -> bool {
        self.session().is_some()
    }

    /// The member's identity in its current session.
    pub fn client_id(&self) -> Option<ClientId> {
        self.session().map(|s| s.client)
    }

    /// The area the member currently belongs to.
    pub fn area(&self) -> Option<AreaId> {
        self.session().map(|s| s.area)
    }

    /// The member's current area-key view (None outside a session).
    pub fn current_area_key(&self) -> Option<SymmetricKey> {
        self.session()?.keys.area_key()
    }

    /// Number of symmetric keys held (Section V-A storage metric).
    pub fn key_count(&self) -> usize {
        self.session().map_or(0, |s| s.keys.key_count())
    }

    /// The member's sealed ticket, once issued.
    pub fn ticket(&self) -> Option<&[u8]> {
        self.ticket.as_deref()
    }

    /// The AC directory received at registration.
    pub fn directory(&self) -> &AcDirectory {
        &self.directory
    }

    /// Whether the liveness clocks run: from the start of a handshake
    /// through the session. An idle or denied member arms nothing.
    fn clocks_run(&self) -> bool {
        !matches!(self.phase, Phase::Idle | Phase::Denied(_))
    }

    /// A handshake that starts while the clocks are stopped restarts
    /// them, before its first seal is computed. The alive clock ticks
    /// on the multiples of `T_active`, so a member that comes back
    /// keeps the cadence it had instead of taking the handshake's.
    fn start_clocks(&mut self, ctx: &mut Context<'_>) {
        if !self.clocks_run() {
            let tick = self.cfg.t_active.as_micros().max(1);
            let due = Duration::from_micros(tick - ctx.now().as_micros() % tick);
            Timer::Alive.arm(&mut self.timers, ctx, due);
            Timer::Disconnect.arm(&mut self.timers, ctx, self.cfg.t_idle);
        }
    }

    /// Ends the session, if there is one: the member leaves the area's
    /// multicast group and its keys go with the session.
    fn end_session(&mut self, ctx: &mut Context<'_>) {
        if let Phase::Active(session) = &self.phase {
            ctx.leave_group(session.group);
            self.phase = Phase::Idle;
        }
    }

    // ---- protocol actions (also invocable from harnesses) ----

    /// Starts the 7-step join protocol (step 1).
    pub fn start_join(&mut self, ctx: &mut Context<'_>) {
        self.end_session(ctx);
        self.start_clocks(ctx);
        let nonce_cw = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.bytes(&self.auth_info)
            .bytes(&self.node_keys.public().to_bytes())
            .u64(nonce_cw);
        let Some(ct) = self.node_keys.seal(ctx, &self.rs_pub, &w.into_bytes()) else {
            return;
        };
        self.timings.join_started = Some(ctx.now());
        let step = JoinStep::Await2 { nonce_cw };
        self.phase = Phase::Joining { since: ctx.now(), step };
        ctx.send(self.rs_node, "join", Msg::Join1 { ct }.to_bytes());
    }

    /// Starts the 6-step rejoin protocol toward `to` (rejoin step 1).
    ///
    /// Requires a ticket from a previous join. Returns `false` without
    /// sending anything when no ticket is held.
    pub fn start_rejoin(&mut self, ctx: &mut Context<'_>, to: NodeId) -> bool {
        let Some(ticket) = &self.ticket else {
            return false;
        };
        let Some(key) = self
            .directory
            .by_node(to.index() as u32)
            .and_then(|info| RsaPublicKey::from_bytes(&info.pubkey).ok())
        else {
            return false;
        };
        let nonce_cb = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.u64(nonce_cb).raw(self.device.as_bytes()).bytes(ticket);
        // Leaving the old multicast group models the member moving away.
        self.end_session(ctx);
        self.start_clocks(ctx);
        let Some(ct) = self.node_keys.seal(ctx, &key, &w.into_bytes()) else {
            return false;
        };
        self.timings.rejoin_started = Some(ctx.now());
        let (since, target, step) = (ctx.now(), Controller { node: to, key }, RejoinStep::Await2 { nonce_cb });
        self.phase = Phase::Rejoining { since, cursor: 0, target, step };
        ctx.send(to, "rejoin", Msg::Rejoin1 { ct }.to_bytes());
        true
    }

    /// Announces a voluntary departure to the AC (Section III-D) and
    /// drops all group state except the ticket (which remains valid for
    /// a later rejoin within the membership period — the ski-pass
    /// model).
    ///
    /// Returns `false` when not currently a member.
    pub fn leave(&mut self, ctx: &mut Context<'_>) -> bool {
        let Phase::Active(session) = &self.phase else {
            return false;
        };
        let mut w = Writer::new();
        w.u64(session.client.0).u64(ctx.rng().next_u64());
        if let Some(ct) = self.node_keys.seal(ctx, &session.ac.key, &w.into_bytes()) {
            // Reliable: a silently lost leave means the AC keeps paying
            // rekey cost for a departed member until eviction kicks in.
            ctx.send_reliable(session.ac.node, "leave", Msg::LeaveRequest { ct }.to_bytes());
        }
        self.end_session(ctx);
        self.last_ac = None;
        ctx.stats().bump("member-voluntary-leaves", 1);
        true
    }

    /// Multicasts application data: encrypts under a fresh random key
    /// `K_r`, seals `K_r` under the area key, and hands the packet to
    /// the AC (which rekeys if needed and forwards — Section III-E).
    ///
    /// Returns `false` when the member is not active.
    pub fn send_data(&mut self, ctx: &mut Context<'_>, payload: &[u8]) -> bool {
        let Phase::Active(session) = &mut self.phase else {
            return false;
        };
        let Some(area_key) = session.keys.area_key() else {
            return false;
        };
        let k_r = SymmetricKey::random(ctx.rng());
        let mut ciphertext = payload.to_vec();
        Rc4::new(k_r.as_bytes()).apply_keystream(&mut ciphertext);
        self.node_keys.charge_symmetric(ctx, 1);
        let wrapped = envelope::seal(&area_key, k_r.as_bytes(), ctx.rng());
        let seq = self.next_seq;
        self.next_seq += 1;
        session.last_sent = ctx.now();
        let data = Msg::Data {
            origin: session.client,
            seq,
            wrapped_key: wrapped,
            payload: ciphertext,
        };
        ctx.send(session.ac.node, "data", data.to_bytes());
        true
    }

    // ---- message handlers ----

    fn handle_join2(&mut self, ctx: &mut Context<'_>, ct: &[u8]) {
        let Phase::Joining { since, step } = &mut self.phase else { return };
        let JoinStep::Await2 { nonce_cw } = *step else { return };
        let Some(ct3) = answer_challenge(&self.node_keys, ctx, ct, nonce_cw, &self.rs_pub) else {
            return;
        };
        (*since, *step) = (ctx.now(), JoinStep::Await5);
        ctx.send(self.rs_node, "join", Msg::Join3 { ct: ct3 }.to_bytes());
    }

    fn handle_join5(&mut self, ctx: &mut Context<'_>, ct: &[u8], sig: &[u8]) {
        let Phase::Joining { step: JoinStep::Await5, .. } = self.phase else {
            return;
        };
        let Some(plain) = self.node_keys.open_signed(ctx, &self.rs_pub, ct, sig) else {
            return;
        };
        let Some((nonce_ac_1, ac_node, ac_pub, dir)) = wire::parse(&plain, |r| {
            let nonce = r.u64()?;
            let _area = r.u32()?;
            Ok((nonce, r.u32()?, r.bytes()?, AcDirectory::read(r)?))
        }) else {
            return;
        };
        let Ok(key) = RsaPublicKey::from_bytes(ac_pub) else {
            return;
        };
        let ac = Controller { node: NodeId::from_index(ac_node as usize), key };
        self.last_ac = Some(ac.node);
        self.directory = dir;
        // Step 6 → AC: {Nonce_AC + 2, Nonce_CA, device id}. The device
        // id (NIC MAC) rides along so the AC can bind the ticket to the
        // member's hardware (Section IV-B).
        let nonce_ca = ctx.rng().next_u64();
        let mut w = Writer::new();
        w.u64(nonce_ac_1.wrapping_add(1))
            .u64(nonce_ca)
            .raw(self.device.as_bytes());
        let Some(ct6) = self.node_keys.seal(ctx, &ac.key, &w.into_bytes()) else {
            return;
        };
        let to = ac.node;
        let step = JoinStep::Await7 { nonce_ca, ac, stashed: Vec::new() };
        self.phase = Phase::Joining { since: ctx.now(), step };
        ctx.send(to, "join", Msg::Join6 { ct: ct6 }.to_bytes());
    }

    /// Completes the handshake in flight with the session `welcome`
    /// describes, keyed to the handshake's controller, with the paths
    /// that overtook the welcome replayed on top. The session was last
    /// sent to when the handshake's last step was.
    fn admit(&mut self, ctx: &mut Context<'_>, welcome: Welcome) {
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        let (Phase::Joining { since, step: JoinStep::Await7 { ac, stashed, .. } }
        | Phase::Rejoining { since, target: ac, step: RejoinStep::Await6 { stashed }, .. }) = phase
        else {
            self.phase = phase;
            return;
        };
        let mut keys = KeyState::at(welcome.epoch, &welcome.path);
        for path in &stashed {
            keys.install_path(path);
        }
        let group = GroupId::from_index(welcome.group_raw as usize);
        let node = NodeId::from_index(welcome.ac_node as usize);
        let standby = (welcome.backup_node != u32::MAX)
            .then(|| RsaPublicKey::from_bytes(&welcome.backup_pubkey).ok())
            .flatten();
        self.ticket = Some(welcome.ticket);
        self.last_ac = Some(node);
        let session = Session {
            client: welcome.client,
            area: welcome.area,
            group,
            ac: Controller { node, key: ac.key },
            standby,
            expires: Time::from_micros(welcome.valid_until_us),
            keys,
            last_heard: ctx.now(),
            last_sent: since,
            last_refresh: None,
        };
        self.phase = Phase::Active(session);
        ctx.join_group(group);
    }

    fn handle_join7(&mut self, ctx: &mut Context<'_>, ct: &[u8]) {
        let Phase::Joining { step: JoinStep::Await7 { nonce_ca, .. }, .. } = self.phase else {
            return;
        };
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        let Ok(welcome) = Welcome::from_bytes(&plain) else {
            return;
        };
        if welcome.nonce_echo != nonce_ca.wrapping_add(1) {
            return;
        }
        self.admit(ctx, welcome);
        self.timings.join_completed = Some(ctx.now());
        ctx.stats().bump("member-joins", 1);
    }

    fn handle_rejoin2(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Phase::Rejoining { since, target, step, .. } = &mut self.phase else { return };
        let RejoinStep::Await2 { nonce_cb } = *step else { return };
        if from != target.node {
            return;
        }
        let Some(ct3) = answer_challenge(&self.node_keys, ctx, ct, nonce_cb, &target.key) else {
            return;
        };
        (*since, *step) = (ctx.now(), RejoinStep::Await6 { stashed: Vec::new() });
        ctx.send(from, "rejoin", Msg::Rejoin3 { ct: ct3 }.to_bytes());
    }

    fn handle_rejoin6(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8], sig: &[u8]) {
        let Phase::Rejoining { target, step: RejoinStep::Await6 { .. }, .. } = &self.phase else {
            return;
        };
        if from != target.node {
            return;
        }
        let Some(plain) = self.node_keys.open_signed(ctx, &target.key, ct, sig) else {
            return;
        };
        let Ok(welcome) = Welcome::from_bytes(&plain) else {
            return;
        };
        self.admit(ctx, welcome);
        self.timings.rejoin_completed = Some(ctx.now());
        ctx.stats().bump("member-rejoins", 1);
    }

    fn handle_rejoin_denied(&mut self, ctx: &mut Context<'_>, from: NodeId, reason: RejoinDenyReason) {
        match &self.phase {
            // Our controller evicted us while we were unreachable (or a
            // promoted replica never knew us): its beacons look alive
            // but every key refresh is refused. The session is dead —
            // re-authenticate with the ticket, or re-register when the
            // rejoin cannot start.
            Phase::Active(session)
                if reason == RejoinDenyReason::NotMember && self.auto && from == session.ac.node =>
            {
                ctx.stats().bump("member-session-invalidated", 1);
                if !self.start_rejoin(ctx, from) {
                    self.start_join(ctx);
                }
            }
            Phase::Rejoining { .. } => {
                self.phase = Phase::Denied(reason);
                ctx.stats().bump("member-rejoin-denied", 1);
                // An expired/garbled ticket cannot be fixed by retrying:
                // fall back to full registration.
                if self.auto && reason == RejoinDenyReason::BadTicket {
                    self.ticket = None;
                    ctx.stats().bump("member-reregistrations", 1);
                    self.start_join(ctx);
                }
            }
            Phase::Idle | Phase::Joining { .. } | Phase::Active(_) | Phase::Denied(_) => {}
        }
    }

    fn handle_key_update(
        &mut self,
        ctx: &mut Context<'_>,
        area: AreaId,
        epoch: u64,
        body: &[u8],
        sig: &[u8],
    ) {
        let Phase::Active(session) = &mut self.phase else { return };
        if session.area != area {
            return;
        }
        let (node_keys, signer, keys) = (&self.node_keys, &session.ac.key, &mut session.keys);
        if receive_key_update(ctx, node_keys, signer, keys, area, epoch, body, sig) {
            self.request_key_refresh(ctx);
        }
    }

    /// Asks the controller for a fresh path, at most once per `T_idle`.
    /// The refresh stays owed until a path arrives, so a request the
    /// limit holds back, or one that is lost, is asked again at the
    /// controller's next beacon or the next missed update.
    fn request_key_refresh(&mut self, ctx: &mut Context<'_>) {
        let Phase::Active(session) = &mut self.phase else { return };
        let now = ctx.now();
        if session.last_refresh.is_some_and(|t| now.since(t) < self.cfg.t_idle) {
            return;
        }
        session.last_refresh = Some(now);
        session.last_sent = now;
        session.keys.overtaken = false;
        ctx.stats().bump("member-key-refreshes", 1);
        let client = session.client;
        ctx.send(session.ac.node, "key-unicast", Msg::KeyRefreshRequest { client }.to_bytes());
    }

    fn handle_key_unicast(&mut self, ctx: &mut Context<'_>, from: NodeId, ct: &[u8]) {
        let Some(plain) = self.node_keys.open(ctx, ct) else { return };
        let Ok(path) = decode_path(&plain) else { return };
        match &mut self.phase {
            // Only our controller's paths count: a primary that
            // restarts after its backup took over re-issues every path
            // of the tree it recovered, and installing those would put
            // this member on keys the area no longer uses. A path from
            // our controller answers whatever was asked of it before.
            Phase::Active(session) if from == session.ac.node => session.keys.settle(&path),
            // Mid-handshake with this controller: the welcome is still
            // in flight; stash so it is not clobbered by the (stale)
            // welcome path.
            Phase::Joining { step: JoinStep::Await7 { ac, stashed, .. }, .. }
            | Phase::Rejoining { target: ac, step: RejoinStep::Await6 { stashed }, .. }
                if from == ac.node =>
            {
                stashed.push(path);
            }
            Phase::Idle | Phase::Joining { .. } | Phase::Rejoining { .. } | Phase::Active(_) | Phase::Denied(_) => {}
        }
    }

    fn handle_data(&mut self, ctx: &mut Context<'_>, wrapped: &[u8], payload: &[u8]) {
        // Try the current area key first, then recently superseded ones
        // (a rotation multicast can be reordered with data by jitter).
        self.node_keys.charge_symmetric(ctx, 1);
        let opened = self.session().and_then(|s| {
            s.keys.area_keys_with_history().find_map(|k| envelope::open(k, wrapped).ok())
        });
        let Some(kr_bytes) = opened else {
            self.decrypt_failures += 1;
            if let Phase::Active(session) = &mut self.phase {
                session.keys.fall_behind(session.keys.epoch);
                self.request_key_refresh(ctx);
            }
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

    /// Our controller's alive beacon. (A primary that restarts after
    /// its backup took over beacons too, from a recovery-fenced epoch,
    /// until it is demoted; only the session's controller counts.)
    fn handle_alive(&mut self, ctx: &mut Context<'_>, from: NodeId, area: AreaId, epoch: u64) {
        let Phase::Active(session) = &mut self.phase else { return };
        // A newer epoch means we missed a key-update multicast; the
        // area has also gone quiet, so a refresh still owed is due now.
        if from == session.ac.node && area == session.area && session.keys.beacon(epoch) {
            self.request_key_refresh(ctx);
        }
    }

    fn handle_takeover(&mut self, ctx: &mut Context<'_>, area: AreaId, sig: &[u8], from: NodeId) {
        let Phase::Active(session) = &mut self.phase else { return };
        if session.area != area {
            return;
        }
        // The keys trade places only once the standby's signature checks
        // out.
        let Some(standby) = session.standby.take_if(|standby| {
            self.node_keys.verify(ctx, standby, &takeover_signed_bytes(area), sig)
        }) else {
            return;
        };
        // The standby is now our AC, and the controller it replaced
        // stands by for the next takeover.
        let pubkey = standby.to_bytes();
        let replaced = std::mem::replace(&mut session.ac, Controller { node: from, key: standby });
        session.standby = Some(replaced.key);
        session.last_heard = ctx.now();
        self.last_ac = Some(from);
        // Keep the cached directory pointing at the live controller, so
        // a later ticket rejoin toward this area resolves its key.
        self.directory.upsert(crate::directory::AcInfo {
            area,
            node: from.index() as u32,
            pubkey,
        });
        session.keys.restart_lineage();
        self.request_key_refresh(ctx);
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
            let mut cursor = if let Phase::Rejoining { cursor, .. } = self.phase { cursor } else { 0 };
            while let Some(entry) = self.directory.entries.get(cursor) {
                let target = NodeId::from_index(entry.node as usize);
                cursor += 1;
                if self.start_rejoin(ctx, target) {
                    if let Phase::Rejoining { cursor: next, .. } = &mut self.phase {
                        *next = cursor;
                    }
                    return;
                }
            }
        }
        self.start_join(ctx);
    }

    fn on_disconnect_detected(&mut self, ctx: &mut Context<'_>, current: NodeId) {
        self.disconnects_detected += 1;
        ctx.stats().bump("member-disconnects", 1);
        if !self.auto {
            return;
        }
        // Pick another AC from the directory (not the current one).
        let current = current.index() as u32;
        let target = self.directory.entries.iter().find(|e| e.node != current).map(|e| e.node);
        if let Some(t) = target {
            self.start_rejoin(ctx, NodeId::from_index(t as usize));
        }
    }

    /// The `T_idle` check: an expired subscription re-registers, a
    /// silent controller is left for another, a stuck handshake is
    /// retried.
    fn check_liveness(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        match &self.phase {
            // Subscription expiry: re-register through the RS (the
            // ticket is no longer honored anywhere).
            Phase::Active(session) if self.auto && now > session.expires => {
                self.ticket = None;
                ctx.stats().bump("member-reregistrations", 1);
                self.start_join(ctx);
            }
            Phase::Active(session)
                if now.since(session.last_heard) >= self.cfg.member_disconnect_after() =>
            {
                let current = session.ac.node;
                self.on_disconnect_detected(ctx, current);
            }
            // A join/rejoin handshake pending past the retry threshold
            // (an unreachable counterpart, a lost message, ...).
            Phase::Joining { since, .. } | Phase::Rejoining { since, .. }
                if self.auto
                    && now.since(*since) >= self.cfg.member_disconnect_after().saturating_mul(2) =>
            {
                self.retry_handshake(ctx);
            }
            Phase::Idle | Phase::Joining { .. } | Phase::Rejoining { .. } | Phase::Active(_) | Phase::Denied(_) => {}
        }
    }
}

impl Node for Member {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.auto {
            self.start_join(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Ok(msg) = Msg::from_bytes(bytes) else {
            return;
        };
        if let Phase::Active(session) = &mut self.phase {
            if from == session.ac.node {
                session.last_heard = ctx.now();
            }
        }
        match msg {
            Msg::Join2 { ct } => self.handle_join2(ctx, &ct),
            Msg::Join5 { ct, sig } => self.handle_join5(ctx, &ct, &sig),
            Msg::Join7 { ct } => self.handle_join7(ctx, &ct),
            Msg::Rejoin2 { ct } => self.handle_rejoin2(ctx, from, &ct),
            Msg::Rejoin6 { ct, sig } => self.handle_rejoin6(ctx, from, &ct, &sig),
            Msg::RejoinDenied { reason } => self.handle_rejoin_denied(ctx, from, reason),
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
            Msg::AcAlive { area, epoch } => self.handle_alive(ctx, from, area, epoch),
            Msg::Takeover { area, sig, .. } => self.handle_takeover(ctx, area, &sig, from),
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
        // the session), the cached AC directory and the last-known
        // controller's address, and the data-plane sequence counter
        // (persisted so the ACs' replay dedup stays sound across a
        // restart). The phase — session keys, handshake state, the
        // group subscription — dies with the process: forward secrecy
        // means none of it can be trusted after an outage anyway.
        self.phase = Phase::Idle;
        self.timers = PendingTimers::default();
    }

    fn on_restarted(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().bump("member-restarts", 1);
        if !self.auto {
            // Manually driven members never self-initiate a handshake;
            // the harness decides how the wiped client comes back.
            return;
        }
        // Re-enter the group with the durable ticket: rejoin the
        // last-known controller, or fall back to a full registration
        // when no ticket/controller survives.
        if !self.last_ac.is_some_and(|ac| self.start_rejoin(ctx, ac)) {
            self.start_join(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(timer) = Timer::fired(&mut self.timers, tag) else {
            return;
        };
        let period = match timer {
            Timer::Alive => {
                if let Phase::Active(session) = &mut self.phase {
                    if ctx.now().since(session.last_sent) >= self.cfg.t_active {
                        session.last_sent = ctx.now();
                        let alive = Msg::MemberAlive { client: session.client };
                        ctx.send(session.ac.node, "alive", alive.to_bytes());
                    }
                }
                self.cfg.t_active
            }
            Timer::Disconnect => {
                self.check_liveness(ctx);
                self.cfg.t_idle
            }
        };
        if self.clocks_run() {
            timer.arm(&mut self.timers, ctx, period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AreaController;
    use crate::group::{GroupBuilder, GroupHandle};
    use crate::rekey::tests::{path_to, signed_update};

    /// The group `b` builds, with one manual member joined.
    fn joined(b: GroupBuilder) -> (GroupHandle, NodeId) {
        let mut g = b.build();
        let m = g.register_member_manual(1);
        g.sim.invoke(m, |m: &mut Member, ctx| m.start_join(ctx));
        g.settle();
        (g, m)
    }

    /// The session's keys of an active member.
    fn keys(m: &Member) -> &KeyState {
        &m.session().expect("an active member").keys
    }

    fn requests(g: &GroupHandle) -> u64 {
        g.stats().counter("member-key-refreshes")
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
        assert_eq!(g.member(m).session().map(|s| s.ac.node), Some(backup), "a valid announcement repoints the member");
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
    /// rate limit and nothing asked again. It is owed until a path
    /// arrives, and the controller's next beacon asks. And only the
    /// member's own controller counts: a primary that restarts after its
    /// backup took over beacons from a recovery-fenced epoch, and
    /// re-issues every path of the tree it recovered.
    #[test]
    fn a_rate_limited_refresh_is_owed_and_foreign_beacons_are_ignored() {
        let (mut g, m) = joined(GroupBuilder::new(65).areas(2));
        let (area, controller, stranger) = (g.ac(0).area(), g.primaries[0], g.primaries[1]);
        let signer = g.ac(0).node_keys.keypair().clone();
        let (before, epoch) = (requests(&g), keys(g.member(m)).epoch);

        let beacon = Msg::AcAlive { area, epoch: epoch + 1000 }.to_bytes();
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, stranger, &beacon));
        assert_eq!((keys(g.member(m)).epoch, keys(g.member(m)).owed, requests(&g)), (epoch, None, before));

        let stale = SymmetricKey::from_label("a tree the area left behind");
        let unicast = path_to(g.member(m).node_keys.public(), &stale);
        let held = g.member(m).current_area_key();
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, stranger, &unicast));
        assert_eq!(g.member(m).current_area_key(), held, "a stranger's path was installed");
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, controller, &unicast));
        assert_eq!(g.member(m).current_area_key(), Some(stale), "the controller's path was not");

        // Sealed under a key the member never held.
        let lost = SymmetricKey::from_label("lost");
        for step in [1, 2] {
            let (body, sig) = signed_update(area, epoch + step, &lost, &lost, &signer);
            g.sim.invoke(m, |m: &mut Member, ctx| m.handle_key_update(ctx, area, epoch + step, &body, &sig));
            assert_eq!(requests(&g), before + 1, "update {step}");
            // The first request is answered; the second update is later.
            g.run_for(Duration::from_millis(10));
        }
        assert!(keys(g.member(m)).owed.is_some());
        g.run_for(Duration::from_millis(300));
        assert_eq!(requests(&g), before + 2, "the beacon of {controller:?} collects the debt");
        assert!(keys(g.member(m)).owed.is_none());
        assert_eq!(g.member(m).current_area_key(), Some(g.ac(0).area_key()));
    }

    /// A beacon ahead of the keys only marks them behind: it never moves
    /// the epoch, which used to leave the member at an epoch it held no
    /// key for (soak seed 668). A request that is lost stays owed; it
    /// used to be forgotten once sent. And a path that answers a request
    /// an update has since overtaken may predate that update: it settles
    /// nothing, and the next beacon asks again (soak seed 202).
    #[test]
    fn a_beacon_marks_the_keys_behind_until_a_fresh_path_arrives() {
        let (mut g, m) = joined(GroupBuilder::new(67).areas(2));
        let (area, controller) = (g.ac(0).area(), g.primaries[0]);
        let signer = g.ac(0).node_keys.keypair().clone();
        let (before, at) = (requests(&g), keys(g.member(m)).epoch);
        let old = g.member(m).current_area_key().expect("joined");

        // A beacon ahead: the member asks, and its request is held up.
        g.sim.cut_link(m, controller);
        let ahead = Msg::AcAlive { area, epoch: at + 1 }.to_bytes();
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, controller, &ahead));
        assert_eq!((keys(g.member(m)).epoch, requests(&g)), (at, before + 1));
        // An update applies on the keys held ...
        let new = SymmetricKey::from_label("new");
        let (body, sig) = signed_update(area, at + 2, &old, &new, &signer);
        g.sim.invoke(m, |m: &mut Member, ctx| m.handle_key_update(ctx, area, at + 2, &body, &sig));
        assert_eq!(g.member(m).current_area_key(), Some(new));
        // ... and the path answering the request predates it.
        let unicast = path_to(g.member(m).node_keys.public(), &old);
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, controller, &unicast));
        assert_eq!(g.member(m).current_area_key(), Some(old));
        assert!(keys(g.member(m)).owed.is_some(), "an overtaken path settled the refresh");
        g.sim.restore_link(m, controller);
        g.run_for(Duration::from_millis(200));
        assert_eq!(requests(&g), before + 2, "nothing asked again");
        assert!(keys(g.member(m)).owed.is_none());
        assert_eq!(g.member(m).current_area_key(), Some(g.ac(0).area_key()));
    }

    /// A takeover replaces the refresh owed instead of raising it: a
    /// debt at an epoch of the replaced controller (here its fenced
    /// beacon) used to survive, the new controller's path lifted the
    /// keys to it, and the new lineage's updates were "no newer".
    #[test]
    fn a_takeover_replaces_the_refresh_owed_in_the_old_lineage() {
        let (mut g, m) = joined(GroupBuilder::new(68).replicated(true));
        let (area, primary, backup) = (g.ac(0).area(), g.primaries[0], g.backups[0]);
        let signer = g.backup(0).node_keys.keypair().clone();
        let (at, held) = (keys(g.member(m)).epoch, g.member(m).current_area_key().expect("joined"));
        let fenced = Msg::AcAlive { area, epoch: at + (1 << 20) }.to_bytes();
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, primary, &fenced));
        let sig = signer.sign(&takeover_signed_bytes(area));
        g.sim.invoke(m, |m: &mut Member, ctx| m.handle_takeover(ctx, area, &sig, backup));
        let unicast = path_to(g.member(m).node_keys.public(), &held);
        g.sim.invoke(m, |m: &mut Member, ctx| m.on_message(ctx, backup, &unicast));
        assert!(keys(g.member(m)).owed.is_none());
        let new = SymmetricKey::from_label("the new lineage's next key");
        let (body, sig) = signed_update(area, at + 1, &held, &new, &signer);
        g.sim.invoke(m, |m: &mut Member, ctx| m.handle_key_update(ctx, area, at + 1, &body, &sig));
        assert_eq!(g.member(m).current_area_key(), Some(new), "the new controller's update was dropped");
    }

    /// One receiver serves a member and a child controller (which *is*
    /// a member of its parent area): a next-epoch update applies, a
    /// skipped epoch applies and owes a refresh, an older one is
    /// ignored, and a forged one changes nothing.
    #[test]
    fn member_and_child_controller_share_the_key_update_receiver() {
        let (mut g, m) = joined(GroupBuilder::new(64).areas(2));
        let (area, child) = (g.ac(0).area(), g.primaries[1]);
        assert_eq!(g.member(m).area(), Some(area));
        let parent = g.ac(0).node_keys.keypair().clone();

        let drive = |ctx: &mut Context<'_>, node_keys: &NodeKeys, keys: &mut KeyState| {
            let start = keys.epoch;
            let k0 = keys.area_key().expect("holds area 0's key");
            let [k1, k2, k3] = ["k1", "k2", "k3"].map(SymmetricKey::from_label);
            let mut receive = |old: &SymmetricKey, new: &SymmetricKey, epoch: u64, signer: &RsaKeyPair| {
                let (body, sig) = signed_update(area, epoch, old, new, signer);
                let refresh = receive_key_update(ctx, node_keys, parent.public(), keys, area, epoch, &body, &sig);
                (refresh, keys.epoch, keys.owed.is_some(), keys.area_key())
            };
            assert_eq!(receive(&k0, &k1, start + 1, &parent), (false, start + 1, false, Some(k1.clone())));
            let forger = node_keys.keypair();
            assert_eq!(receive(&k1, &k3, start + 2, forger), (false, start + 1, false, Some(k1.clone())));
            assert_eq!(receive(&k1, &k2, start + 3, &parent), (true, start + 3, true, Some(k2.clone())));
            assert_eq!(receive(&k2, &k3, start + 2, &parent), (false, start + 3, true, Some(k2.clone())));
        };
        g.sim.invoke(m, |m: &mut Member, ctx| {
            let Phase::Active(session) = &mut m.phase else { panic!("the member is active") };
            drive(ctx, &m.node_keys, &mut session.keys)
        });
        g.sim.invoke(child, |ac: &mut AreaController, ctx| drive(ctx, &ac.node_keys, &mut ac.parent_keys));
    }

    /// A departed member's clocks stop: once each kind has fired after
    /// the leave, none is queued. They used to re-arm for ever.
    #[test]
    fn a_departed_member_arms_nothing() {
        let mut g = GroupBuilder::new(66).build();
        let m = g.register_member(1);
        g.settle();
        assert_ne!(g.member(m).timers.0, 0);
        assert!(g.sim.invoke(m, |m: &mut Member, ctx| m.leave(ctx)));
        g.run_for(Duration::from_secs(1));
        assert!(!g.is_member(m));
        assert_eq!(g.member(m).timers.0, 0, "a departed member still arms timers");
    }
}
