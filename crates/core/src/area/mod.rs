//! The area controller — Mykil's workhorse node.
//!
//! An area controller (AC) owns one area: it manages the area's
//! auxiliary-key tree, admits members (join step 7 and the rejoin
//! protocol), batches and multicasts key updates, forwards multicast
//! data up and down the area hierarchy, detects and evicts dead
//! members, re-parents itself when its parent area fails, and
//! synchronizes a backup replica (Sections III and IV of the paper).
//!
//! The implementation is split by concern:
//!
//! - `join` — handling join steps 4 and 6, admission, welcomes
//! - `rejoin` — the six-step rejoin protocol (both AC roles)
//! - `rekey_flow` — join-update buffering, leave batching, flushes
//! - `data` — data-plane forwarding (Figure 2)
//! - `liveness` — alive messages, eviction, parent failover
//! - `replication` — primary-backup state sync and takeover

// `Msg` dispatch lists every variant, so a new wire message does not
// compile until each role triages it.
#![cfg_attr(
    not(test),
    warn(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

mod data;
mod join;
mod liveness;
mod persist;
mod rejoin;
mod rekey_flow;
mod replication;

use crate::config::{BatchPolicy, MykilConfig};
use crate::crypto_cost::CryptoCost;
use crate::directory::AcDirectory;
use crate::durable::{SyncPosition, RECOVERY_EPOCH_JUMP};
use crate::identity::{AreaId, ClientId, DeviceId};
use crate::msg::{Msg, RejoinDenyReason};
use crate::node_keys::NodeKeys;
use crate::rekey::KeyState;
use crate::timer::PendingTimers;
use mykil_crypto::envelope::EnvelopeKey;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use mykil_net::{Context, GroupId, MsgToken, Node, NodeId, SecretBytes, Time};
use mykil_tree::{AreaTree, MemberId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub use persist::AcDurable;
pub(crate) use persist::BAD_CHECKPOINT;
pub(crate) use replication::AreaImage;

crate::timer::timer_kinds! {
    /// The controller's clocks (Section IV-A and IV-C). Each belongs to
    /// one role; `on_timer` checks the role per kind.
    enum Timer {
        /// Primary: multicast `alive` to the area every `T_idle`.
        IdleAlive = 1,
        /// Primary: evict members silent for too long.
        Sweep = 2,
        /// Primary: the periodic (freshness) rekey.
        Rekey = 3,
        /// Primary: heartbeat the peer.
        Heartbeat = 4,
        /// Backup: watch the primary's heartbeats, take over when they stop.
        BackupWatch = 5,
        /// Primary: check the parent area is still alive.
        ParentCheck = 6,
    }
}

/// Tree member ids for ACs enrolled in parent areas live above this
/// base so they can never collide with client ids.
pub const AC_MEMBER_BASE: u64 = 1 << 48;

/// Whether this node currently runs the area or stands by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Active controller.
    Primary,
    /// Replica synchronized from the pair's other node (Section IV-C).
    Backup,
}

/// A member as the AC sees it.
#[derive(Debug, Clone)]
pub(crate) struct MemberRecord {
    pub node: NodeId,
    pub pubkey: RsaPublicKey,
    pub device: Option<DeviceId>,
    pub valid_until: Time,
    pub last_heard: Time,
}

/// A client admitted by the RS (join step 4) awaiting its step 6.
#[derive(Debug)]
pub(crate) struct PendingAdmission {
    pub client: ClientId,
    pub pubkey: RsaPublicKey,
    pub valid_until: Time,
}

/// Rejoin handshake state at the new AC.
#[derive(Debug)]
pub(crate) struct PendingRejoin {
    pub client: ClientId,
    pub pubkey: RsaPublicKey,
    pub device: DeviceId,
    pub ticket_device: DeviceId,
    pub valid_until: Time,
    pub nonce_bc: u64,
    /// The previous controller (node), from the ticket.
    pub prev_ac: u32,
    pub stage: RejoinStage,
    pub deadline: Time,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RejoinStage {
    AwaitStep3,
    AwaitPrevAc,
}

/// Link to the parent area (the AC is a member there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentLink {
    /// The parent controller's address.
    pub node: NodeId,
    /// The parent's area.
    pub area: AreaId,
    /// The parent area's multicast group.
    pub group: GroupId,
}

/// Static deployment configuration for one controller.
#[derive(Debug, Clone)]
pub struct AcDeployment {
    /// The area this controller manages.
    pub area: AreaId,
    /// The area's multicast group.
    pub group: GroupId,
    /// Initial parent link, if not the root area.
    pub parent: Option<ParentLink>,
    /// Primary/backup role. A deployed primary's peer is its area's row
    /// in `backups`, a deployed backup's its area's row in `directory`.
    pub role: Role,
    /// Registration server address (takeover notifications).
    pub rs_node: NodeId,
    /// Directory of all (primary) ACs — the paper assumes controllers
    /// know one another's public keys.
    pub directory: AcDirectory,
    /// Directory of backup controllers (area → backup node + key): with
    /// `directory`, each area's controller pair.
    pub backups: AcDirectory,
    /// Preferred alternative parents for failover, in order.
    pub preferred_parents: Vec<ParentLink>,
}

/// Operation counters exposed for tests and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcStats {
    /// Members admitted through the join protocol.
    pub joins_admitted: u64,
    /// Members admitted through the rejoin protocol.
    pub rejoins_admitted: u64,
    /// Rejoins denied (any reason).
    pub rejoins_denied: u64,
    /// Members evicted by the failure detector or expiry.
    pub evictions: u64,
    /// Key-update multicasts sent.
    pub rekeys: u64,
    /// Data packets forwarded.
    pub data_forwarded: u64,
    /// Takeovers performed (backup role only).
    pub takeovers: u64,
    /// Demotions accepted after a split-brain heal (primary role only).
    pub demotions: u64,
    /// Parent switches performed.
    pub parent_switches: u64,
}

/// The area controller node (primary or backup).
pub struct AreaController {
    pub(crate) cfg: MykilConfig,
    pub(crate) node_keys: NodeKeys,
    pub(crate) rs_pub: RsaPublicKey,
    /// `K_shared`, held prepared: it seals or opens a ticket on every
    /// join and rejoin.
    pub(crate) k_shared: EnvelopeKey,
    /// The deployment record: read-only at run time, it models the
    /// on-disk configuration a crashed node reads back at boot.
    pub(crate) deploy: AcDeployment,
    /// Seed the deployment-time key tree was drawn from, kept so a
    /// crash-wipe can rebuild the same pristine tree before recovery
    /// replays storage on top of it.
    pub(crate) tree_seed: u64,
    /// The other controller of this area's pair and its deployment key,
    /// if replicated: resolved once, from the deployment record.
    pub(crate) peer: Option<(NodeId, RsaPublicKey)>,
    /// Everything a checkpoint plus a WAL suffix reproduce; every other
    /// field is volatile (see `persist`).
    pub(crate) durable: AcDurable,

    pub(crate) pending_admissions: BTreeMap<u64, PendingAdmission>,
    pub(crate) pending_rejoins: BTreeMap<NodeId, PendingRejoin>,

    // Batching state (Section III-E).
    pub(crate) update_needed: bool,
    /// node → its key value before the first buffered join update.
    pub(crate) buffered_join_updates: BTreeMap<u32, SymmetricKey>,
    /// Members "whose path may have changed" — the paper refreshes them
    /// by unicast at flush time. Value = the rekey epoch at admission;
    /// a newcomer is refreshed at the first flush *after* its admission
    /// flush, covering the window before it subscribed to the area
    /// multicast.
    pub(crate) recorded_members: BTreeMap<ClientId, u64>,

    // Hierarchy state.
    /// This controller's keys in its parent area's tree, at the parent
    /// epoch they reach. Volatile: the enrolment that follows recovery
    /// or a takeover rekeys the path.
    pub(crate) parent_keys: KeyState,
    pub(crate) last_heard_parent: Time,
    /// In-flight parent switch/enrollment: the only node whose
    /// `AreaJoinAck` will be accepted, plus the reliable-send token of
    /// the outstanding request (replay/impostor hardening).
    pub(crate) pending_parent_join: Option<(NodeId, MsgToken)>,
    /// Rotation cursor into `deploy.preferred_parents` so consecutive
    /// switch attempts try different candidates.
    pub(crate) parent_switch_cursor: usize,

    // Data plane.
    /// Recently superseded area keys (own tree), for unwrapping data
    /// sealed just before a rotation.
    pub(crate) prev_area_keys: VecDeque<SymmetricKey>,
    pub(crate) seen_data: BTreeSet<(u64, u64)>,
    pub(crate) seen_order: VecDeque<(u64, u64)>,
    pub(crate) last_area_mcast: Time,

    // Replication.
    pub(crate) repl_key: EnvelopeKey,
    /// The highest takeover epoch heard from the peer since start-up: a
    /// takeover claims one above both it and this node's own.
    pub(crate) heard_epoch: u64,
    pub(crate) last_heartbeat: Time,
    /// Records committed since the last checkpoint: what a recovery
    /// would replay. Past `CHECKPOINT_WAL_RECORDS` the log is compacted.
    pub(crate) wal_records: usize,
    /// Records that changed the area since the position the backup last
    /// acknowledged or the image last shipped, oldest first (primary
    /// role), each with the position it follows; the newest one leads to
    /// `durable.position`. Each holds its seed.
    pub(crate) sync_backlog: VecDeque<(SyncPosition, SecretBytes)>,
    /// The backup must adopt a full image before records mean anything
    /// to it: set whenever it (re)attaches or reports a position this
    /// node never held, cleared when the image is shipped. While set,
    /// nothing is queued in `sync_backlog`.
    pub(crate) image_owed: bool,
    /// The position the backup last reported, when this node held it.
    pub(crate) acked: Option<SyncPosition>,
    /// The sequence shipped so far: the next sync ships the backlog's
    /// records past it.
    pub(crate) shipped: u64,
    /// `shipped` as the previous heartbeat ack was read: an ack that
    /// reports less means something shipped before it was lost.
    pub(crate) shipped_at_ack: u64,
    /// When the backup last acknowledged a heartbeat (primary role).
    pub(crate) last_backup_ack: Time,
    /// Set after `failover_threshold` unacknowledged heartbeats, and by
    /// a takeover; stops `StateSync` traffic to the peer until it acks
    /// a heartbeat as backup again.
    pub(crate) backup_presumed_dead: bool,
    /// Reliable-send token of the outstanding `Demote`, if any.
    pub(crate) pending_demote: Option<MsgToken>,
    /// The timer kinds with a firing queued.
    pub(crate) timers: PendingTimers,

    /// Operation counters.
    pub stats: AcStats,
}

impl std::fmt::Debug for AreaController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AreaController")
            .field("area", &self.deploy.area)
            .field("role", &self.durable.role)
            .field("members", &self.durable.image.members.len())
            .field("epoch", &self.durable.image.epoch)
            .finish_non_exhaustive()
    }
}

impl AreaController {
    /// Creates a controller. The initial tree is empty; the group
    /// builder enrolls child controllers and seeds replication state.
    pub fn new(
        cfg: MykilConfig,
        cost: CryptoCost,
        keypair: RsaKeyPair,
        rs_pub: RsaPublicKey,
        k_shared: SymmetricKey,
        deploy: AcDeployment,
        tree_seed: u64,
    ) -> AreaController {
        let repl_key =
            EnvelopeKey::new(&k_shared.derive(format!("repl-{}", deploy.area.0).as_bytes()));
        let peers = match deploy.role {
            Role::Primary => &deploy.backups,
            Role::Backup => &deploy.directory,
        };
        let peer = peers.by_area(deploy.area).and_then(|info| {
            let key = RsaPublicKey::from_bytes(&info.pubkey).ok()?;
            Some((NodeId::from_index(info.node as usize), key))
        });
        AreaController {
            durable: Self::deployed_state(&cfg, &deploy, tree_seed),
            node_keys: NodeKeys::new(keypair, cost, cfg.rsa_bits),
            cfg,
            rs_pub,
            k_shared: EnvelopeKey::new(&k_shared),
            pending_admissions: BTreeMap::new(),
            pending_rejoins: BTreeMap::new(),
            update_needed: false,
            buffered_join_updates: BTreeMap::new(),
            recorded_members: BTreeMap::new(),
            parent_keys: KeyState::new(),
            last_heard_parent: Time::ZERO,
            pending_parent_join: None,
            parent_switch_cursor: 0,
            prev_area_keys: VecDeque::new(),
            seen_data: BTreeSet::new(),
            seen_order: VecDeque::new(),
            last_area_mcast: Time::ZERO,
            repl_key,
            heard_epoch: 0,
            last_heartbeat: Time::ZERO,
            wal_records: 0,
            sync_backlog: VecDeque::new(),
            image_owed: true,
            acked: None,
            shipped: 0,
            shipped_at_ack: 0,
            last_backup_ack: Time::ZERO,
            backup_presumed_dead: false,
            pending_demote: None,
            timers: PendingTimers::default(),
            stats: AcStats::default(),
            tree_seed,
            peer,
            deploy,
        }
    }

    // ---- accessors for harnesses and tests ----

    /// The area managed by this controller.
    pub fn area(&self) -> AreaId {
        self.deploy.area
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.durable.role
    }

    /// Number of members in the area (child ACs excluded).
    pub fn member_count(&self) -> usize {
        self.durable.image.members.len()
    }

    /// Whether a client is currently a member here.
    pub fn has_member(&self, client: ClientId) -> bool {
        self.durable.image.members.contains_key(&client)
    }

    /// The state a crash would have to reproduce: role, fencing epoch,
    /// replication position, member rows, tree (the invariant checks
    /// compare it with a replay of stable storage).
    pub fn durable(&self) -> &AcDurable {
        &self.durable
    }

    /// The controller's public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.node_keys.public()
    }

    /// The current area key (root of the auxiliary tree).
    pub fn area_key(&self) -> SymmetricKey {
        self.durable.image.tree.area_key()
    }

    /// The auxiliary-key tree (inspection only).
    pub fn tree(&self) -> &AreaTree {
        &self.durable.image.tree
    }

    /// Current rekey epoch.
    pub fn epoch(&self) -> u64 {
        self.durable.image.epoch
    }

    /// The current parent link, if any.
    pub fn parent(&self) -> Option<&ParentLink> {
        self.durable.image.parent.as_ref()
    }

    /// This controller's current view of its parent area's key
    /// (diagnostics and tests).
    pub fn parent_area_key(&self) -> Option<SymmetricKey> {
        self.parent_keys.area_key()
    }

    /// Whether a key-update flush is pending (batching).
    pub fn update_pending(&self) -> bool {
        self.update_needed
    }

    /// Enrolls `child` as a member of this controller's area at
    /// deployment time (before the simulation starts); the child's path
    /// is seeded by [`Self::seed_parent_tree_keys`]. The runtime
    /// equivalent is the signed area-join exchange handled by
    /// `handle_area_join_req`.
    pub fn enroll_child_static<R: rand::RngCore + ?Sized>(
        &mut self,
        child: &AreaController,
        child_node: NodeId,
        rng: &mut R,
    ) {
        self.note_area_key();
        let member = MemberId(AC_MEMBER_BASE + child.deploy.area.0 as u64);
        #[expect(
            clippy::expect_used,
            reason = "deployment-time wiring, not a message handler: duplicate \
                      enrollment is an operator configuration bug worth stopping on"
        )]
        self.durable.image.tree.join(member, rng).expect("child not yet enrolled");
        self.durable.image.child_ac_members.insert(member.0, child_node);
    }

    /// Re-seeds this controller's view of its parent area's keys from
    /// a tree plan's path (deployment-time helper; see
    /// [`Self::enroll_child_static`]).
    pub fn seed_parent_tree_keys(&mut self, path: &[(mykil_tree::NodeIdx, SymmetricKey)]) {
        self.parent_keys.clear();
        self.parent_keys.install_tree_path(path);
    }

    /// Records the current area key before a tree mutation rotates it.
    pub(crate) fn note_area_key(&mut self) {
        let current = self.durable.image.tree.area_key();
        if self.prev_area_keys.front() != Some(&current) {
            self.prev_area_keys.push_front(current);
            self.prev_area_keys.truncate(crate::rekey::AREA_KEY_HISTORY);
        }
    }

    /// All area keys to try when unwrapping own-area data (current
    /// first).
    pub(crate) fn own_area_keys(&self) -> Vec<SymmetricKey> {
        let mut out = Vec::with_capacity(1 + self.prev_area_keys.len());
        out.push(self.durable.image.tree.area_key());
        out.extend(self.prev_area_keys.iter().cloned());
        out
    }

    pub(crate) fn batch_now(&self) -> bool {
        self.cfg.batch_policy == BatchPolicy::Immediate
    }

    /// Looks up an AC's public key in the deployment directory
    /// (primaries first, then backups — a backup that took over signs
    /// with its own key).
    pub(crate) fn directory_pubkey(&self, node: NodeId) -> Option<RsaPublicKey> {
        let raw = node.index() as u32;
        self.deploy
            .directory
            .by_node(raw)
            .or_else(|| self.deploy.backups.by_node(raw))
            .and_then(|info| RsaPublicKey::from_bytes(&info.pubkey).ok())
    }

    /// The pair's other node, if replicated.
    pub(crate) fn peer_node(&self) -> Option<NodeId> {
        self.peer.as_ref().map(|(node, _)| *node)
    }

    /// Restarts the liveness clocks and arms the timers of the current
    /// role: at start-up, after recovery, and whenever the role changes
    /// hands. The other role's timers die on their next firing
    /// (`on_timer` checks the role for each kind). A kind still queued
    /// from an earlier stint in this role keeps that chain: `arm` does
    /// not start a second one.
    pub(crate) fn resume_role(&mut self, ctx: &mut Context<'_>) {
        self.last_heard_parent = ctx.now();
        self.last_heartbeat = ctx.now();
        self.last_backup_ack = ctx.now();
        match self.durable.role {
            Role::Primary => {
                Timer::IdleAlive.arm(&mut self.timers, ctx, self.cfg.t_idle);
                Timer::Sweep.arm(&mut self.timers, ctx, self.cfg.t_active);
                Timer::Rekey.arm(&mut self.timers, ctx, self.cfg.rekey_interval);
                Timer::ParentCheck.arm(&mut self.timers, ctx, self.cfg.t_idle);
                if self.peer.is_some() {
                    Timer::Heartbeat.arm(&mut self.timers, ctx, self.cfg.heartbeat_interval);
                }
            }
            Role::Backup => {
                Timer::BackupWatch.arm(&mut self.timers, ctx, self.cfg.heartbeat_interval);
            }
        }
    }
}

impl Node for AreaController {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(self.deploy.group);
        if let Some(p) = &self.durable.image.parent {
            ctx.join_group(p.group);
        }
        // Baseline checkpoint: from t=0 a crash always finds durable
        // state to recover from. The backup attaches to the same
        // baseline: deployment-time enrolments are in no record.
        self.persist_checkpoint(ctx);
        self.resume_role(ctx);
        self.sync_backup(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Ok(msg) = Msg::from_bytes(bytes) else {
            return;
        };
        if let Some(p) = &self.durable.image.parent {
            if from == p.node {
                self.last_heard_parent = ctx.now();
            }
        }
        if self.durable.role == Role::Backup {
            self.on_backup_message(ctx, from, msg);
            return;
        }
        match msg {
            Msg::Join4 { ct, sig } => self.handle_join4(ctx, &ct, &sig),
            Msg::Join6 { ct } => self.handle_join6(ctx, from, &ct),
            Msg::Rejoin1 { ct } => self.handle_rejoin1(ctx, from, &ct),
            Msg::Rejoin3 { ct } => self.handle_rejoin3(ctx, from, &ct),
            Msg::Rejoin4 { ct, sig } => self.handle_rejoin4(ctx, from, &ct, &sig),
            Msg::Rejoin5 { ct, sig } => self.handle_rejoin5(ctx, from, &ct, &sig),
            Msg::Data {
                origin,
                seq,
                wrapped_key,
                payload,
            } => self.handle_data(ctx, from, origin, seq, &wrapped_key, &payload),
            Msg::KeyUpdate {
                area,
                epoch,
                body,
                sig,
            } => self.handle_parent_key_update(ctx, from, area, epoch, &body, &sig),
            Msg::KeyUnicast { ct } => self.handle_parent_key_unicast(ctx, from, &ct),
            Msg::KeyRefreshRequest { client } => self.handle_key_refresh(ctx, from, client),
            Msg::LeaveRequest { ct } => self.handle_leave_request(ctx, from, &ct),
            Msg::MemberAlive { client } => {
                if let Some(rec) = self.durable.image.members.get_mut(&client) {
                    if rec.node == from {
                        rec.last_heard = ctx.now();
                    }
                }
            }
            Msg::AcAlive { area, epoch } => {
                // A parent alive with a newer epoch means we missed a
                // parent-area key update; one that finds a refresh still
                // owed (lost, or its path lost) asks again.
                let parent = self.durable.image.parent.as_ref();
                let is_parent = parent.is_some_and(|p| p.node == from && p.area == area);
                if is_parent && self.parent_keys.beacon(epoch) {
                    self.request_parent_key_refresh(ctx);
                }
            }
            Msg::AreaJoinReq { ct, sig } => self.handle_area_join_req(ctx, from, &ct, &sig),
            Msg::AreaJoinAck { ct, sig } => self.handle_area_join_ack(ctx, from, &ct, &sig),
            Msg::HeartbeatAck { takeover_epoch, position } => {
                self.handle_heartbeat_ack(ctx, from, takeover_epoch, position)
            }
            // A primary receiving primary heartbeats: the sender also
            // believes it runs this area (split brain after a heal).
            Msg::Heartbeat { takeover_epoch } => self.handle_peer_claim(ctx, from, takeover_epoch),
            Msg::Demote { area, takeover_epoch, sig } => {
                self.handle_demote(ctx, from, area, takeover_epoch, &sig)
            }
            Msg::Takeover { area, sig, pubkey } => {
                self.handle_neighbor_takeover(ctx, from, area, &sig, &pubkey)
            }
            // The parent refused a key refresh because it no longer
            // counts us among its children (evicted behind a partition,
            // or lost from a takeover snapshot). Its alive beacons keep
            // the parent-silence detector quiet, so without this NACK
            // the subtree would stay key-partitioned forever; re-run the
            // signed area-join enrollment.
            Msg::RejoinDenied { reason: RejoinDenyReason::NotMember } => {
                if let Some(p) = self.durable.image.parent.clone() {
                    if from == p.node && self.pending_parent_join.is_none() {
                        ctx.stats().bump("ac-reenrollments", 1);
                        self.request_parent_enrollment(ctx, &p);
                    }
                }
            }
            // Client-bound or RS-bound steps and replica traffic the
            // primary never consumes (listed explicitly so a new wire
            // message fails to compile until triaged here).
            Msg::Join1 { .. }
            | Msg::Join2 { .. }
            | Msg::Join3 { .. }
            | Msg::Join5 { .. }
            | Msg::Join7 { .. }
            | Msg::Rejoin2 { .. }
            | Msg::Rejoin6 { .. }
            | Msg::RejoinDenied { .. }
            | Msg::StateSync { .. } => {}
        }
    }

    fn on_reliable_acked(&mut self, ctx: &mut Context<'_>, _peer: NodeId, msg: MsgToken) {
        if self.pending_demote == Some(msg) {
            self.pending_demote = None;
            self.handle_demote_acked(ctx);
        }
    }

    fn on_reliable_expired(
        &mut self,
        ctx: &mut Context<'_>,
        _to: NodeId,
        _kind: &'static str,
        msg: MsgToken,
    ) {
        if self.pending_demote == Some(msg) {
            // The stale primary went unreachable again; the next of its
            // heartbeats to arrive restarts the fence.
            self.pending_demote = None;
            ctx.stats().bump("ac-demote-expired", 1);
            return;
        }
        if let Some((_, token)) = self.pending_parent_join {
            if token == msg {
                // The prospective parent is unreachable; rotate to the
                // next preferred candidate right away.
                self.pending_parent_join = None;
                ctx.stats().bump("ac-parent-join-expired", 1);
                if self.durable.role == Role::Primary {
                    self.start_parent_switch(ctx);
                }
            }
        }
    }

    fn on_crashed_volatile_reset(&mut self) {
        self.wipe_volatile();
    }

    fn on_restarted(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().bump("ac-restarts", 1);
        // The crash wiped all volatile state (`wipe_volatile`); stable
        // storage replaces the durable state: the newest valid
        // checkpoint, else the deployed state, folded over the WAL
        // suffix. Note the recovered role may differ from the deployment
        // role — a promoted backup recovers as primary.
        let stored = ctx.load();
        let restored = self.replay(&stored, ctx.now());
        self.durable = restored.state;
        self.wal_records = stored.wal.len();
        for counter in restored.counters {
            ctx.stats().bump(counter, 1);
        }
        let recovered = restored.recovered;
        if recovered {
            ctx.stats().bump("ac-recoveries", 1);
            if self.durable.role == Role::Primary {
                // Both counters can lag what the last incarnation used;
                // re-fence them (see `RECOVERY_EPOCH_JUMP`).
                self.durable.image.epoch += RECOVERY_EPOCH_JUMP;
                self.durable.position.seq += RECOVERY_EPOCH_JUMP;
            }
            self.adopt_departures();
        }
        ctx.join_group(self.deploy.group);
        self.resume_role(ctx);
        if self.durable.role == Role::Primary {
            if recovered {
                // Members hold pre-crash path keys, and the log may
                // have been cut short of them. Re-issue every path,
                // compact the WAL, and push the re-attach image to the
                // backup.
                self.post_recovery_resync(ctx);
            }
            // Re-enter the hierarchy rather than silently resuming
            // with possibly-stale keys: re-enrolling with the parent
            // re-issues this AC's parent-area path. If the backup
            // was promoted during the outage, its epoch fence
            // (`Demote`) will step this node down and re-image it
            // through the StateSync path.
            if let Some(p) = self.durable.image.parent.clone() {
                ctx.join_group(p.group);
                self.request_parent_enrollment(ctx, &p);
            }
        } else {
            // The fold stopped at the first frame it could not read,
            // and a record appended behind that frame would be lost to
            // the next recovery. Like every recovery, a backup's ends in
            // a checkpoint before it commits anything else.
            self.persist_checkpoint(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(timer) = Timer::fired(&mut self.timers, tag) else {
            return;
        };
        let primary = self.durable.role == Role::Primary;
        match timer {
            Timer::IdleAlive if primary => self.tick_idle_alive(ctx),
            Timer::Sweep if primary => self.tick_sweep(ctx),
            Timer::Rekey if primary => self.tick_rekey(ctx),
            Timer::ParentCheck if primary => self.tick_parent_check(ctx),
            Timer::Heartbeat if primary => self.tick_heartbeat(ctx),
            Timer::BackupWatch if !primary => self.tick_backup_watch(ctx),
            // A kind armed by the role this node has since left.
            Timer::IdleAlive
            | Timer::Sweep
            | Timer::Rekey
            | Timer::ParentCheck
            | Timer::Heartbeat
            | Timer::BackupWatch => {}
        }
    }
}
