//! Hybrid hot/cold membership simulation for million-member groups
//! (ISSUE 7), extended with inter-area mobility and fault tolerance
//! (ISSUE 8).
//!
//! The paper claims Mykil scales to 100,000+ members; the full protocol
//! stack in this crate simulates every member as a [`mykil_net::Node`]
//! and tops out around tens of nodes per area. This module closes the
//! gap with a *hybrid* mode:
//!
//! - **Hot members** — the ones currently joining, leaving, moving or
//!   being promoted/demoted — are real simulated nodes exchanging real
//!   messages through the event queue ([`PoolMember`], [`Mover`]). A
//!   bounded pool of `P` such nodes drives the whole logical
//!   population: pool member `p` performs the membership events of
//!   logical members `p, p + P, p + 2P, …` in turn, so a
//!   1,000,000-member flash crowd needs only `P` live node slots.
//! - **Cold members** — everyone else — are aggregated per area inside
//!   that area's [`ScaleAreaController`] as a
//!   [`mykil_baselines::ColdAreaModel`]: a member count, a key epoch,
//!   and closed-form rekey-byte accounting from `mykil-analysis`
//!   (validated against the measured `KeyTree` at small scale). Cold
//!   members generate **no events**, which is what makes the scale
//!   reachable.
//!
//! # Membership events and the journal
//!
//! Every state change a controller performs is a [`ScaleEvent`]:
//! joins, demotions, promotions, hot leaves, cold batch-leaves, and —
//! new with mobility — `MoveOut`/`MoveIn` pairs for the paper's
//! ticket-rejoin across areas. The controller's entire mutable state
//! is a deterministic fold over `(seeded, journal)` (see
//! [`AreaState::apply`]), which buys three properties at once:
//!
//! 1. **Exact replayability** — the byte ledger is a pure function of
//!    the journal, so [`crate::invariants::check_scale`] can recompute
//!    it independently and demand byte-for-byte agreement.
//! 2. **Crash recovery** — in durable mode every journaled event is
//!    write-ahead committed ([`mykil_net::StableStore`]) and
//!    checkpointed every [`ScaleConfig::checkpoint_every`] events;
//!    [`Node::on_restarted`] reloads checkpoint + WAL suffix and
//!    refolds. Replay never re-bumps the simulator's stats counters —
//!    those were charged when the event first executed and survive the
//!    crash — so recovery cannot double-charge the ledger.
//! 3. **Takeover-grade redundancy** — each journaled event is also
//!    replicated (before the client ack, in the same atomic callback)
//!    to a [`ScaleDirectory`] node. Lying-fsync faults can eat the WAL
//!    tail; the directory, which faults never target, is then the
//!    recovery source: the restarted controller resyncs the missing
//!    journal suffix (`RESYNC_REQ`/`RESYNC_TAIL`) before it marks
//!    itself converged and serves requests again.
//!
//! # Recovery measurement
//!
//! [`ScaleGroup::run_mobility_storm`] drives a configurable number of
//! inter-area moves while a [`FaultPlan`] injects crashes, partitions
//! and storage faults into the area controllers. At each controller
//! crash the harness snapshots the virtual clock and the global rekey
//! ledger; the controller records the matching snapshot when its
//! resync completes (instrumentation that deliberately survives the
//! volatile wipe — it models an external observer). The pairing yields
//! per-fault *recovery time* (virtual µs from crash to
//! re-convergence) and *degraded-window bytes* (ledger growth across
//! the outage), the raw material for `BENCH_mobility.json`'s
//! acceptance envelope.
//!
//! What the aggregate checks and what it does not: membership
//! conservation (now including moves), epoch monotonicity (the
//! forward-secrecy analog: every departure — including a move-out —
//! rotates the key) and byte-exact ledger agreement with an
//! independent closed-form replay are enforced by
//! [`crate::invariants::check_scale`]. Per-member key material,
//! handshake authentication and retransmission behaviour are *not*
//! modelled for cold members — that is what the full protocol tests
//! cover at small scale.

// Timer dispatch lists every kind, so a kind that is armed but never
// handled does not compile.
#![cfg_attr(
    not(test),
    warn(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use mykil_baselines::{ColdAreaModel, RekeyTraffic};
use mykil_crypto::drbg::Drbg;
use mykil_net::{
    ChaosDriver, Context, Duration, FaultPlan, FaultSpec, Node, NodeId, Simulator, Time,
};
use std::collections::{BTreeMap, BTreeSet};

/// Message opcodes (first byte of every scale-harness message).
const OP_JOIN_REQ: u8 = 1;
const OP_JOIN_ACK: u8 = 2;
const OP_DEMOTE_REQ: u8 = 3;
const OP_DEMOTE_ACK: u8 = 4;
const OP_PROMOTE_REQ: u8 = 5;
const OP_PROMOTE_ACK: u8 = 6;
const OP_PROMOTE_NAK: u8 = 7;
const OP_LEAVE_REQ: u8 = 8;
const OP_LEAVE_ACK: u8 = 9;
/// Mobility handshake: leave the source area's cold aggregate…
const OP_MOVE_OUT_REQ: u8 = 10;
const OP_MOVE_OUT_ACK: u8 = 11;
const OP_MOVE_OUT_NAK: u8 = 12;
/// …and ticket-rejoin the destination area.
const OP_MOVE_IN_REQ: u8 = 13;
const OP_MOVE_IN_ACK: u8 = 14;
/// Controller → directory journal replication (durable mode).
const OP_REPLICATE: u8 = 15;
const OP_REPL_ACK: u8 = 16;
/// Post-restart journal resynchronization from the directory.
const OP_RESYNC_REQ: u8 = 17;
const OP_RESYNC_TAIL: u8 = 18;

crate::timer::timer_kinds! {
    /// A [`ScaleAreaController`]'s clocks.
    enum ControllerTimer {
        /// The cold batch-leave sweep.
        ColdBatch = 1,
        /// Re-send unacknowledged journal replication.
        ReplRetry = 2,
        /// Re-request a resync tail after a restart.
        ResyncRetry = 3,
    }
}

crate::timer::timer_kinds! {
    /// A [`Mover`]'s clock.
    enum MoverTimer {
        /// The stalled-handshake retry sweep.
        MoveRetry = 4,
    }
}

/// Journal events per `REPLICATE` message.
const REPL_BATCH: u64 = 512;
/// Journal events per `RESYNC_TAIL` chunk.
const RESYNC_BATCH: u64 = 2048;

fn encode(op: u8, logical: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(9);
    b.push(op);
    b.extend_from_slice(&logical.to_le_bytes());
    b
}

fn decode(bytes: &[u8]) -> Option<(u8, u64)> {
    let (&op, rest) = bytes.split_first()?;
    let logical = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
    Some((op, logical))
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

/// One entry of an area's membership journal: the complete state of a
/// [`ScaleAreaController`] is a deterministic fold of these over the
/// seeded base population (see [`AreaState::apply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEvent {
    /// Logical member joined hot (join rekey charged at the post-join
    /// area size).
    Join(u64),
    /// Hot member absorbed into the cold aggregate (free).
    Demote(u64),
    /// Cold member released back to the hot set (free).
    Promote(u64),
    /// Hot member left (single-leave rekey at the pre-departure size).
    HotLeave(u64),
    /// `k` cold members drained in one aggregated batch rekey.
    ColdBatch(u64),
    /// Cold member moved out to another area (leave-shaped rekey at
    /// the pre-departure size; the mover must lose this area's keys).
    MoveOut(u64),
    /// Member moved in from another area on a ticket rejoin
    /// (join-shaped rekey at the post-arrival size).
    MoveIn(u64),
}

impl ScaleEvent {
    /// Serialized size: 1 kind byte + u64 argument.
    pub const WIRE_LEN: usize = 9;

    fn kind_arg(self) -> (u8, u64) {
        match self {
            ScaleEvent::Join(m) => (1, m),
            ScaleEvent::Demote(m) => (2, m),
            ScaleEvent::Promote(m) => (3, m),
            ScaleEvent::HotLeave(m) => (4, m),
            ScaleEvent::ColdBatch(k) => (5, k),
            ScaleEvent::MoveOut(m) => (6, m),
            ScaleEvent::MoveIn(m) => (7, m),
        }
    }

    fn encode_into(self, out: &mut Vec<u8>) {
        let (kind, arg) = self.kind_arg();
        out.push(kind);
        out.extend_from_slice(&arg.to_le_bytes());
    }

    /// Decodes one event from the first [`Self::WIRE_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<ScaleEvent> {
        let (&kind, rest) = bytes.split_first()?;
        let arg = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
        match kind {
            1 => Some(ScaleEvent::Join(arg)),
            2 => Some(ScaleEvent::Demote(arg)),
            3 => Some(ScaleEvent::Promote(arg)),
            4 => Some(ScaleEvent::HotLeave(arg)),
            5 => Some(ScaleEvent::ColdBatch(arg)),
            6 => Some(ScaleEvent::MoveOut(arg)),
            7 => Some(ScaleEvent::MoveIn(arg)),
            _ => None,
        }
    }
}

/// Checkpoint payload: seeded base population + full journal prefix.
pub fn encode_checkpoint(seeded: u64, journal: &[ScaleEvent]) -> Vec<u8> {
    let mut b = Vec::with_capacity(16 + ScaleEvent::WIRE_LEN * journal.len());
    put_u64(&mut b, seeded);
    put_u64(&mut b, journal.len() as u64);
    for ev in journal {
        ev.encode_into(&mut b);
    }
    b
}

/// Decodes a checkpoint payload read back from stable storage.
///
/// The payload may be arbitrarily corrupt (bit-rot, torn slot), so
/// nothing in it is trusted: the event count must match the bytes
/// actually present — sizing an allocation from a corrupt count would
/// be an abort, not a recovery — and every event must decode. The
/// `seeded` base is validated against the deployment size by the
/// caller, which knows it (see `ScaleAreaController::on_restarted`).
pub fn decode_checkpoint(bytes: &[u8]) -> Option<(u64, Vec<ScaleEvent>)> {
    let seeded = get_u64(bytes, 0)?;
    let claimed = get_u64(bytes, 8)?;
    let body = bytes.get(16..)?;
    if body.len() % ScaleEvent::WIRE_LEN != 0
        || claimed != (body.len() / ScaleEvent::WIRE_LEN) as u64
    {
        return None;
    }
    let mut journal = Vec::with_capacity(body.len() / ScaleEvent::WIRE_LEN);
    let mut at = 0;
    while at < body.len() {
        let ev = ScaleEvent::decode(body.get(at..)?)?;
        journal.push(ev);
        at += ScaleEvent::WIRE_LEN;
    }
    Some((seeded, journal))
}

/// The deterministic per-area membership fold: cold aggregate, hot
/// set, admission/departure/move counters and move dedup sets. Both
/// the live controller *and* every independent replay (crash
/// recovery, the invariant checker) use [`AreaState::apply`], so the
/// byte ledger cannot drift between them by construction.
#[derive(Debug, Clone)]
pub struct AreaState {
    /// The cold aggregate (count + epoch + closed-form byte ledger).
    pub cold: ColdAreaModel,
    /// Logical ids currently hot in this area.
    pub hot: BTreeSet<u64>,
    /// Total members ever admitted (seed + hot joins).
    pub joins: u64,
    /// Departures via the hot promote-then-leave handshake.
    pub hot_leaves: u64,
    /// Departures drained from the cold aggregate by batch timers.
    pub cold_leaves: u64,
    /// Members that moved out to another area.
    pub moves_out: u64,
    /// Members that moved in from another area.
    pub moves_in: u64,
    /// Dedup: logical ids already moved out (idempotent re-acks).
    pub moved_out: BTreeSet<u64>,
    /// Dedup: logical ids already moved in.
    pub moved_in: BTreeSet<u64>,
}

impl AreaState {
    /// An empty area under `cfg`'s closed-form parameters.
    pub fn new(cfg: &ScaleConfig) -> AreaState {
        AreaState {
            cold: ColdAreaModel::new(cfg.key_len, cfg.rsa_len, cfg.arity),
            hot: BTreeSet::new(),
            joins: 0,
            hot_leaves: 0,
            cold_leaves: 0,
            moves_out: 0,
            moves_in: 0,
            moved_out: BTreeSet::new(),
            moved_in: BTreeSet::new(),
        }
    }

    /// Folds `seeded` closed-form joins and then the journal. This is
    /// the crash-recovery path and the invariant checker's replay.
    ///
    /// `seeded` must come from a validated source (it is folded one
    /// closed-form join at a time, exactly like the live seeding path,
    /// so the ledger reproduces byte-for-byte): recovery rejects any
    /// checkpoint claiming more seeded members than the deployment
    /// holds *before* calling this.
    pub fn replay(cfg: &ScaleConfig, seeded: u64, journal: &[ScaleEvent]) -> AreaState {
        let mut s = AreaState::new(cfg);
        for _ in 0..seeded {
            s.cold.join();
        }
        s.joins = seeded;
        for &ev in journal {
            s.apply(ev);
        }
        s
    }

    /// Current area size: cold aggregate plus hot members.
    pub fn live(&self) -> u64 {
        self.cold.cold_members() + self.hot.len() as u64
    }

    /// Applies one event, returning the rekey traffic it charged, or
    /// `None` when the event is a no-op in this state (duplicate join,
    /// move of an already-moved member, promotion from an empty
    /// aggregate, …). Charging at the *total* size `cold + hot` makes
    /// the byte sequence depend only on the event sequence, not on how
    /// hot handshakes interleaved — the root of exact replayability.
    pub fn apply(&mut self, ev: ScaleEvent) -> Option<RekeyTraffic> {
        match ev {
            ScaleEvent::Join(m) => {
                if !self.hot.insert(m) {
                    return None;
                }
                self.joins += 1;
                let size = self.live();
                Some(self.cold.charge_join_at(size))
            }
            ScaleEvent::Demote(m) => {
                if !self.hot.remove(&m) {
                    return None;
                }
                self.cold.absorb(1);
                Some(RekeyTraffic::default())
            }
            ScaleEvent::Promote(m) => {
                if self.cold.release(1) != 1 {
                    return None;
                }
                self.hot.insert(m);
                Some(RekeyTraffic::default())
            }
            ScaleEvent::HotLeave(m) => {
                if !self.hot.remove(&m) {
                    return None;
                }
                self.hot_leaves += 1;
                // Size before the departure: cold + remaining hot
                // + the leaver itself.
                let size = self.live() + 1;
                Some(self.cold.charge_single_leave_at(size))
            }
            ScaleEvent::ColdBatch(k) => {
                let k = k.min(self.cold.cold_members());
                if k == 0 {
                    return None;
                }
                let t = self.cold.batch_leave(k);
                self.cold_leaves += k;
                Some(t)
            }
            ScaleEvent::MoveOut(m) => {
                if self.cold.cold_members() == 0 || !self.moved_out.insert(m) {
                    return None;
                }
                self.moves_out += 1;
                // Charge at the pre-departure size, then shrink.
                let size = self.live();
                let t = self.cold.charge_move_out_at(size);
                self.cold.release(1);
                Some(t)
            }
            ScaleEvent::MoveIn(m) => {
                if !self.moved_in.insert(m) {
                    return None;
                }
                self.moves_in += 1;
                // Grow first: a move-in charges like a join, at the
                // post-arrival size.
                self.cold.absorb(1);
                let size = self.live();
                Some(self.cold.charge_move_in_at(size))
            }
        }
    }
}

/// Configuration of one hybrid scale scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Deterministic simulation seed.
    pub seed: u64,
    /// Total logical group size (e.g. 1,000,000).
    pub members: u64,
    /// Number of areas; logical member `m` belongs to area
    /// `m % areas` (the registration server's round-robin policy).
    pub areas: usize,
    /// Live hot-member node slots driving the logical population.
    pub hot_pool: usize,
    /// How many of its logical members each pool node leaves via the
    /// hot promote-then-leave handshake during mass-leave (the rest
    /// drain through the controllers' cold batches).
    pub hot_leaves_per_pool: u64,
    /// Cold members removed per batch-leave timer fire.
    pub cold_batch: u64,
    /// Symmetric key length in bytes (closed-form accounting).
    pub key_len: u64,
    /// RSA modulus length in bytes (closed-form storage accounting).
    pub rsa_len: u64,
    /// Key-tree arity.
    pub arity: u64,
    /// Durable mode: write-ahead commit + checkpoint every journal
    /// event and replicate it to the [`ScaleDirectory`], enabling
    /// crash recovery. Off for the pure-throughput scenarios so their
    /// event streams and byte ledgers stay identical to ISSUE 7.
    pub durable: bool,
    /// Checkpoint cadence in journal events (durable mode).
    pub checkpoint_every: u64,
    /// Base retry period in ms for movers, replication and resync.
    pub retry_ms: u64,
    /// Seed the whole population cold (closed-form, no events) instead
    /// of driving a flash crowd; the mobility storm starts from here.
    pub seed_cold: bool,
}

impl ScaleConfig {
    /// The acceptance scenario: 1,000,000 members across 1,000 areas.
    pub fn paper_million() -> ScaleConfig {
        ScaleConfig {
            seed: 7,
            members: 1_000_000,
            areas: 1_000,
            hot_pool: 64,
            hot_leaves_per_pool: 2,
            cold_batch: 500,
            key_len: 16,
            rsa_len: 256,
            arity: 2,
            durable: false,
            checkpoint_every: 64,
            retry_ms: 60,
            seed_cold: false,
        }
    }

    /// CI-sized smoke: 100,000 members across 100 areas.
    pub fn smoke_100k() -> ScaleConfig {
        ScaleConfig {
            members: 100_000,
            areas: 100,
            ..ScaleConfig::paper_million()
        }
    }

    /// The mobility acceptance scenario: 1,000,000 members seeded cold
    /// across 1,000 areas, durable controllers, storm driven by
    /// [`ScaleGroup::run_mobility_storm`].
    pub fn mobility_million() -> ScaleConfig {
        ScaleConfig {
            durable: true,
            seed_cold: true,
            ..ScaleConfig::paper_million()
        }
    }
}

/// One area's controller: owns the membership fold ([`AreaState`]),
/// the journal and — in durable mode — its stable storage and the
/// replication session to the [`ScaleDirectory`].
pub struct ScaleAreaController {
    area: usize,
    cfg: ScaleConfig,
    directory: Option<NodeId>,
    state: AreaState,
    /// Closed-form-seeded base population (not journaled per member).
    seeded: u64,
    /// Whether `seeded` is trusted (false after a restart whose
    /// checkpoint was unreadable, until the directory resync fills it).
    seed_known: bool,
    /// Events since seeding. Durable mode journals everything; in
    /// volatile mode only moves are kept (the invariant checker needs
    /// their interleaving, and the throughput scenarios have none).
    journal: Vec<ScaleEvent>,
    /// Directory replication watermarks: `..repl_acked` acknowledged,
    /// `..repl_sent` in flight.
    repl_acked: u64,
    repl_sent: u64,
    repl_timer_armed: bool,
    /// False while recovering from a crash: requests are dropped (the
    /// movers retry) until the journal is resynced, so a stale area
    /// can never under-charge a rekey.
    converged: bool,
    /// `(when, global rekey bytes)` at each re-convergence. This is
    /// measurement instrumentation — an external observer's notebook,
    /// not protocol state — so it deliberately survives the volatile
    /// wipe on crash.
    recoveries: Vec<(Time, u64)>,
}

impl ScaleAreaController {
    fn new(area: usize, cfg: &ScaleConfig, directory: Option<NodeId>) -> ScaleAreaController {
        ScaleAreaController {
            area,
            cfg: *cfg,
            directory,
            state: AreaState::new(cfg),
            seeded: 0,
            seed_known: true,
            journal: Vec::new(),
            repl_acked: 0,
            repl_sent: 0,
            repl_timer_armed: false,
            converged: true,
            recoveries: Vec::new(),
        }
    }

    /// Current area size: cold aggregate plus hot members.
    pub fn live_members(&self) -> u64 {
        self.state.live()
    }

    /// The cold aggregate (inspection).
    pub fn cold(&self) -> &ColdAreaModel {
        &self.state.cold
    }

    /// Hot members currently in the area.
    pub fn hot_members(&self) -> u64 {
        self.state.hot.len() as u64
    }

    /// Total admissions so far (seeded + hot joins + nothing else;
    /// move-ins are counted separately).
    pub fn joins(&self) -> u64 {
        self.state.joins
    }

    /// Departures via the hot handshake / via cold batches.
    pub fn hot_leaves(&self) -> u64 {
        self.state.hot_leaves
    }

    /// Departures drained from the cold aggregate by batch timers.
    pub fn cold_leaves(&self) -> u64 {
        self.state.cold_leaves
    }

    /// Members that moved out to / in from other areas.
    pub fn moves_out(&self) -> u64 {
        self.state.moves_out
    }

    /// See [`Self::moves_out`].
    pub fn moves_in(&self) -> u64 {
        self.state.moves_in
    }

    /// The full membership fold (inspection/replay comparison).
    pub fn state(&self) -> &AreaState {
        &self.state
    }

    /// Closed-form-seeded base population.
    pub fn seeded(&self) -> u64 {
        self.seeded
    }

    /// The post-seed event journal (all events in durable mode, moves
    /// only otherwise).
    pub fn journal(&self) -> &[ScaleEvent] {
        &self.journal
    }

    /// Whether the controller is serving requests (false mid-recovery).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// `(when, global rekey bytes)` snapshots taken at each completed
    /// recovery, in time order.
    pub fn recovery_samples(&self) -> &[(Time, u64)] {
        &self.recoveries
    }

    fn charge(ctx: &mut Context<'_>, t: RekeyTraffic) {
        ctx.stats().bump("scale-rekey-multicast-bytes", t.multicast_bytes);
        ctx.stats().bump("scale-rekey-unicast-bytes", t.unicast_bytes);
        ctx.stats().bump(
            "scale-rekey-messages",
            t.multicast_messages + t.unicast_messages,
        );
    }

    /// Seeds `n` cold members closed-form: charges their join rekeys
    /// into both the model and the stats ledger (sizes `1..=n`), with
    /// no simulation events. The mobility storm starts from a fully
    /// seeded population, which is what makes a million-member storm
    /// CI-feasible.
    fn seed(&mut self, ctx: &mut Context<'_>, n: u64) {
        let mut t = RekeyTraffic::default();
        for _ in 0..n {
            t += self.state.cold.join();
        }
        self.state.joins += n;
        self.seeded += n;
        ctx.stats().bump("scale-joins", n);
        Self::charge(ctx, t);
        if self.cfg.durable {
            ctx.checkpoint(encode_checkpoint(self.seeded, &self.journal));
        }
    }

    fn retry_delay(&self) -> Duration {
        // Stagger so 1,000 area timers don't share a wheel bucket.
        Duration::from_millis(self.cfg.retry_ms.max(1) + (self.area % 7) as u64)
    }

    /// Records an applied event: journal push, WAL commit, periodic
    /// checkpoint, directory replication — all in the same atomic
    /// callback as the state change, *before* any ack is sent. A
    /// journaled event is therefore always either locally durable or
    /// already on the wire to the never-crashed directory: no
    /// acknowledged event can be lost even under lying-fsync faults.
    fn journal_event(&mut self, ctx: &mut Context<'_>, ev: ScaleEvent) {
        let keep = self.cfg.durable
            || matches!(ev, ScaleEvent::MoveOut(_) | ScaleEvent::MoveIn(_));
        if !keep {
            return;
        }
        self.journal.push(ev);
        if !self.cfg.durable {
            return;
        }
        let mut rec = Vec::with_capacity(ScaleEvent::WIRE_LEN);
        ev.encode_into(&mut rec);
        ctx.wal_commit(rec);
        let every = self.cfg.checkpoint_every.max(1);
        if (self.journal.len() as u64).is_multiple_of(every) {
            ctx.checkpoint(encode_checkpoint(self.seeded, &self.journal));
        }
        self.replicate_tail(ctx);
    }

    /// Ships journal events `repl_sent..` to the directory in
    /// [`REPL_BATCH`] chunks and arms the retry timer.
    fn replicate_tail(&mut self, ctx: &mut Context<'_>) {
        let Some(dir) = self.directory else {
            self.repl_acked = self.journal.len() as u64;
            self.repl_sent = self.repl_acked;
            return;
        };
        let len = self.journal.len() as u64;
        while self.repl_sent < len {
            let start = self.repl_sent;
            let end = len.min(start.saturating_add(REPL_BATCH));
            let mut b =
                Vec::with_capacity(25 + ScaleEvent::WIRE_LEN * (end - start) as usize);
            b.push(OP_REPLICATE);
            put_u64(&mut b, self.area as u64);
            put_u64(&mut b, start);
            put_u64(&mut b, end - start);
            for ev in &self.journal[start as usize..end as usize] {
                ev.encode_into(&mut b);
            }
            ctx.send(dir, "scale-replicate", b);
            self.repl_sent = end;
        }
        if !self.repl_timer_armed {
            self.repl_timer_armed = true;
            ControllerTimer::ReplRetry.arm(ctx, self.retry_delay());
        }
    }

    fn send_resync_req(&mut self, ctx: &mut Context<'_>) {
        let Some(dir) = self.directory else {
            self.finish_recovery(ctx);
            return;
        };
        let mut b = Vec::with_capacity(17);
        b.push(OP_RESYNC_REQ);
        put_u64(&mut b, self.area as u64);
        put_u64(&mut b, self.journal.len() as u64);
        ctx.send(dir, "scale-resync-req", b);
        ControllerTimer::ResyncRetry.arm(ctx, self.retry_delay());
    }

    /// Marks the controller converged again and snapshots the
    /// recovery instant: virtual time + global rekey-byte ledger, the
    /// two numbers the storm pairs with its crash-time snapshots to
    /// measure recovery time and degraded-window bytes.
    fn finish_recovery(&mut self, ctx: &mut Context<'_>) {
        if self.converged {
            return;
        }
        self.converged = true;
        let bytes = ctx.stats().counter("scale-rekey-multicast-bytes")
            + ctx.stats().counter("scale-rekey-unicast-bytes");
        self.recoveries.push((ctx.now(), bytes));
        if self.cfg.durable {
            // Consolidate: the resynced journal becomes the new
            // checkpoint, so a follow-up crash recovers locally.
            ctx.checkpoint(encode_checkpoint(self.seeded, &self.journal));
        }
    }

    /// Applies `ev`, charges its traffic to the stats ledger, bumps
    /// `counter` and journals it. Returns whether it was applied.
    fn execute(
        &mut self,
        ctx: &mut Context<'_>,
        ev: ScaleEvent,
        counter: &'static str,
        by: u64,
    ) -> bool {
        let Some(t) = self.state.apply(ev) else {
            return false;
        };
        ctx.stats().bump(counter, by);
        Self::charge(ctx, t);
        self.journal_event(ctx, ev);
        true
    }
}

impl Node for ScaleAreaController {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Some((op, logical)) = decode(bytes) else {
            return;
        };
        match op {
            OP_JOIN_REQ => {
                if !self.converged {
                    return;
                }
                self.execute(ctx, ScaleEvent::Join(logical), "scale-joins", 1);
                ctx.send(from, "scale-join-ack", encode(OP_JOIN_ACK, logical));
            }
            OP_DEMOTE_REQ => {
                if !self.converged {
                    return;
                }
                self.execute(ctx, ScaleEvent::Demote(logical), "scale-demotions", 1);
                ctx.send(from, "scale-demote-ack", encode(OP_DEMOTE_ACK, logical));
            }
            OP_PROMOTE_REQ => {
                if !self.converged {
                    return;
                }
                if self.execute(ctx, ScaleEvent::Promote(logical), "scale-promotions", 1) {
                    ctx.send(from, "scale-promote-ack", encode(OP_PROMOTE_ACK, logical));
                } else {
                    ctx.send(from, "scale-promote-nak", encode(OP_PROMOTE_NAK, logical));
                }
            }
            OP_LEAVE_REQ => {
                if !self.converged {
                    return;
                }
                self.execute(ctx, ScaleEvent::HotLeave(logical), "scale-hot-leaves", 1);
                ctx.send(from, "scale-leave-ack", encode(OP_LEAVE_ACK, logical));
            }
            OP_MOVE_OUT_REQ => {
                // Idempotent: a retried request for an already-departed
                // mover is re-acked without re-charging.
                if self.state.moved_out.contains(&logical) {
                    ctx.send(from, "scale-move-out-ack", encode(OP_MOVE_OUT_ACK, logical));
                    return;
                }
                if !self.converged {
                    return;
                }
                if self.execute(ctx, ScaleEvent::MoveOut(logical), "scale-moves-out", 1) {
                    ctx.send(from, "scale-move-out-ack", encode(OP_MOVE_OUT_ACK, logical));
                } else {
                    ctx.send(from, "scale-move-out-nak", encode(OP_MOVE_OUT_NAK, logical));
                }
            }
            OP_MOVE_IN_REQ => {
                if self.state.moved_in.contains(&logical) {
                    ctx.send(from, "scale-move-in-ack", encode(OP_MOVE_IN_ACK, logical));
                    return;
                }
                if !self.converged {
                    return;
                }
                if self.execute(ctx, ScaleEvent::MoveIn(logical), "scale-moves-in", 1) {
                    ctx.send(from, "scale-move-in-ack", encode(OP_MOVE_IN_ACK, logical));
                }
            }
            OP_REPL_ACK => {
                // `logical` carries the area; the directory length is
                // appended after the standard 9-byte header.
                let Some(len) = get_u64(bytes, 9) else {
                    return;
                };
                let capped = len.min(self.journal.len() as u64);
                if capped > self.repl_acked {
                    self.repl_acked = capped;
                }
                if self.repl_sent < self.repl_acked {
                    self.repl_sent = self.repl_acked;
                }
            }
            OP_RESYNC_TAIL => {
                if self.converged {
                    return; // duplicate tail from a retried request
                }
                let Some(seeded_dir) = get_u64(bytes, 9) else {
                    return;
                };
                let Some(dir_len) = get_u64(bytes, 17) else {
                    return;
                };
                let Some(start) = get_u64(bytes, 25) else {
                    return;
                };
                let Some(count) = get_u64(bytes, 33) else {
                    return;
                };
                if !self.seed_known && seeded_dir <= self.cfg.members {
                    // Local checkpoint was unreadable (e.g. bit-rot on
                    // both slots): the directory is the authority for
                    // the seeded base too (bounded by the deployment
                    // size — a hostile or garbled tail must not wedge
                    // the refold below).
                    self.seeded = seeded_dir;
                    self.seed_known = true;
                }
                let mut at = 41usize;
                for i in 0..count {
                    let Some(ev) = bytes.get(at..).and_then(ScaleEvent::decode) else {
                        break;
                    };
                    at += ScaleEvent::WIRE_LEN;
                    // Append only the part of the chunk we don't have;
                    // ignore gaps (a retry will re-request from our
                    // actual length).
                    if start + i == self.journal.len() as u64 {
                        self.journal.push(ev);
                        let mut rec = Vec::with_capacity(ScaleEvent::WIRE_LEN);
                        ev.encode_into(&mut rec);
                        ctx.wal_commit(rec);
                    }
                }
                if (self.journal.len() as u64) < dir_len {
                    self.send_resync_req(ctx); // pull the next chunk
                    return;
                }
                // Refold the full journal. Replay recomputes the
                // model-internal ledger but never re-bumps the stats
                // counters: those were charged when the events first
                // executed and survived the crash with the simulator.
                self.state = AreaState::replay(&self.cfg, self.seeded, &self.journal);
                self.repl_acked = dir_len.min(self.journal.len() as u64);
                self.repl_sent = self.repl_acked;
                self.finish_recovery(ctx);
                // If we were ahead of the directory (its ack got lost
                // pre-crash), re-replicate our durable suffix.
                self.replicate_tail(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(timer) = ControllerTimer::from_tag(tag) else {
            return;
        };
        match timer {
            ControllerTimer::ColdBatch => {
                let k = self.cfg.cold_batch.min(self.state.cold.cold_members());
                if k > 0 {
                    self.execute(ctx, ScaleEvent::ColdBatch(k), "scale-cold-leaves", k);
                }
                if self.state.cold.cold_members() > 0 {
                    // Drain the rest next tick; the stagger keeps 1,000
                    // area timers out of one wheel bucket.
                    let delay = Duration::from_millis(10 + (self.area % 7) as u64);
                    ControllerTimer::ColdBatch.arm(ctx, delay);
                }
            }
            ControllerTimer::ReplRetry => {
                self.repl_timer_armed = false;
                if self.repl_acked < self.journal.len() as u64 {
                    // Unacked tail: rewind the sent watermark and resend.
                    self.repl_sent = self.repl_acked;
                    self.replicate_tail(ctx);
                }
            }
            ControllerTimer::ResyncRetry => {
                if !self.converged {
                    self.send_resync_req(ctx);
                }
            }
        }
    }

    fn on_crashed_volatile_reset(&mut self) {
        self.state = AreaState::new(&self.cfg);
        self.seeded = 0;
        self.seed_known = false;
        self.journal = Vec::new();
        self.repl_acked = 0;
        self.repl_sent = 0;
        self.repl_timer_armed = false;
        self.converged = false;
        // `recoveries` survives on purpose: external-observer
        // measurement, not volatile protocol state.
    }

    fn on_restarted(&mut self, ctx: &mut Context<'_>) {
        if !self.cfg.durable {
            return; // nothing to rebuild from: stays unconverged
        }
        let rec = ctx.load();
        self.journal = Vec::new();
        let ckpt = rec
            .checkpoint
            .and_then(|(_seq, bytes)| decode_checkpoint(&bytes))
            // A checkpoint that decodes but claims more seeded members
            // than the whole deployment is corruption that slipped the
            // checksum; adopting it would wedge recovery in a
            // near-endless refold. Treat it like an unreadable slot
            // and fall back to the directory.
            .filter(|&(seeded, _)| seeded <= self.cfg.members);
        if let Some((seeded, events)) = ckpt {
            self.seeded = seeded;
            self.seed_known = true;
            self.journal = events;
            // The WAL suffix load() returns is relative to the same
            // checkpoint, so appending it keeps the journal contiguous.
            for w in &rec.wal {
                if let Some(ev) = ScaleEvent::decode(w) {
                    self.journal.push(ev);
                }
            }
        }
        // Without a decodable checkpoint the WAL's absolute offset is
        // unknowable (the log prefix may have been truncated under a
        // now-corrupt slot), so it cannot anchor a journal prefix:
        // recover everything from the directory instead.
        // Provisional refold from local durable state; the directory
        // resync below fills whatever the WAL lost (lying fsync, torn
        // tail, corrupted checkpoint) before we serve requests again.
        self.state = AreaState::replay(&self.cfg, self.seeded, &self.journal);
        self.repl_acked = 0;
        self.repl_sent = 0;
        self.repl_timer_armed = false;
        self.send_resync_req(ctx);
    }
}

/// The registration-backup analog at scale: holds a replica of every
/// area's journal (and seeded base), acks replication, and serves
/// resync tails to recovering controllers. Fault plans never target
/// it — it plays the role of the surviving replica set.
pub struct ScaleDirectory {
    seeded: Vec<u64>,
    journals: Vec<Vec<ScaleEvent>>,
}

impl ScaleDirectory {
    fn new(areas: usize) -> ScaleDirectory {
        ScaleDirectory {
            seeded: vec![0; areas],
            journals: vec![Vec::new(); areas],
        }
    }

    /// The replicated journal of `area`.
    pub fn journal(&self, area: usize) -> &[ScaleEvent] {
        self.journals.get(area).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The replicated seeded base of `area`.
    pub fn seeded(&self, area: usize) -> u64 {
        self.seeded.get(area).copied().unwrap_or(0)
    }

    pub(crate) fn set_seeded(&mut self, area: usize, n: u64) {
        if let Some(s) = self.seeded.get_mut(area) {
            *s = n;
        }
    }
}

impl Node for ScaleDirectory {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Some((&op, _)) = bytes.split_first() else {
            return;
        };
        match op {
            OP_REPLICATE => {
                let Some(area) = get_u64(bytes, 1) else {
                    return;
                };
                let Some(start) = get_u64(bytes, 9) else {
                    return;
                };
                let Some(count) = get_u64(bytes, 17) else {
                    return;
                };
                let Some(journal) = self.journals.get_mut(area as usize) else {
                    return;
                };
                let mut at = 25usize;
                for i in 0..count {
                    let Some(ev) = bytes.get(at..).and_then(ScaleEvent::decode) else {
                        break;
                    };
                    at += ScaleEvent::WIRE_LEN;
                    // Contiguous append; duplicates (retries) and gaps
                    // (reordered chunks) are ignored — the cumulative
                    // ack below re-drives the sender from our length.
                    if start + i == journal.len() as u64 {
                        journal.push(ev);
                    }
                }
                let mut b = Vec::with_capacity(17);
                b.push(OP_REPL_ACK);
                put_u64(&mut b, area);
                put_u64(&mut b, journal.len() as u64);
                ctx.send(from, "scale-repl-ack", b);
            }
            OP_RESYNC_REQ => {
                let Some(area) = get_u64(bytes, 1) else {
                    return;
                };
                let Some(have) = get_u64(bytes, 9) else {
                    return;
                };
                let Some(journal) = self.journals.get(area as usize) else {
                    return;
                };
                let len = journal.len() as u64;
                let start = have.min(len);
                let count = (len - start).min(RESYNC_BATCH);
                let mut b =
                    Vec::with_capacity(41 + ScaleEvent::WIRE_LEN * count as usize);
                b.push(OP_RESYNC_TAIL);
                put_u64(&mut b, area);
                put_u64(&mut b, self.seeded(area as usize));
                put_u64(&mut b, len);
                put_u64(&mut b, start);
                put_u64(&mut b, count);
                for ev in &journal[start as usize..(start + count) as usize] {
                    ev.encode_into(&mut b);
                }
                ctx.send(from, "scale-resync-tail", b);
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Driving logical joins (flash crowd).
    Joining,
    /// All assigned logicals demoted; waiting for the next phase.
    Idle,
    /// Driving hot promote-then-leave handshakes.
    Leaving,
}

/// One hot-pool node: performs the membership events of logical members
/// `pool_index, pool_index + P, pool_index + 2P, …` sequentially, so
/// the in-flight hot population never exceeds the pool size.
pub struct PoolMember {
    pool_index: u64,
    pool_size: u64,
    total: u64,
    controllers: Vec<NodeId>,
    current: u64,
    phase: Phase,
    joined: u64,
    hot_leaves_left: u64,
}

impl PoolMember {
    fn controller_of(&self, logical: u64) -> Option<NodeId> {
        let area = (logical % self.controllers.len().max(1) as u64) as usize;
        self.controllers.get(area).copied()
    }

    fn start_join(&mut self, ctx: &mut Context<'_>) {
        if self.current >= self.total {
            self.phase = Phase::Idle;
            return;
        }
        if let Some(ac) = self.controller_of(self.current) {
            ctx.send(ac, "scale-join-req", encode(OP_JOIN_REQ, self.current));
        }
    }

    fn start_promote(&mut self, ctx: &mut Context<'_>) {
        if self.hot_leaves_left == 0 || self.current >= self.total {
            self.phase = Phase::Idle;
            return;
        }
        if let Some(ac) = self.controller_of(self.current) {
            ctx.send(ac, "scale-promote-req", encode(OP_PROMOTE_REQ, self.current));
        }
    }

    /// Logical members this pool node has driven through a full
    /// join-then-demote cycle.
    pub fn joined(&self) -> u64 {
        self.joined
    }

    /// Kicks the mass-leave phase: promote-then-leave the first
    /// `hot_leaves_per_pool` of this node's logical members.
    pub fn begin_leaving(&mut self, ctx: &mut Context<'_>) {
        self.phase = Phase::Leaving;
        self.current = self.pool_index;
        self.start_promote(ctx);
    }
}

impl Node for PoolMember {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.phase == Phase::Joining {
            self.start_join(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let Some((op, logical)) = decode(bytes) else {
            return;
        };
        if logical != self.current {
            return; // stale reply from a previous logical member
        }
        match (op, self.phase) {
            (OP_JOIN_ACK, Phase::Joining) => {
                // Hot for exactly the handshake; hand the membership to
                // the cold aggregate immediately.
                ctx.send(from, "scale-demote-req", encode(OP_DEMOTE_REQ, logical));
            }
            (OP_DEMOTE_ACK, Phase::Joining) => {
                self.joined += 1;
                self.current += self.pool_size;
                self.start_join(ctx);
            }
            (OP_PROMOTE_ACK, Phase::Leaving) => {
                ctx.send(from, "scale-leave-req", encode(OP_LEAVE_REQ, logical));
            }
            (OP_PROMOTE_NAK, Phase::Leaving) => {
                // Area already drained cold-side; stop driving leaves.
                self.phase = Phase::Idle;
            }
            (OP_LEAVE_ACK, Phase::Leaving) => {
                self.hot_leaves_left -= 1;
                self.current += self.pool_size;
                self.start_promote(ctx);
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MoveStage {
    /// Waiting for the source area to rekey the mover out.
    Out,
    /// Waiting for the destination area to admit the ticket rejoin.
    In,
}

/// A mobility driver node: performs the inter-area moves of logical
/// members `index, index + P, index + 2P, …` sequentially, each as a
/// `MOVE_OUT` handshake with the source controller followed by a
/// `MOVE_IN` with the destination. A periodic retry timer resends the
/// current request whenever no progress happened since the last sweep
/// (crashed or partitioned controllers drop requests; the handshake is
/// idempotent on the controller side, so retries are safe).
pub struct Mover {
    index: u64,
    pool: u64,
    assigned: u64,
    areas: u64,
    controllers: Vec<NodeId>,
    done: u64,
    stage: MoveStage,
    retry: Duration,
    active: bool,
    /// `(done, stage)` at the previous retry sweep: only resend when
    /// unchanged, so a healthy handshake is never duplicated.
    last_sweep: (u64, MoveStage),
}

impl Mover {
    fn logical(&self) -> u64 {
        self.index + self.done * self.pool
    }

    fn src_area(&self, logical: u64) -> usize {
        (logical % self.areas.max(1)) as usize
    }

    /// Deterministic destination: rotate `1 + logical % (areas-1)`
    /// areas ahead, so every destination differs from the source and
    /// the move matrix spreads over all area pairs.
    fn dst_area(&self, logical: u64) -> usize {
        let src = logical % self.areas.max(1);
        let span = self.areas.saturating_sub(1).max(1);
        ((src + 1 + logical % span) % self.areas.max(1)) as usize
    }

    /// Moves this driver has completed.
    pub fn moves_done(&self) -> u64 {
        self.done
    }

    /// Whether every assigned move completed.
    pub fn finished(&self) -> bool {
        self.done >= self.assigned
    }

    fn send_current(&mut self, ctx: &mut Context<'_>) {
        let logical = self.logical();
        let (area, op, kind) = match self.stage {
            MoveStage::Out => (
                self.src_area(logical),
                OP_MOVE_OUT_REQ,
                "scale-move-out-req",
            ),
            MoveStage::In => (self.dst_area(logical), OP_MOVE_IN_REQ, "scale-move-in-req"),
        };
        if let Some(&ac) = self.controllers.get(area) {
            ctx.send(ac, kind, encode(op, logical));
        }
    }

    fn advance(&mut self, ctx: &mut Context<'_>) {
        if self.finished() {
            self.active = false;
            return;
        }
        self.send_current(ctx);
    }

    /// Starts driving the assigned moves.
    pub fn begin(&mut self, ctx: &mut Context<'_>) {
        if self.finished() {
            return;
        }
        self.active = true;
        self.send_current(ctx);
        MoverTimer::MoveRetry.arm(ctx, self.retry);
    }
}

impl Node for Mover {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
        let Some((op, logical)) = decode(bytes) else {
            return;
        };
        if !self.active || logical != self.logical() {
            return; // stale ack from a retried, already-completed step
        }
        match (op, self.stage) {
            (OP_MOVE_OUT_ACK, MoveStage::Out) => {
                self.stage = MoveStage::In;
                self.send_current(ctx);
            }
            (OP_MOVE_OUT_NAK, MoveStage::Out) => {
                // Source area has no cold member to release (drained by
                // a concurrent phase): skip this logical move.
                self.done += 1;
                self.advance(ctx);
            }
            (OP_MOVE_IN_ACK, MoveStage::In) => {
                self.done += 1;
                self.stage = MoveStage::Out;
                self.advance(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(timer) = MoverTimer::from_tag(tag) else {
            return;
        };
        match timer {
            MoverTimer::MoveRetry => {
                if self.active && !self.finished() {
                    let marker = (self.done, self.stage);
                    if marker == self.last_sweep {
                        self.send_current(ctx); // stalled since last sweep
                    }
                    self.last_sweep = marker;
                    MoverTimer::MoveRetry.arm(ctx, self.retry);
                }
            }
        }
    }
}

/// Diagnostic error for a stalled scale phase: what ran, what is
/// stuck, and which areas hold residue — enough to debug a soak
/// failure without re-running it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleStall {
    /// Which phase driver stalled.
    pub phase: &'static str,
    /// Simulation events executed by this phase before the stall.
    pub events_executed: u64,
    /// Members (or moves) that did not reach their target state.
    pub members_stuck: u64,
    /// Areas holding residue, in area order.
    pub residue: Vec<AreaResidue>,
}

/// One stuck area's snapshot inside a [`ScaleStall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaResidue {
    /// Area index.
    pub area: usize,
    /// Hot members still in flight.
    pub hot: u64,
    /// Cold aggregate size.
    pub cold: u64,
    /// Admissions counted so far.
    pub joins: u64,
    /// Whether the controller is serving requests.
    pub converged: bool,
    /// Whether the controller process is down.
    pub crashed: bool,
}

impl std::fmt::Display for ScaleStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} stalled after {} events: {} stuck",
            self.phase, self.events_executed, self.members_stuck
        )?;
        if self.residue.is_empty() {
            return Ok(());
        }
        write!(f, "; residue:")?;
        for r in self.residue.iter().take(8) {
            write!(
                f,
                " area {} (hot {}, cold {}, joins {}, converged={}, crashed={})",
                r.area, r.hot, r.cold, r.joins, r.converged, r.crashed
            )?;
        }
        if self.residue.len() > 8 {
            write!(f, " … and {} more areas", self.residue.len() - 8)?;
        }
        Ok(())
    }
}

impl std::error::Error for ScaleStall {}

/// Per-fault recovery measurement from a mobility storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecovery {
    /// Area whose controller crashed.
    pub area: usize,
    /// Virtual µs at crash injection.
    pub crash_at_micros: u64,
    /// Virtual µs from the crash to the controller's re-convergence
    /// (restart + journal resync complete).
    pub recovery_micros: u64,
    /// Global rekey-ledger growth across the degraded window.
    pub degraded_bytes: u64,
}

/// Outcome of [`ScaleGroup::run_mobility_storm`].
#[derive(Debug, Clone, Default)]
pub struct MobilityReport {
    /// Inter-area moves completed (acked by both controllers).
    pub moves: u64,
    /// Fault-plan lines injected.
    pub faults_applied: u64,
    /// Controller crash faults among them.
    pub crashes: u64,
    /// Partition-onset faults among them.
    pub partitions: u64,
    /// Storage faults (lost-tail / torn / checkpoint-corrupt).
    pub storage_faults: u64,
    /// One entry per controller crash, sorted by crash time.
    pub recoveries: Vec<FaultRecovery>,
}

impl MobilityReport {
    fn sorted_recovery_micros(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.recoveries.iter().map(|r| r.recovery_micros).collect();
        v.sort_unstable();
        v
    }

    /// Recovery-time percentile in virtual µs (`p` in `0.0..=1.0`,
    /// nearest-rank); 0 when no crash was injected.
    pub fn recovery_percentile_micros(&self, p: f64) -> u64 {
        let v = self.sorted_recovery_micros();
        if v.is_empty() {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
        v[rank.min(v.len()) - 1]
    }

    /// Mean recovery time in virtual µs; 0 when no crash was injected.
    pub fn mean_recovery_micros(&self) -> u64 {
        if self.recoveries.is_empty() {
            return 0;
        }
        let sum: u64 = self.recoveries.iter().map(|r| r.recovery_micros).sum();
        sum / self.recoveries.len() as u64
    }

    /// Total ledger bytes charged inside degraded windows.
    pub fn degraded_bytes_total(&self) -> u64 {
        self.recoveries.iter().map(|r| r.degraded_bytes).sum()
    }
}

/// The hybrid-scale deployment: a simulator holding one controller per
/// area (plus, in durable mode, the journal directory), the hot pool
/// and the mobility drivers, with phase drivers and combined-view
/// accessors for the invariant checker.
pub struct ScaleGroup {
    /// The underlying simulator (public like [`crate::group::GroupHandle::sim`]).
    pub sim: Simulator,
    cfg: ScaleConfig,
    directory: Option<NodeId>,
    controllers: Vec<NodeId>,
    pool: Vec<NodeId>,
    movers: Vec<NodeId>,
    joined_target: u64,
    left_target: u64,
}

impl ScaleGroup {
    /// Builds the deployment; nothing runs until a phase driver is
    /// called. In durable mode the directory is created first, then
    /// the controllers, then the pool (volatile mode keeps the exact
    /// ISSUE 7 node-id layout, so its event streams are unchanged).
    pub fn new(cfg: ScaleConfig) -> ScaleGroup {
        Self::build(cfg, None)
    }

    /// Like [`ScaleGroup::new`] with a stable-storage factory: every
    /// node (directory, controllers, pool) gets its backend from
    /// `make` instead of the default in-memory
    /// [`SimStore`](mykil_net::SimStore). This is how the mobility +
    /// durability matrix runs against real files
    /// ([`FileStore`](mykil_net::FileStore)); the simulator puts
    /// whatever `make` returns behind its fault engine, so the storm's
    /// storage verbs inject either way.
    pub fn new_with_storage(
        cfg: ScaleConfig,
        make: impl FnMut(NodeId) -> Box<dyn mykil_net::StableStore> + Send + 'static,
    ) -> ScaleGroup {
        Self::build(cfg, Some(Box::new(make)))
    }

    fn build(
        cfg: ScaleConfig,
        storage: Option<mykil_net::StorageFactory>,
    ) -> ScaleGroup {
        let mut sim = Simulator::new(cfg.seed);
        if let Some(make) = storage {
            sim.set_storage_factory(make);
        }
        let directory = if cfg.durable {
            Some(sim.add_node(ScaleDirectory::new(cfg.areas)))
        } else {
            None
        };
        let controllers: Vec<NodeId> = (0..cfg.areas)
            .map(|a| sim.add_node(ScaleAreaController::new(a, &cfg, directory)))
            .collect();
        let pool_size = cfg.hot_pool.max(1) as u64;
        let pool: Vec<NodeId> = (0..pool_size)
            .map(|p| {
                sim.add_node(PoolMember {
                    pool_index: p,
                    pool_size,
                    total: cfg.members,
                    controllers: controllers.clone(),
                    current: p,
                    phase: if cfg.seed_cold {
                        Phase::Idle
                    } else {
                        Phase::Joining
                    },
                    joined: 0,
                    hot_leaves_left: cfg.hot_leaves_per_pool,
                })
            })
            .collect();
        ScaleGroup {
            sim,
            cfg,
            directory,
            controllers,
            pool,
            movers: Vec::new(),
            joined_target: 0,
            left_target: 0,
        }
    }

    /// The configuration this deployment was built from.
    pub fn config(&self) -> &ScaleConfig {
        &self.cfg
    }

    /// Per-area controllers (inspection).
    pub fn controllers(&self) -> impl Iterator<Item = &ScaleAreaController> {
        self.controllers
            .iter()
            .map(|&id| self.sim.node::<ScaleAreaController>(id))
    }

    /// Node ids of the per-area controllers, in area order (fault
    /// plans target these).
    pub fn controller_ids(&self) -> &[NodeId] {
        &self.controllers
    }

    /// The journal directory (durable mode only).
    pub fn directory(&self) -> Option<&ScaleDirectory> {
        self.directory.map(|id| self.sim.node::<ScaleDirectory>(id))
    }

    /// Logical member `m`'s home area under the round-robin policy.
    pub fn area_of(&self, logical: u64) -> usize {
        (logical % self.cfg.areas.max(1) as u64) as usize
    }

    /// Members each area receives out of the first `total` logicals.
    fn area_share(&self, area: usize, total: u64) -> u64 {
        let areas = self.cfg.areas.max(1) as u64;
        total / areas + u64::from((area as u64) < total % areas)
    }

    /// Seeds the entire logical population cold, closed-form: every
    /// area charges its round-robin share of joins (at sizes `1..=n`)
    /// into both the model and the stats ledger without any simulation
    /// events, then checkpoints. The storm scenarios start here.
    pub fn seed_cold_population(&mut self) {
        for a in 0..self.controllers.len() {
            let share = self.area_share(a, self.cfg.members);
            let id = self.controllers[a];
            self.sim.invoke(id, |node: &mut ScaleAreaController, ctx| {
                node.seed(ctx, share);
            });
            if let Some(dir) = self.directory {
                self.sim.node_mut::<ScaleDirectory>(dir).set_seeded(a, share);
            }
        }
        self.joined_target = self.cfg.members;
    }

    fn stall_with(
        &self,
        phase: &'static str,
        start_events: u64,
        stuck: u64,
        pick: impl Fn(usize, &ScaleAreaController, bool) -> bool,
    ) -> ScaleStall {
        let mut residue = Vec::new();
        for (a, &id) in self.controllers.iter().enumerate() {
            let crashed = self.sim.is_crashed(id);
            let ctrl = self.sim.node::<ScaleAreaController>(id);
            if pick(a, ctrl, crashed) {
                residue.push(AreaResidue {
                    area: a,
                    hot: ctrl.hot_members(),
                    cold: ctrl.cold().cold_members(),
                    joins: ctrl.joins(),
                    converged: ctrl.converged(),
                    crashed,
                });
            }
        }
        ScaleStall {
            phase,
            events_executed: self.sim.events_processed().saturating_sub(start_events),
            members_stuck: stuck,
            residue,
        }
    }

    /// Drives the flash-crowd join to completion: every logical member
    /// joins hot and demotes cold. On stall (event budget exhausted or
    /// members stuck mid-handshake) returns the diagnostic residue.
    pub fn run_flash_crowd_join(&mut self) -> Result<(), ScaleStall> {
        let start = self.sim.events_processed();
        // Each logical member costs four deliveries plus slack.
        let budget = self.cfg.members.saturating_mul(8).max(1_000_000);
        let drained = self.sim.run_until_quiet(budget);
        self.joined_target = self.cfg.members;
        let joined: u64 = self.controllers().map(|c| c.joins()).sum();
        if drained && joined >= self.cfg.members {
            Ok(())
        } else {
            let stuck = self.cfg.members.saturating_sub(joined);
            Err(self.stall_with("flash-crowd join", start, stuck, |a, c, crashed| {
                crashed
                    || !c.converged()
                    || c.hot_members() > 0
                    || c.joins() < self.area_share(a, self.cfg.members)
            }))
        }
    }

    /// Drives the mass leave: pool members promote-then-leave their
    /// first assigned logicals hot, then every controller drains its
    /// cold aggregate through batch-leave timers. On stall returns the
    /// areas still holding members.
    pub fn run_mass_leave(&mut self) -> Result<(), ScaleStall> {
        let start = self.sim.events_processed();
        for i in 0..self.pool.len() {
            let id = self.pool[i];
            self.sim.invoke(id, |node: &mut PoolMember, ctx| {
                node.begin_leaving(ctx);
            });
        }
        let hot_budget = (self.pool.len() as u64)
            .saturating_mul(self.cfg.hot_leaves_per_pool)
            .saturating_mul(8)
            .max(1_000_000);
        let mut drained = self.sim.run_until_quiet(hot_budget);
        for i in 0..self.controllers.len() {
            let id = self.controllers[i];
            self.sim.invoke(id, |node: &mut ScaleAreaController, ctx| {
                let area = node.area as u64;
                ControllerTimer::ColdBatch.arm(ctx, Duration::from_millis(1 + area % 13));
            });
        }
        let batches = self
            .cfg
            .members
            .div_ceil(self.cfg.cold_batch.max(1))
            .saturating_add(self.cfg.areas as u64);
        drained &= self.sim.run_until_quiet(batches.saturating_mul(8).max(1_000_000));
        self.left_target = self.joined_target;
        let live = self.live_members();
        if drained && live == 0 {
            Ok(())
        } else {
            Err(self.stall_with("mass leave", start, live, |_, c, crashed| {
                crashed || !c.converged() || c.live_members() > 0
            }))
        }
    }

    fn movers_finished(&self) -> bool {
        self.movers
            .iter()
            .all(|&id| self.sim.node::<Mover>(id).finished())
    }

    fn total_moves_done(&self) -> u64 {
        self.movers
            .iter()
            .map(|&id| self.sim.node::<Mover>(id).moves_done())
            .sum()
    }

    fn controllers_converged(&self) -> bool {
        self.controllers.iter().all(|&id| {
            !self.sim.is_crashed(id) && self.sim.node::<ScaleAreaController>(id).converged()
        })
    }

    /// Runs a mobility storm: `moves` inter-area ticket rejoins driven
    /// by the hot pool's [`Mover`] nodes while `plan`'s faults hit the
    /// area controllers mid-storm. Requires a seeded (or fully joined)
    /// population and at least two areas; at most one storm per group.
    ///
    /// Returns the per-fault recovery measurements, or a [`ScaleStall`]
    /// when moves stop making progress after the plan is exhausted
    /// (e.g. a crashed controller the plan never restarted).
    pub fn run_mobility_storm(
        &mut self,
        moves: u64,
        plan: &FaultPlan,
    ) -> Result<MobilityReport, ScaleStall> {
        let start_events = self.sim.events_processed();
        if self.cfg.areas < 2 || moves > self.cfg.members || !self.movers.is_empty() {
            return Err(self.stall_with("mobility storm setup", start_events, moves, |_, _, _| {
                false
            }));
        }
        let pool = self.cfg.hot_pool.max(1) as u64;
        for i in 0..pool {
            let assigned = if i < moves {
                (moves - i).div_ceil(pool)
            } else {
                0
            };
            let mover = Mover {
                index: i,
                pool,
                assigned,
                areas: self.cfg.areas as u64,
                controllers: self.controllers.clone(),
                done: 0,
                stage: MoveStage::Out,
                retry: Duration::from_millis(self.cfg.retry_ms.max(1) + i % 11),
                active: false,
                last_sweep: (u64::MAX, MoveStage::Out),
            };
            self.movers.push(self.sim.add_node(mover));
        }
        for i in 0..self.movers.len() {
            let id = self.movers[i];
            self.sim.invoke(id, |node: &mut Mover, ctx| node.begin(ctx));
        }

        let mut driver = ChaosDriver::new(plan.clone());
        let node_area: BTreeMap<NodeId, usize> = self
            .controllers
            .iter()
            .enumerate()
            .map(|(a, &id)| (id, a))
            .collect();
        // (area, crash µs, ledger bytes) at each controller crash.
        let mut crash_samples: Vec<(usize, u64, u64)> = Vec::new();

        let slice = Duration::from_millis(200);
        // Stall heuristic: once the plan is exhausted, this many slices
        // without a single completed move means the storm is wedged.
        let grace_slices = 250u32;
        let max_slices = 40_000u32;
        let mut idle_slices = 0u32;
        let mut last_done = self.total_moves_done();
        let mut completed = false;
        for _ in 0..max_slices {
            let deadline = self.sim.now() + slice;
            driver.run_until_observed(&mut self.sim, deadline, |sim, tf| {
                if let FaultSpec::Crash(n) = tf.fault {
                    if let Some(&area) = node_area.get(&n) {
                        let bytes = sim.stats().counter("scale-rekey-multicast-bytes")
                            + sim.stats().counter("scale-rekey-unicast-bytes");
                        crash_samples.push((area, tf.at.as_micros(), bytes));
                    }
                }
            });
            if driver.finished() && self.movers_finished() && self.controllers_converged() {
                // Drain the remaining acks and retry timers.
                let budget = moves.saturating_mul(16).max(1_000_000);
                completed = self.sim.run_until_quiet(budget);
                break;
            }
            let done = self.total_moves_done();
            if driver.finished() && done == last_done {
                idle_slices += 1;
                if idle_slices > grace_slices {
                    break;
                }
            } else {
                idle_slices = 0;
            }
            last_done = done;
        }
        if !completed {
            let stuck = moves.saturating_sub(self.total_moves_done());
            return Err(
                self.stall_with("mobility storm", start_events, stuck, |_, c, crashed| {
                    crashed || !c.converged() || c.hot_members() > 0
                }),
            );
        }

        // Pair each crash sample with the controller's matching
        // recovery snapshot, in per-area time order.
        let mut per_area: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for &(area, at, bytes) in &crash_samples {
            per_area.entry(area).or_default().push((at, bytes));
        }
        let mut recoveries = Vec::new();
        for (a, &id) in self.controllers.iter().enumerate() {
            let Some(crashes) = per_area.get(&a) else {
                continue;
            };
            let ctrl = self.sim.node::<ScaleAreaController>(id);
            for (&(at, bytes), &(rec_at, rec_bytes)) in
                crashes.iter().zip(ctrl.recovery_samples())
            {
                recoveries.push(FaultRecovery {
                    area: a,
                    crash_at_micros: at,
                    recovery_micros: rec_at.as_micros().saturating_sub(at),
                    degraded_bytes: rec_bytes.saturating_sub(bytes),
                });
            }
        }
        recoveries.sort_by_key(|r| (r.crash_at_micros, r.area));

        let mut report = MobilityReport {
            moves: self.total_moves_done(),
            faults_applied: plan.faults().len() as u64,
            crashes: crash_samples.len() as u64,
            partitions: 0,
            storage_faults: 0,
            recoveries,
        };
        for tf in plan.faults() {
            #[expect(
                clippy::wildcard_enum_match_arm,
                reason = "a tally, not timer dispatch: every other fault counts as neither"
            )]
            match tf.fault {
                FaultSpec::Partition(_, label) if label > 0 => report.partitions += 1,
                FaultSpec::StorageLostTail(_)
                | FaultSpec::StorageTorn(_)
                | FaultSpec::CorruptCheckpoint(_) => report.storage_faults += 1,
                _ => {}
            }
        }
        Ok(report)
    }

    /// Builds a deterministic fault plan of `episodes` fault episodes
    /// over `horizon`, cycling crash/restart, partition/heal and
    /// storage-fault+crash+restart+heal against the area controllers.
    /// Episodes never overlap on one node (one failure domain at a
    /// time per controller — lying fsync *and* a partition on the same
    /// node could lose acked events unrecoverably, which is outside
    /// the takeover model this harness reproduces), and every episode
    /// cleans itself up, so the plan ends with all areas healthy.
    pub fn mobility_fault_plan(&self, episodes: usize, seed: u64, horizon: Duration) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let n = self.controllers.len();
        if n == 0 || episodes == 0 {
            return plan;
        }
        let mut rng = Drbg::from_seed(seed ^ 0x6d6f_6269_6c69_7479); // "mobility"
        let span_us = horizon.as_micros().max(1);
        let step = (span_us / (episodes as u64 + 1)).max(1);
        let mut busy_until = vec![0u64; n];
        for ep in 0..episodes {
            let t = step.saturating_mul(ep as u64 + 1);
            // Pick a controller that has no episode in flight.
            let mut a = rng.gen_range(n as u64) as usize;
            let mut probes = 0;
            while busy_until[a] > t && probes < n {
                a = (a + 1) % n;
                probes += 1;
            }
            if busy_until[a] > t {
                continue; // every controller busy: skip this slot
            }
            let node = self.controllers[a];
            let down = Duration::from_millis(150 + rng.gen_range(100));
            let at = Time::from_micros(t);
            match ep % 3 {
                0 => {
                    plan.push(at, FaultSpec::Crash(node));
                    plan.push(at + down, FaultSpec::Restart(node));
                }
                1 => {
                    let label = 1 + (ep % 3) as u32;
                    plan.push(at, FaultSpec::Partition(node, label));
                    plan.push(at + down, FaultSpec::Partition(node, 0));
                }
                _ => {
                    let storage = match (ep / 3) % 3 {
                        0 => FaultSpec::StorageLostTail(node),
                        1 => FaultSpec::StorageTorn(node),
                        _ => FaultSpec::CorruptCheckpoint(node),
                    };
                    plan.push(at, storage);
                    let crash_at = at + Duration::from_millis(60 + rng.gen_range(40));
                    plan.push(crash_at, FaultSpec::Crash(node));
                    plan.push(crash_at + down, FaultSpec::Restart(node));
                    plan.push(
                        crash_at + down + Duration::from_millis(5),
                        FaultSpec::StorageHeal(node),
                    );
                }
            }
            busy_until[a] = t + down.as_micros() + step;
        }
        // Belt and braces: whatever happened, end with a healed net.
        plan.push(Time::from_micros(span_us), FaultSpec::HealPartitions);
        plan
    }

    /// Logical members expected to have joined so far.
    pub fn joined_target(&self) -> u64 {
        self.joined_target
    }

    /// Logical members expected to have left so far.
    pub fn left_target(&self) -> u64 {
        self.left_target
    }

    /// Combined live membership across every area (cold + hot).
    pub fn live_members(&self) -> u64 {
        self.controllers().map(|c| c.live_members()).sum()
    }

    /// Closed-form controller storage summed across areas (the paper's
    /// storage axis at the current population).
    pub fn controller_storage_bytes(&self) -> u64 {
        self.controllers()
            .map(|c| c.cold().controller_storage_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_round_trips() {
        let journal = vec![
            ScaleEvent::Join(1),
            ScaleEvent::Promote(1),
            ScaleEvent::HotLeave(1),
            ScaleEvent::ColdBatch(42),
        ];
        let bytes = encode_checkpoint(7, &journal);
        assert_eq!(decode_checkpoint(&bytes), Some((7, journal)));
    }

    /// Regression (found by the `area-replay` fuzz target): a corrupt
    /// checkpoint whose event count didn't match its body used to size
    /// a `Vec::with_capacity` straight from the attacker-controlled
    /// count — a capacity overflow panic (or OOM abort) instead of a
    /// clean fallback. The fixture lives in
    /// `tests/corpus/area-replay/regression-inflated-count.bin`.
    #[test]
    fn decode_checkpoint_rejects_inflated_event_count() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 3); // seeded
        put_u64(&mut bytes, u64::MAX); // claimed events, no body
        assert_eq!(decode_checkpoint(&bytes), None);
        // A count merely off-by-one from the body is just as corrupt.
        let mut bytes = encode_checkpoint(3, &[ScaleEvent::Join(1)]);
        bytes[8] = 2;
        assert_eq!(decode_checkpoint(&bytes), None);
    }

    #[test]
    fn decode_checkpoint_rejects_truncated_and_trailing_bytes() {
        let good = encode_checkpoint(1, &[ScaleEvent::Join(1), ScaleEvent::MoveOut(2)]);
        for cut in 0..good.len() {
            assert_eq!(decode_checkpoint(&good[..cut]), None, "cut at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_checkpoint(&trailing), None);
        assert!(decode_checkpoint(&good).is_some());
    }

    #[test]
    fn decode_checkpoint_rejects_bad_event_kind() {
        let mut bytes = encode_checkpoint(0, &[ScaleEvent::Join(9)]);
        bytes[16] = 0xFF; // unknown event kind
        assert_eq!(decode_checkpoint(&bytes), None);
    }
}
