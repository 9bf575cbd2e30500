//! The simulator core: node table, event loop, and failure injection.

use crate::context::{Action, Context, MsgToken};
use crate::event::{Event, EventKind, EventQueue, Payload, Transport};
use crate::id::{GroupId, NodeId};
use crate::latency::LatencyModel;
use crate::stats::Stats;
use crate::storage::{FaultyStore, SimStore, StableStore, StoreFault};
use crate::time::{Duration, Time};
use crate::topology::Topology;
use crate::trace::{DropReason, Trace, TraceEvent};
use mykil_crypto::drbg::Drbg;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A simulated process. Implementors are area controllers, registration
/// servers, group members, or baseline-protocol nodes.
///
/// All callbacks receive a [`Context`] through which every effect (send,
/// multicast, timer, group membership) is expressed.
pub trait Node: Any {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called after the node recovers from a crash (see
    /// [`Simulator::restart`]). A crash retires every timer the node had
    /// pending and wipes volatile state (see
    /// [`Node::on_crashed_volatile_reset`]), so implementors must re-arm
    /// their periodic timers here and reconstruct state from stable
    /// storage ([`Context::load`]) and/or resynchronize with peers.
    fn on_restarted(&mut self, _ctx: &mut Context<'_>) {}

    /// Called by [`Simulator::crash`] at the moment of the crash: the
    /// node must discard every field that a real process would lose with
    /// its address space, keeping only what models durable local
    /// configuration (keypair, deployment config, device identity).
    /// No [`Context`] is provided — a crashing process performs no
    /// effects; reconstruction happens in [`Node::on_restarted`].
    fn on_crashed_volatile_reset(&mut self) {}

    /// Called when a message addressed to this node arrives.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}

    /// Called when a [`Context::send_reliable`] message is acknowledged
    /// by `peer`'s network layer (the peer received it; its `on_message`
    /// ran unless the frame was a duplicate).
    fn on_reliable_acked(&mut self, _ctx: &mut Context<'_>, _peer: NodeId, _msg: MsgToken) {}

    /// Called when a [`Context::send_reliable`] message exhausts its
    /// retry budget without an acknowledgement; the peer is presumed
    /// unreachable. `kind` is the accounting kind the send was tagged
    /// with.
    fn on_reliable_expired(
        &mut self,
        _ctx: &mut Context<'_>,
        _to: NodeId,
        _kind: &'static str,
        _msg: MsgToken,
    ) {
    }
}

/// Messages a receiver remembers per sender for duplicate suppression.
const DEDUP_WINDOW: usize = 128;

/// Nominal wire size of a reliable-layer ack (tag byte + u64 id).
const ACK_WIRE_BYTES: usize = 9;

/// A reliable send awaiting acknowledgement.
#[derive(Debug)]
struct PendingReliable {
    src: NodeId,
    to: NodeId,
    kind: &'static str,
    bytes: Arc<[u8]>,
    /// Transmissions made so far (the initial send counts as 1).
    attempts: u32,
}

/// Recently seen reliable msg ids from one peer (insertion-ordered so
/// the oldest is evicted when the window is full). A window lives as
/// long as its `(receiver, sender)` pair, holding at most
/// `DEDUP_WINDOW` ids.
#[derive(Debug, Default)]
struct DedupWindow {
    seen: BTreeSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    /// Records `msg_id`; returns `false` when it was already present.
    fn fresh(&mut self, msg_id: u64) -> bool {
        if !self.seen.insert(msg_id) {
            return false;
        }
        self.order.push_back(msg_id);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

/// Builds a node's stable-storage backend (see
/// [`Simulator::set_storage_factory`]).
pub type StorageFactory = Box<dyn FnMut(NodeId) -> Box<dyn StableStore> + Send>;

/// Deterministic discrete-event simulator.
///
/// See the [crate docs](crate) for an overview and example.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Per-node stable storage, parallel to `nodes`: the fault engine
    /// over the node's backend. Survives crashes (modulo injected
    /// storage faults) while volatile state does not.
    storage: Vec<FaultyStore>,
    /// Builds the storage backend for each node added from here on;
    /// `None` means the default in-memory [`SimStore`].
    storage_factory: Option<StorageFactory>,
    queue: EventQueue,
    topo: Topology,
    groups: Vec<BTreeSet<NodeId>>,
    stats: Stats,
    rng: Drbg,
    now: Time,
    latency: LatencyModel,
    next_msg_id: u64,
    pending_reliable: BTreeMap<u64, PendingReliable>,
    dedup: BTreeMap<(NodeId, NodeId), DedupWindow>,
    reliable_base: Duration,
    reliable_max_attempts: u32,
    events_processed: u64,
    trace: Option<Trace>,
    dup_per_mille: u32,
    reorder_per_mille: u32,
    reorder_window: Duration,
    /// Per-node timer scale in permille (1000 = nominal); nodes absent
    /// from the map run their timers at nominal speed.
    timer_skew: BTreeMap<NodeId, u32>,
    /// Completed crash/restart cycles per node, parallel to `nodes`:
    /// the number of its current incarnation, which its timer and
    /// restart events carry (see [`Self::restart_count`]).
    incarnations: Vec<u64>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator with LAN latency and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_latency(seed, LatencyModel::lan())
    }

    /// Creates a simulator with an explicit latency model.
    pub fn with_latency(seed: u64, latency: LatencyModel) -> Self {
        Simulator {
            nodes: Vec::new(),
            storage: Vec::new(),
            storage_factory: None,
            queue: EventQueue::new(),
            topo: Topology::new(),
            groups: Vec::new(),
            stats: Stats::new(),
            rng: Drbg::from_seed(seed),
            now: Time::ZERO,
            latency,
            next_msg_id: 0,
            pending_reliable: BTreeMap::new(),
            dedup: BTreeMap::new(),
            reliable_base: Duration::from_millis(50),
            reliable_max_attempts: 6,
            events_processed: 0,
            trace: None,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            reorder_window: Duration::ZERO,
            timer_skew: BTreeMap::new(),
            incarnations: Vec::new(),
        }
    }

    /// Each `(node, tag)` with two or more live firings queued (live:
    /// the node is up and in the incarnation that armed it), i.e. a
    /// periodic timer running as two chains. The protocol's roles arm
    /// each kind at most once; chaos soaks assert this is empty.
    pub fn duplicate_timers(&self) -> Vec<(NodeId, u64)> {
        let mut live: BTreeMap<(NodeId, u64), usize> = BTreeMap::new();
        for event in self.queue.iter() {
            if let EventKind::Timer { tag, incarnation } = event.kind {
                if self.is_current(event.dst, incarnation) {
                    *live.entry((event.dst, tag)).or_default() += 1;
                }
            }
        }
        live.into_iter()
            .filter(|&(_, firings)| firings > 1)
            .map(|(timer, _)| timer)
            .collect()
    }

    /// Configures the reliable-delivery layer: first retransmission
    /// after `base` (doubling each attempt), giving up after
    /// `max_attempts` total transmissions. Defaults: 50 ms, 6 attempts.
    pub fn set_reliable_policy(&mut self, base: Duration, max_attempts: u32) {
        self.reliable_base = base;
        self.reliable_max_attempts = max_attempts.max(1);
    }

    /// Adds a node; its [`Node::on_start`] runs at the current time.
    /// Its storage backend — the factory's product, or a [`SimStore`]
    /// — goes behind a [`FaultyStore`].
    pub fn add_node<N: Node>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.incarnations.push(0);
        self.storage.push(FaultyStore::new(match &mut self.storage_factory {
            Some(make) => make(id),
            None => Box::new(SimStore::new()),
        }));
        self.queue.push(self.now, id, EventKind::Start);
        id
    }

    /// Creates an empty multicast group.
    pub fn create_group(&mut self) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(BTreeSet::new());
        id
    }

    /// Current members of a multicast group.
    ///
    /// # Panics
    ///
    /// Panics for a `GroupId` not created by this simulator.
    pub fn group_members(&self, group: GroupId) -> &BTreeSet<NodeId> {
        &self.groups[group.index()]
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable access to statistics (e.g. to [`Stats::reset`] between
    /// measurement phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Starts recording an event trace, keeping the most recent
    /// `capacity` events (see [`TraceEvent`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace events, oldest first (empty when tracing is
    /// off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .map(|t| t.events().cloned().collect())
            .unwrap_or_default()
    }

    /// Total events recorded since tracing was enabled (including ones
    /// evicted from the bounded buffer).
    pub fn trace_recorded(&self) -> u64 {
        self.trace.as_ref().map(|t| t.recorded()).unwrap_or(0)
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(event);
        }
    }

    /// Records a fault-injection note into the trace (used by the chaos
    /// harness so replayed traces show what was done to the network).
    pub(crate) fn record_fault(&mut self, desc: String) {
        let at = self.now;
        self.record(TraceEvent::FaultInjected { at, desc });
    }

    // ---- failure injection (Section IV fault model) ----

    /// Moves `node` into partition `label`; nodes communicate only
    /// within the same label (0 = default partition).
    pub fn partition(&mut self, node: NodeId, label: u32) {
        self.topo.set_partition(node, label);
    }

    /// Heals all partitions.
    pub fn heal_partitions(&mut self) {
        self.topo.heal_partitions();
    }

    /// Crashes a node: it stops sending and receiving, its incarnation
    /// ends (no timer it had pending fires, nor a restart notification
    /// still queued), and its pending reliable sends are cancelled (a
    /// crashed sender's transport state dies with it; each cancellation
    /// bumps the `reliable-cancelled` stat).
    ///
    /// The node's *volatile* state dies with the process: any armed
    /// storage fault is applied to its [`StableStore`] (unsynced tail
    /// lost, possibly a torn final record) and then
    /// [`Node::on_crashed_volatile_reset`] wipes the in-memory struct
    /// down to durable local configuration. [`Node::on_restarted`] must
    /// reconstruct from [`Context::load`] and/or peers.
    pub fn crash(&mut self, node: NodeId) {
        let was_crashed = self.topo.is_crashed(node);
        self.topo.crash(node);
        let dead: Vec<u64> = self
            .pending_reliable
            .iter()
            .filter(|(_, p)| p.src == node)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.pending_reliable.remove(&id);
            self.stats.bump("reliable-cancelled", 1);
        }
        if was_crashed {
            return; // already down: storage faults and the wipe already ran
        }
        if let Some(stat) = self.storage[node.index()].on_crash() {
            self.stats.bump(stat, 1);
            self.record_fault(format!("{stat} node {}", node.index()));
        }
        if let Some(boxed) = self.nodes[node.index()].as_deref_mut() {
            boxed.on_crashed_volatile_reset();
        }
    }

    /// Restarts a crashed node and returns `true` when the node was
    /// actually down (`recovered`); in that case a new incarnation
    /// begins and [`Node::on_restarted`] is scheduled so the node can
    /// re-arm timers and resynchronize (once, for the newest
    /// incarnation). Restarting a live node is a no-op returning `false`.
    pub fn restart(&mut self, node: NodeId) -> bool {
        let recovered = self.topo.is_crashed(node);
        self.topo.restart(node);
        if recovered {
            self.incarnations[node.index()] += 1;
            let incarnation = self.incarnations[node.index()];
            self.queue
                .push(self.now, node, EventKind::Restarted { incarnation });
        }
        recovered
    }

    /// Completed crash/restart cycles for `node` (0 when it has never
    /// been restarted): the number of its current incarnation. Recovery
    /// may roll volatile counters backwards (a corrupt checkpoint falls
    /// back to an older slot), so monotonicity checkers use this to
    /// scope their baselines to one incarnation.
    pub fn restart_count(&self, node: NodeId) -> u64 {
        self.incarnations[node.index()]
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.topo.is_crashed(node)
    }

    /// Whether an event queued by `node`'s `incarnation`-th run may
    /// still reach it: the node is up and has not restarted since.
    fn is_current(&self, node: NodeId, incarnation: u64) -> bool {
        !self.topo.is_crashed(node) && incarnation == self.restart_count(node)
    }

    /// Cuts the directed link `from -> to`.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) {
        self.topo.cut_link(from, to);
    }

    /// Restores the directed link `from -> to`.
    pub fn restore_link(&mut self, from: NodeId, to: NodeId) {
        self.topo.restore_link(from, to);
    }

    /// Sets uniform message loss in permille (0–1000).
    pub fn set_loss_per_mille(&mut self, per_mille: u32) {
        self.topo.set_loss_per_mille(per_mille);
    }

    /// Sets the probability (permille, 0–1000) that a delivered message
    /// is duplicated: a second copy arrives with independently sampled
    /// latency. Reliable frames are shielded by the dedup window; plain
    /// sends see the duplicate.
    pub fn set_duplication_per_mille(&mut self, per_mille: u32) {
        self.dup_per_mille = per_mille.min(1000);
    }

    /// Sets the probability (permille, 0–1000) that a delivered message
    /// is delayed by a uniform extra amount up to `window`, which
    /// reorders it against later traffic.
    pub fn set_reorder(&mut self, per_mille: u32, window: Duration) {
        self.reorder_per_mille = per_mille.min(1000);
        self.reorder_window = window;
    }

    /// Scales all future timers set by `node` to `per_mille`/1000 of
    /// their nominal delay (1000 = nominal, 1500 = clock running 50%
    /// slow). Models alive-timer skew between protocol participants.
    pub fn set_timer_skew_per_mille(&mut self, node: NodeId, per_mille: u32) {
        if per_mille == 1000 {
            self.timer_skew.remove(&node);
        } else {
            self.timer_skew.insert(node, per_mille.max(1));
        }
    }

    /// Read access to a node's stable storage (e.g. for invariant
    /// checkers replaying a durable log).
    pub fn storage(&self, node: NodeId) -> &dyn StableStore {
        &self.storage[node.index()]
    }

    /// Mutable access to a node's stable storage (fault injection:
    /// arming lying syncs, corrupting checkpoints, healing).
    pub fn storage_mut(&mut self, node: NodeId) -> &mut dyn StableStore {
        &mut self.storage[node.index()]
    }

    /// Installs a factory that builds the stable-storage backend for
    /// every node added *from here on* (already-added nodes keep their
    /// stores). Without a factory every node gets an in-memory
    /// [`SimStore`]; deployments that want real files install one
    /// returning [`FileStore`](crate::FileStore)s. Either way
    /// [`Self::add_node`] puts the backend behind the fault engine, so
    /// every chaos storage verb works on it.
    pub fn set_storage_factory(
        &mut self,
        make: impl FnMut(NodeId) -> Box<dyn StableStore> + Send + 'static,
    ) {
        self.storage_factory = Some(Box::new(make));
    }

    /// Injects a storage fault into `node`'s device.
    pub fn inject_storage_fault(&mut self, node: NodeId, fault: StoreFault) {
        self.storage[node.index()].inject(fault);
    }

    // ---- node access ----

    /// Immutable access to a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics when the id is stale or the type does not match.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: harness accessor, not a protocol path"
    )]
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        let any: &dyn Any = self.nodes[id.index()]
            .as_deref()
            .expect("node is mid-callback");
        any.downcast_ref::<N>().expect("node type mismatch")
    }

    /// Mutable access to a node downcast to its concrete type.
    ///
    /// Prefer [`Self::invoke`] when the mutation needs to send messages
    /// or set timers.
    ///
    /// # Panics
    ///
    /// Panics when the id is stale or the type does not match.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: harness accessor, not a protocol path"
    )]
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> &mut N {
        let any: &mut dyn Any = self.nodes[id.index()]
            .as_deref_mut()
            .expect("node is mid-callback");
        any.downcast_mut::<N>().expect("node type mismatch")
    }

    /// Runs a closure against a node with a full [`Context`], applying
    /// any effects it produces. This is how test harnesses trigger
    /// protocol actions ("member 7: start a rejoin now").
    ///
    /// # Panics
    ///
    /// Panics when the id is stale or the type does not match.
    pub fn invoke<N: Node, T>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<'_>) -> T,
    ) -> T {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: harness accessor, not a protocol path"
        )]
        let mut boxed = self.nodes[id.index()].take().expect("node is mid-callback");
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            compute: Duration::ZERO,
            next_msg_id: &mut self.next_msg_id,
            storage: &mut self.storage[id.index()],
        };
        let any: &mut dyn Any = boxed.as_mut();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: harness accessor, not a protocol path"
        )]
        let node = any.downcast_mut::<N>().expect("node type mismatch");
        let out = f(node, &mut ctx);
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes[id.index()] = Some(boxed);
        self.apply_actions(id, actions);
        out
    }

    // ---- event loop ----

    /// Processes events until the queue is empty or `deadline` passes;
    /// time ends at `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Processes events until the queue drains (the network goes quiet),
    /// up to a safety cap of `max` events.
    ///
    /// Returns `true` when the queue drained, `false` when the cap hit
    /// (e.g. periodic timers keep the queue non-empty forever).
    pub fn run_until_quiet(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if self.queue.len() == 0 {
                return true;
            }
            self.step();
        }
        self.queue.len() == 0
    }

    /// Processes a single event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "event queue went backwards");
        self.now = event.at;
        self.events_processed += 1;
        self.dispatch(event);
        true
    }

    fn dispatch(&mut self, event: Event) {
        let Event { dst, kind, .. } = event;
        // Drop deliveries for crashed nodes (messages in flight to a
        // node that crashed are lost, like a closed TCP socket), and the
        // timers and restart notifications of an ended incarnation.
        match &kind {
            EventKind::Deliver {
                from, kind: mkind, ..
            } if self.topo.is_crashed(dst) => {
                let (from, mkind) = (*from, *mkind);
                self.record(TraceEvent::Dropped {
                    at: self.now,
                    from,
                    to: dst,
                    kind: mkind,
                    reason: DropReason::Crashed,
                });
                return;
            }
            EventKind::Timer { incarnation, .. } | EventKind::Restarted { incarnation }
                if !self.is_current(dst, *incarnation) =>
            {
                return;
            }
            EventKind::Retransmit { msg_id } => {
                let msg_id = *msg_id;
                self.handle_retransmit(msg_id);
                return;
            }
            _ => {}
        }
        // Reliable-layer frames are handled by the destination's
        // "network layer" before (or instead of) the node callback.
        match &kind {
            EventKind::Deliver {
                from,
                transport: Transport::Ack { msg_id },
                ..
            } => {
                let (from, msg_id) = (*from, *msg_id);
                if self.pending_reliable.remove(&msg_id).is_some() {
                    self.stats.bump("reliable-acked", 1);
                    self.with_node_ctx(dst, |node, ctx| {
                        node.on_reliable_acked(ctx, from, MsgToken(msg_id));
                    });
                }
                return;
            }
            EventKind::Deliver {
                from,
                kind: mkind,
                transport: Transport::Reliable { msg_id },
                ..
            } => {
                let (from, msg_id, mkind) = (*from, *msg_id, *mkind);
                // Always ack — a duplicate usually means our previous
                // ack was lost, so the sender needs another one.
                self.send_ack(dst, from, msg_id);
                if !self.dedup.entry((dst, from)).or_default().fresh(msg_id) {
                    self.stats.bump("reliable-dup-dropped", 1);
                    self.record(TraceEvent::Dropped {
                        at: self.now,
                        from,
                        to: dst,
                        kind: mkind,
                        reason: DropReason::Duplicate,
                    });
                    return;
                }
                // Fresh: fall through to normal delivery below.
            }
            _ => {}
        }
        let Some(mut boxed) = self.nodes[dst.index()].take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            self_id: dst,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            compute: Duration::ZERO,
            next_msg_id: &mut self.next_msg_id,
            storage: &mut self.storage[dst.index()],
        };
        let trace_note = match &kind {
            EventKind::Deliver {
                from,
                bytes,
                kind: mkind,
                ..
            } => Some(TraceEvent::Delivered {
                at: self.now,
                from: *from,
                to: dst,
                kind: mkind,
                len: bytes.len(),
            }),
            EventKind::Timer { tag, .. } => Some(TraceEvent::TimerFired {
                at: self.now,
                node: dst,
                tag: *tag,
            }),
            EventKind::Start | EventKind::Restarted { .. } | EventKind::Retransmit { .. } => None,
        };
        match kind {
            EventKind::Deliver { from, bytes, .. } => boxed.on_message(&mut ctx, from, &bytes),
            EventKind::Timer { tag, .. } => boxed.on_timer(&mut ctx, tag),
            EventKind::Start => boxed.on_start(&mut ctx),
            EventKind::Restarted { .. } => boxed.on_restarted(&mut ctx),
            EventKind::Retransmit { .. } => {} // handled above
        }
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes[dst.index()] = Some(boxed);
        if let Some(note) = trace_note {
            self.record(note);
        }
        self.apply_actions(dst, actions);
    }

    /// Runs a node callback with a fresh [`Context`] and applies its
    /// effects (internal cousin of [`Self::invoke`] for trait-object
    /// callbacks like ack/expiry notifications).
    fn with_node_ctx(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Context<'_>)) {
        let Some(mut boxed) = self.nodes[id.index()].take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            compute: Duration::ZERO,
            next_msg_id: &mut self.next_msg_id,
            storage: &mut self.storage[id.index()],
        };
        f(boxed.as_mut(), &mut ctx);
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes[id.index()] = Some(boxed);
        self.apply_actions(id, actions);
    }

    /// Attempts one wire transmission, honouring the failure model.
    fn transmit(
        &mut self,
        src: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: Payload,
        after: Duration,
        transport: Transport,
    ) {
        match self.topo.delivery_verdict(src, to, &mut self.rng) {
            Ok(()) => {
                let mut delay = self.latency.sample(bytes.len(), &mut self.rng);
                // Chaos knobs consume randomness only when configured,
                // so runs without them stay byte-identical.
                if self.reorder_per_mille > 0
                    && self.rng.gen_range(1000) < self.reorder_per_mille as u64
                    && self.reorder_window > Duration::ZERO
                {
                    let extra = self.rng.gen_range(self.reorder_window.as_micros());
                    delay += Duration::from_micros(extra);
                }
                if self.dup_per_mille > 0 && self.rng.gen_range(1000) < self.dup_per_mille as u64 {
                    let dup_delay = self.latency.sample(bytes.len(), &mut self.rng);
                    self.queue.push(
                        self.now + after + dup_delay,
                        to,
                        EventKind::Deliver {
                            from: src,
                            bytes: bytes.clone(),
                            kind,
                            transport,
                        },
                    );
                }
                self.queue.push(
                    self.now + after + delay,
                    to,
                    EventKind::Deliver {
                        from: src,
                        bytes,
                        kind,
                        transport,
                    },
                );
            }
            Err(reason) => self.record(TraceEvent::Dropped {
                at: self.now,
                from: src,
                to,
                kind,
                reason,
            }),
        }
    }

    /// Emits the network-layer ack for a received reliable frame. Acks
    /// travel the same lossy network as everything else.
    fn send_ack(&mut self, acker: NodeId, to: NodeId, msg_id: u64) {
        self.stats.record_send("reliable-ack", ACK_WIRE_BYTES, 1);
        self.transmit(
            acker,
            to,
            "reliable-ack",
            Payload::Owned(Vec::new()),
            Duration::ZERO,
            Transport::Ack { msg_id },
        );
    }

    /// Backoff before the next retransmission after `attempts`
    /// transmissions: `base << (attempts - 1)`, saturating.
    fn backoff_after(&self, attempts: u32) -> Duration {
        let factor = 1u64 << (attempts - 1).min(16);
        Duration::from_micros(self.reliable_base.as_micros().saturating_mul(factor))
    }

    /// A retransmission timer fired: resend, or give up and notify.
    fn handle_retransmit(&mut self, msg_id: u64) {
        let Some(pending) = self.pending_reliable.get(&msg_id) else {
            return; // acknowledged or cancelled in the meantime
        };
        if pending.attempts >= self.reliable_max_attempts {
            #[expect(clippy::expect_used, reason = "presence checked by the guard above")]
            let pending = self.pending_reliable.remove(&msg_id).expect("checked above");
            self.stats.bump("reliable-expired", 1);
            if self.topo.is_crashed(pending.src) {
                return; // crashed senders learn nothing (like timers)
            }
            let (to, kind) = (pending.to, pending.kind);
            self.with_node_ctx(pending.src, |node, ctx| {
                node.on_reliable_expired(ctx, to, kind, MsgToken(msg_id));
            });
            return;
        }
        #[expect(clippy::expect_used, reason = "presence checked by the guard above")]
        let pending = self
            .pending_reliable
            .get_mut(&msg_id)
            .expect("checked above");
        pending.attempts += 1;
        let (src, to, kind, bytes, attempts) = (
            pending.src,
            pending.to,
            pending.kind,
            Payload::Shared(pending.bytes.clone()),
            pending.attempts,
        );
        self.stats.bump("reliable-retransmits", 1);
        self.stats.record_send(kind, bytes.len(), 1);
        self.record(TraceEvent::Retransmitted {
            at: self.now,
            from: src,
            to,
            kind,
            attempt: attempts,
        });
        self.transmit(
            src,
            to,
            kind,
            bytes,
            Duration::ZERO,
            Transport::Reliable { msg_id },
        );
        let next = self.backoff_after(attempts);
        self.queue
            .push(self.now + next, src, EventKind::Retransmit { msg_id });
    }

    fn apply_actions(&mut self, src: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send {
                    to,
                    kind,
                    bytes,
                    after,
                } => {
                    self.stats.record_send(kind, bytes.len(), 1);
                    let bytes = Payload::Owned(bytes);
                    self.transmit(src, to, kind, bytes, after, Transport::Plain);
                }
                Action::SendReliable {
                    to,
                    kind,
                    bytes,
                    msg_id,
                    after,
                } => {
                    self.stats.record_send(kind, bytes.len(), 1);
                    let bytes: Arc<[u8]> = bytes.into();
                    self.pending_reliable.insert(
                        msg_id,
                        PendingReliable {
                            src,
                            to,
                            kind,
                            bytes: bytes.clone(),
                            attempts: 1,
                        },
                    );
                    let bytes = Payload::Shared(bytes);
                    self.transmit(src, to, kind, bytes, after, Transport::Reliable { msg_id });
                    let next = self.backoff_after(1);
                    self.queue.push(
                        self.now + after + next,
                        src,
                        EventKind::Retransmit { msg_id },
                    );
                }
                Action::CancelReliable { msg_id } => {
                    self.pending_reliable.remove(&msg_id);
                }
                Action::Multicast {
                    group,
                    kind,
                    bytes,
                    after,
                } => {
                    // BTreeSet iteration is already ordered, so the
                    // delivery schedule is deterministic by construction.
                    let members: Vec<NodeId> = self.groups[group.index()]
                        .iter()
                        .copied()
                        .filter(|&n| n != src)
                        .collect();
                    self.stats.record_send(kind, bytes.len(), members.len());
                    let bytes = Payload::Shared(bytes.into());
                    for to in members {
                        self.transmit(src, to, kind, bytes.clone(), after, Transport::Plain);
                    }
                }
                Action::SetTimer { delay, tag, after } => {
                    let delay = match self.timer_skew.get(&src) {
                        Some(&per_mille) => Duration::from_micros(
                            delay.as_micros().saturating_mul(per_mille as u64) / 1000,
                        ),
                        None => delay,
                    };
                    let incarnation = self.restart_count(src);
                    self.queue.push(
                        self.now + after + delay,
                        src,
                        EventKind::Timer { tag, incarnation },
                    );
                }
                Action::JoinGroup { group } => {
                    self.groups[group.index()].insert(src);
                }
                Action::LeaveGroup { group } => {
                    self.groups[group.index()].remove(&src);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages and echoes pings.
    struct Echo {
        received: u32,
    }

    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
            self.received += 1;
            if bytes == b"ping" {
                ctx.send(from, "pong", b"pong".to_vec());
            }
        }
    }

    struct Pinger {
        target: NodeId,
        pongs: u32,
        pong_time: Option<Time>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.target, "ping", b"ping".to_vec());
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
            if bytes == b"pong" {
                self.pongs += 1;
                self.pong_time = Some(ctx.now());
            }
        }
    }

    fn ping_pong_sim(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let echo = sim.add_node(Echo { received: 0 });
        let pinger = sim.add_node(Pinger {
            target: echo,
            pongs: 0,
            pong_time: None,
        });
        (sim, echo, pinger)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, echo, pinger) = ping_pong_sim(1);
        sim.run_until(Time::from_millis(100));
        assert_eq!(sim.node::<Echo>(echo).received, 1);
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 1);
        // Two LAN hops: at least 2 * 200us.
        let t = sim.node::<Pinger>(pinger).pong_time.unwrap();
        assert!(t >= Time::from_micros(400));
        assert!(t <= Time::from_millis(2));
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut s1, _, p1) = ping_pong_sim(7);
        let (mut s2, _, p2) = ping_pong_sim(7);
        s1.run_until(Time::from_millis(10));
        s2.run_until(Time::from_millis(10));
        assert_eq!(
            s1.node::<Pinger>(p1).pong_time,
            s2.node::<Pinger>(p2).pong_time
        );
        assert_eq!(s1.events_processed(), s2.events_processed());
    }

    #[test]
    fn stats_account_sends() {
        let (mut sim, _, _) = ping_pong_sim(2);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.stats().kind("ping").messages_sent, 1);
        assert_eq!(sim.stats().kind("ping").bytes_sent, 4);
        assert_eq!(sim.stats().kind("pong").messages_sent, 1);
    }

    #[test]
    fn crash_blocks_delivery() {
        let (mut sim, echo, pinger) = ping_pong_sim(3);
        sim.crash(echo);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.node::<Echo>(echo).received, 0);
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 0);
        // Bytes are still counted as sent (transmission attempted).
        assert_eq!(sim.stats().kind("ping").messages_sent, 1);
    }

    #[test]
    fn partition_blocks_then_heals() {
        let (mut sim, echo, pinger) = ping_pong_sim(4);
        sim.partition(echo, 1);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 0);
        sim.heal_partitions();
        // Re-trigger a ping via invoke.
        let target = echo;
        sim.invoke(pinger, |p: &mut Pinger, ctx| {
            ctx.send(target, "ping", b"ping".to_vec());
            p.pongs = 0;
        });
        sim.run_until(Time::from_millis(20));
        assert_eq!(sim.node::<Pinger>(pinger).pongs, 1);
    }

    pub(super) struct Ticker {
        pub(super) fired: Vec<u64>,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(15), 3);
            ctx.set_timer(Duration::from_millis(5), 1);
            ctx.set_timer(Duration::from_millis(10), 2);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(5);
        let t = sim.add_node(Ticker { fired: Vec::new() });
        sim.run_until(Time::from_millis(100));
        assert_eq!(sim.node::<Ticker>(t).fired, vec![1, 2, 3]);
    }

    struct Caster {
        group: GroupId,
    }

    impl Node for Caster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.join_group(self.group);
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            ctx.multicast(self.group, "mc", vec![0xaa; 16]);
        }
    }

    struct Listener {
        group: GroupId,
        got: u32,
    }

    impl Node for Listener {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.join_group(self.group);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
            self.got += 1;
        }
    }

    #[test]
    fn multicast_reaches_members_not_sender() {
        let mut sim = Simulator::new(6);
        let g = sim.create_group();
        let caster = sim.add_node(Caster { group: g });
        let l1 = sim.add_node(Listener { group: g, got: 0 });
        let l2 = sim.add_node(Listener { group: g, got: 0 });
        let other_group = sim.create_group();
        let outsider = sim.add_node(Listener {
            group: other_group,
            got: 0,
        });
        sim.run_until(Time::from_millis(50));
        assert_eq!(sim.node::<Listener>(l1).got, 1);
        assert_eq!(sim.node::<Listener>(l2).got, 1);
        assert_eq!(sim.node::<Listener>(outsider).got, 0);
        // Multicast accounted once as sent, twice as delivered... plus
        // the sender itself is excluded.
        let mc = sim.stats().kind("mc");
        assert_eq!(mc.messages_sent, 1);
        assert_eq!(mc.bytes_sent, 16);
        assert_eq!(mc.messages_delivered, 2);
        assert_eq!(mc.bytes_delivered, 32);
        assert!(sim.group_members(g).contains(&caster));
    }

    #[test]
    fn a_multicast_is_one_buffer_for_all_its_receivers() {
        let mut sim = Simulator::new(6);
        let g = sim.create_group();
        let caster = sim.add_node(Caster { group: g });
        for _ in 0..3 {
            sim.add_node(Listener { group: g, got: 0 });
        }
        assert!(sim.run_until_quiet(1000));
        sim.invoke(caster, |c: &mut Caster, ctx| {
            ctx.multicast(c.group, "mc", vec![0xbb; 16]);
        });
        let mut in_flight = Vec::new();
        while let Some(event) = sim.queue.pop() {
            if let EventKind::Deliver {
                bytes: Payload::Shared(bytes),
                ..
            } = event.kind
            {
                in_flight.push(bytes);
            }
        }
        assert_eq!(in_flight.len(), 3);
        assert!(in_flight.iter().all(|b| Arc::ptr_eq(b, &in_flight[0])));
        assert_eq!(Arc::strong_count(&in_flight[0]), 3);
    }

    #[test]
    fn run_until_quiet_drains() {
        let (mut sim, _, _) = ping_pong_sim(8);
        assert!(sim.run_until_quiet(1000));
        assert_eq!(sim.events_processed(), 4); // 2 starts + 2 deliveries
    }

    #[test]
    fn cut_link_is_one_way() {
        let (mut sim, echo, pinger) = ping_pong_sim(9);
        sim.cut_link(NodeId::from_index(pinger.index()), echo);
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.node::<Echo>(echo).received, 0);
        sim.restore_link(NodeId::from_index(pinger.index()), echo);
        sim.invoke(pinger, |p: &mut Pinger, ctx| {
            let t = p.target;
            ctx.send(t, "ping", b"ping".to_vec());
        });
        sim.run_until(Time::from_millis(20));
        assert_eq!(sim.node::<Echo>(echo).received, 1);
    }

    #[test]
    fn compute_charge_delays_sends() {
        struct Slow {
            target: NodeId,
        }
        impl Node for Slow {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.charge_compute(Duration::from_millis(100));
                ctx.send(self.target, "x", vec![1]);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        }
        struct Sink {
            arrival: Option<Time>,
        }
        impl Node for Sink {
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
                self.arrival = Some(ctx.now());
            }
        }
        let mut sim = Simulator::new(10);
        let sink = sim.add_node(Sink { arrival: None });
        sim.add_node(Slow { target: sink });
        sim.run_until(Time::from_secs(1));
        let arrival = sim.node::<Sink>(sink).arrival.unwrap();
        assert!(arrival >= Time::from_millis(100), "{arrival}");
    }

    /// Counts messages in RAM, committing each to the WAL; a crash
    /// wipes the RAM counter and recovery must rebuild it from storage.
    struct DurableCounter {
        count: u32,
    }

    impl Node for DurableCounter {
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
            self.count += 1;
            ctx.wal_commit(bytes.to_vec());
        }
        fn on_crashed_volatile_reset(&mut self) {
            self.count = 0;
        }
        fn on_restarted(&mut self, ctx: &mut Context<'_>) {
            self.count = ctx.load().wal.len() as u32;
        }
    }

    #[test]
    fn crash_wipes_volatile_state_and_recovery_replays_storage() {
        let mut sim = Simulator::new(12);
        let n = sim.add_node(DurableCounter { count: 0 });
        let driver = sim.add_node(Silent2);
        for _ in 0..3 {
            sim.invoke(driver, |_: &mut Silent2, ctx| {
                ctx.send(n, "x", vec![1]);
            });
        }
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 3);

        sim.crash(n);
        // The wipe happened at crash time, not restart time.
        assert_eq!(sim.node::<DurableCounter>(n).count, 0);
        assert!(sim.restart(n));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 3, "recovery lost the log");

        // An armed lost-tail fault makes the next commits vanish.
        sim.storage_mut(n).inject(StoreFault::LostTail);
        sim.invoke(driver, |_: &mut Silent2, ctx| {
            ctx.send(n, "x", vec![2]);
        });
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 4);
        sim.crash(n);
        assert_eq!(sim.stats().counter("storage-lost-tail"), 1);
        assert!(sim.restart(n));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node::<DurableCounter>(n).count, 3, "lost tail came back");
    }

    struct Silent2;
    impl Node for Silent2 {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
    }

    #[test]
    fn lossy_network_drops_some() {
        let mut sim = Simulator::new(11);
        let g = sim.create_group();
        struct Blaster {
            group: GroupId,
        }
        impl Node for Blaster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.join_group(self.group);
                for _ in 0..100 {
                    ctx.multicast(self.group, "blast", vec![0; 8]);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        }
        let listener = sim.add_node(Listener { group: g, got: 0 });
        sim.add_node(Blaster { group: g });
        sim.set_loss_per_mille(500);
        sim.run_until(Time::from_secs(1));
        let got = sim.node::<Listener>(listener).got;
        assert!(got > 10 && got < 90, "got={got}");
    }
}

#[cfg(test)]
mod reliable_tests {
    use super::*;

    /// Sends one reliable message on start and records the outcome.
    struct RelSender {
        target: NodeId,
        token: Option<MsgToken>,
        acked: Vec<(NodeId, MsgToken)>,
        expired: Vec<(NodeId, &'static str, MsgToken)>,
    }

    impl RelSender {
        fn new(target: NodeId) -> Self {
            RelSender {
                target,
                token: None,
                acked: Vec::new(),
                expired: Vec::new(),
            }
        }
    }

    impl Node for RelSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.token = Some(ctx.send_reliable(self.target, "rel", b"payload".to_vec()));
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_reliable_acked(&mut self, _ctx: &mut Context<'_>, peer: NodeId, msg: MsgToken) {
            self.acked.push((peer, msg));
        }
        fn on_reliable_expired(
            &mut self,
            _ctx: &mut Context<'_>,
            to: NodeId,
            kind: &'static str,
            msg: MsgToken,
        ) {
            self.expired.push((to, kind, msg));
        }
    }

    struct Counter {
        got: u32,
    }

    impl Node for Counter {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
            self.got += 1;
        }
    }

    #[test]
    fn reliable_delivers_and_acks_on_clean_network() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        assert!(sim.run_until_quiet(10_000));
        assert_eq!(sim.node::<Counter>(sink).got, 1);
        let s = sim.node::<RelSender>(sender);
        assert_eq!(s.acked, vec![(sink, s.token.unwrap())]);
        assert!(s.expired.is_empty());
        assert_eq!(sim.stats().counter("reliable-acked"), 1);
        assert_eq!(sim.stats().counter("reliable-retransmits"), 0);
        assert_eq!(sim.stats().kind("rel").messages_sent, 1);
        assert_eq!(sim.stats().kind("reliable-ack").messages_sent, 1);
    }

    #[test]
    fn reliable_retransmits_through_loss_exactly_once_delivery() {
        // 60% loss: a plain send would stall often; the reliable layer
        // keeps retrying and the dedup window shields the receiver.
        let mut sim = Simulator::new(7);
        sim.set_reliable_policy(Duration::from_millis(10), 20);
        sim.enable_trace(10_000);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        sim.set_loss_per_mille(600);
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.node::<Counter>(sink).got, 1, "delivered exactly once");
        let s = sim.node::<RelSender>(sender);
        assert_eq!(s.acked.len(), 1);
        assert!(s.expired.is_empty());
        let retx = sim.stats().counter("reliable-retransmits");
        assert!(retx > 0, "loss should force at least one retransmission");
        // Every frame that reached the receiver beyond the first was
        // suppressed by the dedup window: exactly one node delivery.
        let node_deliveries = sim
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { kind: "rel", .. }))
            .count();
        assert_eq!(node_deliveries, 1);
    }

    #[test]
    fn reliable_expires_against_dead_peer() {
        let mut sim = Simulator::new(3);
        sim.set_reliable_policy(Duration::from_millis(10), 4);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        sim.crash(sink);
        assert!(sim.run_until_quiet(10_000));
        let s = sim.node::<RelSender>(sender);
        assert!(s.acked.is_empty());
        assert_eq!(s.expired, vec![(sink, "rel", s.token.unwrap())]);
        assert_eq!(sim.stats().counter("reliable-expired"), 1);
        // 4 attempts total: 1 initial + 3 retransmissions.
        assert_eq!(sim.stats().counter("reliable-retransmits"), 3);
        assert_eq!(sim.stats().kind("rel").messages_sent, 4);
    }

    #[test]
    fn cancel_reliable_stops_retries_and_callbacks() {
        struct Canceller {
            target: NodeId,
            outcomes: u32,
        }
        impl Node for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let tok = ctx.send_reliable(self.target, "rel", vec![1]);
                ctx.cancel_reliable(tok);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_reliable_acked(&mut self, _c: &mut Context<'_>, _p: NodeId, _m: MsgToken) {
                self.outcomes += 1;
            }
            fn on_reliable_expired(
                &mut self,
                _c: &mut Context<'_>,
                _t: NodeId,
                _k: &'static str,
                _m: MsgToken,
            ) {
                self.outcomes += 1;
            }
        }
        let mut sim = Simulator::new(4);
        let sink = sim.add_node(Counter { got: 0 });
        // Crash the sink so the (single, pre-cancel) transmission is
        // dropped and any surviving retry logic would be visible.
        sim.crash(sink);
        let sender = sim.add_node(Canceller {
            target: sink,
            outcomes: 0,
        });
        assert!(sim.run_until_quiet(10_000));
        assert_eq!(sim.node::<Canceller>(sender).outcomes, 0);
        assert_eq!(sim.stats().counter("reliable-retransmits"), 0);
        assert_eq!(sim.stats().counter("reliable-expired"), 0);
    }

    #[test]
    fn backoff_doubles_between_attempts() {
        let mut sim = Simulator::new(5);
        sim.set_reliable_policy(Duration::from_millis(10), 4);
        sim.enable_trace(100);
        let sink = sim.add_node(Counter { got: 0 });
        sim.add_node(RelSender::new(sink));
        sim.crash(sink);
        assert!(sim.run_until_quiet(10_000));
        let times: Vec<u64> = sim
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Retransmitted { at, attempt, .. } => {
                    Some((*attempt, at.as_micros()))
                }
                _ => None,
            })
            .map(|(_, t)| t)
            .collect();
        // Retransmissions at base, base+2*base, base+2*base+4*base.
        assert_eq!(times, vec![10_000, 30_000, 70_000]);
    }

    #[test]
    fn duplicate_is_reacked_but_not_redelivered() {
        // Cut the ack path (sink -> sender) for a while: the sender
        // keeps retransmitting, the sink sees duplicates, processes the
        // payload once, and acks every copy.
        let mut sim = Simulator::new(6);
        sim.set_reliable_policy(Duration::from_millis(10), 10);
        let sink = sim.add_node(Counter { got: 0 });
        let sender = sim.add_node(RelSender::new(sink));
        sim.cut_link(sink, sender);
        sim.run_for(Duration::from_millis(35)); // initial + 2 retransmits arrive
        sim.restore_link(sink, sender);
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.node::<Counter>(sink).got, 1);
        assert_eq!(sim.node::<RelSender>(sender).acked.len(), 1);
        assert!(sim.stats().counter("reliable-dup-dropped") >= 1);
        // Acks were attempted for the original and each duplicate.
        assert!(sim.stats().kind("reliable-ack").messages_sent >= 2);
    }

    #[test]
    fn dedup_window_is_bounded() {
        struct Flood {
            target: NodeId,
        }
        impl Node for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..(DEDUP_WINDOW + 40) {
                    ctx.send_reliable(self.target, "flood", vec![i as u8]);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        }
        let mut sim = Simulator::new(8);
        let sink = sim.add_node(Counter { got: 0 });
        sim.add_node(Flood { target: sink });
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.node::<Counter>(sink).got, (DEDUP_WINDOW + 40) as u32);
        let windows: usize = sim.dedup.values().map(|w| w.order.len()).sum();
        assert!(windows <= DEDUP_WINDOW);
    }

    #[test]
    fn crash_cancels_the_crashed_senders_pending_reliables() {
        // A dead sink keeps the send pending; crashing the *sender*
        // must then drop it outright — no retransmits keep burning
        // bandwidth for a ghost, and no expiry callback fires into the
        // crashed (or later restarted) node.
        let mut sim = Simulator::new(31);
        sim.set_reliable_policy(Duration::from_millis(10), 50);
        let sink = sim.add_node(Counter { got: 0 });
        sim.crash(sink);
        let sender = sim.add_node(RelSender::new(sink));
        sim.run_for(Duration::from_millis(25));
        let retx_at_crash = sim.stats().counter("reliable-retransmits");
        assert!(retx_at_crash >= 1, "send was not pending yet");

        sim.crash(sender);
        assert_eq!(sim.stats().counter("reliable-cancelled"), 1);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.stats().counter("reliable-retransmits"), retx_at_crash);
        assert_eq!(sim.stats().counter("reliable-expired"), 0);
        let s = sim.node::<RelSender>(sender);
        assert!(s.acked.is_empty());
        assert!(s.expired.is_empty(), "expiry fired on a crashed sender");
    }

    /// A node that stays down past its timers' deadlines and restarts
    /// after them: none of them fires late. `Ticker` does not re-arm in
    /// `on_restarted`, so any firing is a leak of the crashed run.
    #[test]
    fn crash_cancels_armed_timers_across_restart() {
        use super::tests::Ticker;
        let mut sim = Simulator::new(33);
        let node = sim.add_node(Ticker { fired: Vec::new() });
        sim.run_for(Duration::from_millis(1));
        sim.crash(node);
        sim.run_for(Duration::from_millis(10));
        assert!(sim.restart(node));
        sim.run_for(Duration::from_millis(200));
        assert_eq!(sim.node::<Ticker>(node).fired, vec![], "a pre-crash timer leaked");
    }

    /// A crash is the only cancel: the crashed incarnation's timers
    /// never fire, even after a restart, and leave nothing queued.
    #[test]
    fn cancelled_and_crashed_timers_leave_no_residue() {
        use super::tests::Ticker;
        let mut sim = Simulator::new(34);
        let a = sim.add_node(Ticker { fired: Vec::new() });
        let b = sim.add_node(Ticker { fired: Vec::new() });
        sim.run_for(Duration::from_millis(1));
        sim.crash(a);
        assert!(sim.restart(a));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node::<Ticker>(a).fired, vec![], "a crashed incarnation's timer fired");
        assert_eq!(sim.node::<Ticker>(b).fired, vec![1, 2, 3]);
        assert_eq!(sim.queue.len(), 0, "retired timer events were never dropped");
    }

    /// A node that crashes with timers armed and restarts at once,
    /// re-arming a timer for the deadline one of the old ones had: the
    /// old timers are dropped and the new one fires exactly once.
    #[test]
    fn a_timer_rearmed_on_restart_fires_once_and_the_crashed_ones_never() {
        struct Rearmer {
            fired: Vec<u64>,
        }
        impl Node for Rearmer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(50), 1);
                ctx.set_timer(Duration::from_millis(80), 2);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: u64) {
                self.fired.push(tag);
            }
            fn on_restarted(&mut self, ctx: &mut Context<'_>) {
                // Restarted at 10 ms: due at 50 ms, like tag 1.
                ctx.set_timer(Duration::from_millis(40), 3);
            }
        }
        let mut sim = Simulator::new(37);
        let node = sim.add_node(Rearmer { fired: Vec::new() });
        sim.run_for(Duration::from_millis(10));
        sim.crash(node);
        assert!(sim.restart(node));
        while sim.step() {
            assert!(sim.duplicate_timers().is_empty());
        }
        assert_eq!(sim.node::<Rearmer>(node).fired, vec![3]);
    }

    /// Crash, restart, crash, restart at one instant: only the second
    /// restart's notification is delivered, so `on_restarted` runs once
    /// and the periodic timer it arms runs as one chain.
    #[test]
    fn a_double_restart_at_one_instant_restarts_once() {
        struct Periodic {
            restarts: u32,
            fired: u32,
        }
        impl Node for Periodic {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
            fn on_restarted(&mut self, ctx: &mut Context<'_>) {
                self.restarts += 1;
                ctx.set_timer(Duration::from_millis(10), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                self.fired += 1;
                ctx.set_timer(Duration::from_millis(10), 1);
            }
        }
        let mut sim = Simulator::new(38);
        let node = sim.add_node(Periodic {
            restarts: 0,
            fired: 0,
        });
        sim.run_for(Duration::from_millis(10));
        for _ in 0..2 {
            sim.crash(node);
            assert!(sim.restart(node));
        }
        assert_eq!(sim.restart_count(node), 2);
        sim.run_for(Duration::from_millis(5));
        assert!(sim.duplicate_timers().is_empty());
        // Restarted at 10 ms: fires at 20, 30, ..., 100 ms.
        sim.run_until(Time::from_millis(100));
        let n = sim.node::<Periodic>(node);
        assert_eq!(n.restarts, 1, "on_restarted ran for an ended incarnation too");
        assert_eq!(n.fired, 9);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::DropReason;

    struct Silent;
    impl Node for Silent {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
    }

    struct Chirper {
        target: NodeId,
    }
    impl Node for Chirper {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.target, "chirp", vec![1, 2, 3]);
            ctx.set_timer(Duration::from_millis(1), 42);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
    }

    #[test]
    fn trace_records_delivery_and_timer() {
        let mut sim = Simulator::new(1);
        sim.enable_trace(100);
        let sink = sim.add_node(Silent);
        sim.add_node(Chirper { target: sink });
        sim.run_until(Time::from_millis(10));
        let events = sim.trace_events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Delivered { kind: "chirp", len: 3, .. }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::TimerFired { tag: 42, .. })));
        assert!(sim.trace_recorded() >= 2);
    }

    #[test]
    fn trace_records_drop_reasons() {
        let mut sim = Simulator::new(2);
        sim.enable_trace(100);
        let sink = sim.add_node(Silent);
        let chirper = sim.add_node(Chirper { target: sink });
        sim.partition(sink, 7);
        sim.run_until(Time::from_millis(10));
        assert!(sim.trace_events().iter().any(|e| matches!(
            e,
            TraceEvent::Dropped { reason: DropReason::Partitioned, .. }
        )));
        // A crashed receiver at delivery time is recorded too.
        sim.heal_partitions();
        sim.invoke(chirper, |c: &mut Chirper, ctx| {
            let t = c.target;
            ctx.send(t, "chirp", vec![9]);
        });
        sim.crash(sink);
        sim.run_until(Time::from_millis(20));
        assert!(sim.trace_events().iter().any(|e| matches!(
            e,
            TraceEvent::Dropped { reason: DropReason::Crashed, .. }
        )));
    }

    #[test]
    fn tracing_off_costs_nothing_visible() {
        let mut sim = Simulator::new(3);
        let sink = sim.add_node(Silent);
        sim.add_node(Chirper { target: sink });
        sim.run_until(Time::from_millis(10));
        assert!(sim.trace_events().is_empty());
        assert_eq!(sim.trace_recorded(), 0);
    }
}
