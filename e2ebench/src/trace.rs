//! The traced observer pass: spans recorded from outside the program.
//!
//! One pass advances the simulator with [`Simulator::step`] under the
//! simulator's own event trace: one span per step, labelled with the
//! destination's role and the message kind, each a child of the `op`
//! span whose index it carries. Harness actions (`invoke`, crash,
//! restart) get `invoke` spans, and every [`StableStore`] call made
//! inside a step or an invoke is timed in situ by [`TimedStore`] and
//! recorded as that span's child. Everything below a handler — crypto,
//! tree and wire work inside a step — is reported as unit cost only
//! (see `units.rs`). Spans stay in memory until the pass is over.
//!
//! The pass steps exactly as many events per `advance` as an untraced
//! reference pass processed there (the simulator is deterministic), so
//! it executes the same ops on the same timeline and its counts can be
//! compared with the reference for equality.

use crate::json::Json;
use crate::workload::{Deployment, Driver};
use mykil::group::GroupHandle;
use mykil_net::{NodeId, Recovered, Simulator, StableStore, StoreFault, Time, TraceEvent};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Capacity of the simulator's event ring; labels are fetched each time
/// half of it is new, so no record is evicted before it is read.
const RING: usize = 4096;

/// The message kinds that get a layer-sheet row of their own; every
/// other kind is summed under `other`.
pub const KINDS: [&str; 10] = [
    "join",
    "rejoin",
    "leave",
    "key-update",
    "key-unicast",
    "state-sync",
    "replication",
    "alive",
    "data",
    "timer",
];

/// Who a step's event was delivered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleTag {
    Rs,
    Ac,
    Backup,
    Member,
    /// Steps the simulator's trace has no record for: acks,
    /// retransmissions, start and restart notifications.
    Net,
}

impl RoleTag {
    pub fn name(self) -> &'static str {
        match self {
            RoleTag::Rs => "rs",
            RoleTag::Ac => "ac",
            RoleTag::Backup => "backup",
            RoleTag::Member => "member",
            RoleTag::Net => "net",
        }
    }
}

/// A timed [`StableStore`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    Append,
    Sync,
    Checkpoint,
    Load,
}

impl StoreOp {
    pub fn name(self) -> &'static str {
        match self {
            StoreOp::Append => "append",
            StoreOp::Sync => "sync",
            StoreOp::Checkpoint => "checkpoint",
            StoreOp::Load => "load",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct StoreCall {
    pub op: StoreOp,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes handed to the store (appends and checkpoints).
    pub bytes: u64,
}

/// Where [`TimedStore`]s report; the tracer drains it after every span.
#[derive(Debug)]
pub struct StoreLog {
    epoch: Instant,
    calls: Mutex<Vec<StoreCall>>,
}

impl StoreLog {
    pub fn new() -> Arc<StoreLog> {
        Arc::new(StoreLog {
            epoch: Instant::now(),
            calls: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, op: StoreOp, start_ns: u64, bytes: u64) {
        let end_ns = self.now_ns();
        self.calls
            .lock()
            .expect("store log is only used from the simulator thread")
            .push(StoreCall {
                op,
                start_ns,
                end_ns,
                bytes,
            });
    }

    fn drain(&self) -> Vec<StoreCall> {
        std::mem::take(
            &mut *self
                .calls
                .lock()
                .expect("store log is only used from the simulator thread"),
        )
    }
}

/// Times the four calls that do I/O and forwards everything unchanged.
#[derive(Debug)]
pub struct TimedStore {
    inner: Box<dyn StableStore>,
    log: Arc<StoreLog>,
}

impl TimedStore {
    pub fn new(inner: Box<dyn StableStore>, log: Arc<StoreLog>) -> TimedStore {
        TimedStore { inner, log }
    }
}

impl StableStore for TimedStore {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        let (start, len) = (self.log.now_ns(), bytes.len() as u64);
        self.inner.wal_append(bytes);
        self.log.record(StoreOp::Append, start, len);
    }

    fn sync(&mut self) {
        let start = self.log.now_ns();
        self.inner.sync();
        self.log.record(StoreOp::Sync, start, 0);
    }

    fn checkpoint(&mut self, payload: Vec<u8>) {
        let (start, len) = (self.log.now_ns(), payload.len() as u64);
        self.inner.checkpoint(payload);
        self.log.record(StoreOp::Checkpoint, start, len);
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        self.inner.append_torn(bytes);
    }

    fn load(&self) -> Recovered {
        let start = self.log.now_ns();
        let out = self.inner.load();
        self.log.record(StoreOp::Load, start, 0);
        out
    }

    fn inject(&mut self, fault: StoreFault) -> bool {
        self.inner.inject(fault)
    }

    fn heal(&mut self) {
        self.inner.heal();
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        self.inner.on_crash()
    }

    fn has_durable_state(&self) -> bool {
        self.inner.has_durable_state()
    }

    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }

    fn checkpoint_count(&self) -> u64 {
        self.inner.checkpoint_count()
    }
}

/// One simulator step.
#[derive(Debug, Clone, Copy)]
pub struct StepSpan {
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual time of the event.
    pub virt_us: u64,
    pub role: RoleTag,
    pub kind: &'static str,
    /// Index into the simulator's trace of the first record this step
    /// made, when it made one.
    record: Option<u64>,
}

/// An `op` or `invoke` span.
#[derive(Debug, Clone, Copy)]
pub struct PlainSpan {
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub virt_us: u64,
}

/// What a store call ran inside.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    Step(usize),
    Invoke(usize),
}

/// The traced driver.
pub struct Tracer {
    log: Arc<StoreLog>,
    /// Events each `advance` of the reference pass processed.
    expected: VecDeque<u64>,
    roles: Vec<RoleTag>,
    op: u32,
    pub ops: Vec<PlainSpan>,
    pub invokes: Vec<PlainSpan>,
    pub steps: Vec<StepSpan>,
    pub store: Vec<(Parent, StoreCall)>,
    /// Steps before this index have their labels.
    labelled: usize,
    /// Trace records already turned into labels.
    fetched: u64,
}

impl Tracer {
    pub fn new(log: Arc<StoreLog>, expected: Vec<u64>) -> Tracer {
        Tracer {
            log,
            expected: expected.into(),
            roles: Vec::new(),
            op: 0,
            ops: Vec::new(),
            invokes: Vec::new(),
            steps: Vec::new(),
            store: Vec::new(),
            labelled: 0,
            fetched: 0,
        }
    }

    fn role_of(&self, node: NodeId) -> RoleTag {
        self.roles
            .get(node.index())
            .copied()
            .unwrap_or(RoleTag::Member)
    }

    fn collect_store_calls(&mut self, parent: Parent) {
        for call in self.log.drain() {
            self.store.push((parent, call));
        }
    }

    /// Reads the simulator's event ring and labels the steps recorded
    /// since the last fetch.
    fn fetch_labels(&mut self, sim: &Simulator) {
        let events = sim.trace_events();
        let total = sim.trace_recorded();
        let first = total - events.len() as u64;
        for i in self.labelled..self.steps.len() {
            let Some(record) = self.steps[i].record else {
                continue;
            };
            assert!(record >= first, "trace ring evicted an unread record");
            let (node, kind) = match &events[(record - first) as usize] {
                TraceEvent::Delivered { to, kind, .. } => (Some(*to), *kind),
                TraceEvent::TimerFired { node, .. } => (Some(*node), "timer"),
                TraceEvent::Dropped { .. } => (None, "dropped"),
                TraceEvent::Retransmitted { .. } => (None, "retransmit"),
                TraceEvent::FaultInjected { .. } => (None, "fault"),
            };
            self.steps[i].role = node.map_or(RoleTag::Net, |n| self.role_of(n));
            self.steps[i].kind = kind;
        }
        self.labelled = self.steps.len();
        self.fetched = total;
    }

    /// One traced simulator step.
    fn step(&mut self, sim: &mut Simulator) {
        let before = sim.trace_recorded();
        let start_ns = self.log.now_ns();
        sim.step();
        let end_ns = self.log.now_ns();
        let after = sim.trace_recorded();
        self.steps.push(StepSpan {
            op: self.op,
            start_ns,
            end_ns,
            virt_us: sim.now().as_micros(),
            role: RoleTag::Net,
            kind: "other",
            record: (after > before).then_some(before),
        });
        self.collect_store_calls(Parent::Step(self.steps.len() - 1));
        if after - self.fetched >= (RING / 2) as u64 {
            self.fetch_labels(sim);
        }
    }

    /// Writes every span as one JSON object per line. `parent` is the
    /// `id` of the enclosing span; ids are unique within the file.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        // Ids: ops first, then invokes, then steps, then store calls.
        let invoke_base = self.ops.len();
        let step_base = invoke_base + self.invokes.len();
        let store_base = step_base + self.steps.len();
        let int = |v: usize| Json::Int(v as i64);
        let time = |start: u64, end: u64, virt: u64| {
            [
                ("start_ns", Json::Int(start as i64)),
                ("end_ns", Json::Int(end as i64)),
                ("virt_us", Json::Int(virt as i64)),
            ]
        };
        for (i, s) in self.ops.iter().enumerate() {
            let [a, b, c] = time(s.start_ns, s.end_ns, s.virt_us);
            let line = Json::obj([
                ("id", int(i)),
                ("op", int(s.op as usize)),
                ("name", Json::str("op")),
                a,
                b,
                c,
            ]);
            writeln!(out, "{line}")?;
        }
        for (i, s) in self.invokes.iter().enumerate() {
            let [a, b, c] = time(s.start_ns, s.end_ns, s.virt_us);
            let line = Json::obj([
                ("id", int(invoke_base + i)),
                ("parent", int(s.op as usize)),
                ("op", int(s.op as usize)),
                ("name", Json::str("invoke")),
                a,
                b,
                c,
            ]);
            writeln!(out, "{line}")?;
        }
        for (i, s) in self.steps.iter().enumerate() {
            let [a, b, c] = time(s.start_ns, s.end_ns, s.virt_us);
            let line = Json::obj([
                ("id", int(step_base + i)),
                ("parent", int(s.op as usize)),
                ("op", int(s.op as usize)),
                ("name", Json::str("step")),
                ("role", Json::str(s.role.name())),
                ("kind", Json::str(s.kind)),
                a,
                b,
                c,
            ]);
            writeln!(out, "{line}")?;
        }
        for (i, (parent, call)) in self.store.iter().enumerate() {
            let (parent_id, op) = match *parent {
                Parent::Step(s) => (step_base + s, self.steps[s].op),
                Parent::Invoke(v) => (invoke_base + v, self.invokes[v].op),
            };
            let line = Json::obj([
                ("id", int(store_base + i)),
                ("parent", int(parent_id)),
                ("op", int(op as usize)),
                ("name", Json::Str(format!("store.{}", call.op.name()))),
                ("start_ns", Json::Int(call.start_ns as i64)),
                ("end_ns", Json::Int(call.end_ns as i64)),
                ("bytes", Json::Int(call.bytes as i64)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

impl Driver for Tracer {
    fn store_log(&self) -> Option<Arc<StoreLog>> {
        Some(self.log.clone())
    }

    /// Starts tracing a filled deployment.
    fn attach(&mut self, d: &mut Deployment) {
        let g = &d.g;
        let mut roles =
            vec![RoleTag::Member; g.members.iter().map(|n| n.index() + 1).max().unwrap_or(0)];
        roles[g.rs().index()] = RoleTag::Rs;
        for n in &g.primaries {
            roles[n.index()] = RoleTag::Ac;
        }
        for n in &g.backups {
            roles[n.index()] = RoleTag::Backup;
        }
        self.roles = roles;
        // Store calls of the set-up are not part of any span.
        self.log.drain();
        d.g.sim.enable_trace(RING);
        self.fetched = 0;
    }

    /// Labels what is still pending once the timed ops are over.
    fn detach(&mut self, d: &mut Deployment) {
        self.fetch_labels(&d.g.sim);
        assert!(
            self.expected.is_empty(),
            "traced pass ran fewer advances than the reference"
        );
    }

    fn op_begin(&mut self, i: usize, now: Time) {
        self.op = i as u32;
        let start_ns = self.log.now_ns();
        self.ops.push(PlainSpan {
            op: self.op,
            start_ns,
            end_ns: start_ns,
            virt_us: now.as_micros(),
        });
    }

    fn op_end(&mut self) {
        let end_ns = self.log.now_ns();
        self.ops.last_mut().expect("op_begin ran").end_ns = end_ns;
    }

    fn act<T>(&mut self, g: &mut GroupHandle, f: impl FnOnce(&mut GroupHandle) -> T) -> T {
        let start_ns = self.log.now_ns();
        let out = f(g);
        let end_ns = self.log.now_ns();
        self.invokes.push(PlainSpan {
            op: self.op,
            start_ns,
            end_ns,
            virt_us: g.now().as_micros(),
        });
        self.collect_store_calls(Parent::Invoke(self.invokes.len() - 1));
        out
    }

    fn advance(&mut self, g: &mut GroupHandle, deadline: Time) {
        let events = self
            .expected
            .pop_front()
            .expect("traced pass ran more advances than the reference");
        for _ in 0..events {
            self.step(&mut g.sim);
        }
        assert!(g.now() <= deadline, "traced pass stepped past its slot");
        let before = g.sim.events_processed();
        g.sim.run_until(deadline);
        assert_eq!(
            g.sim.events_processed(),
            before,
            "traced pass left events the reference pass processed"
        );
    }
}
