//! The four workloads: what is deployed, and what one op does.
//!
//! Every workload drives a real [`GroupBuilder`] deployment — real RSA,
//! envelopes, tree plans, wire codecs and WAL appends, through the
//! `mykil-net` simulator — as a closed loop in wall time and an open
//! loop in virtual time: one op per fixed virtual slot, so liveness and
//! heartbeat traffic is part of every op. Member nodes are a fixed set
//! that is recycled; no node is created after set-up, because a
//! departed node keeps its timers and a growing node set would make
//! later ops cost more than earlier ones.

use crate::trace::{StoreLog, TimedStore};
use mykil::area::Role;
use mykil::config::{BatchPolicy, MykilConfig};
use mykil::crypto_cost::CryptoCost;
use mykil::group::{GroupBuilder, GroupHandle};
use mykil::identity::{AreaId, DeviceId};
use mykil::member::Member;
use mykil_crypto::drbg::Drbg;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_net::{Duration, LatencyModel, NodeId, SimStore, Time};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Real key size of every RSA pair in the deployment.
pub const RSA_BITS: usize = 768;
/// Member keypairs generated per pass; members reuse them round-robin,
/// so member keygen is set-up cost and never op cost.
pub const KEY_POOL: usize = 16;
/// Bytes a `mobility_batched` sender multicasts at each mid-slot.
pub const DATA_BYTES: usize = 1024;
/// How long a crashed controller stays down in `crash_recovery` —
/// inside the 300 ms backup watchdog, so no takeover happens.
pub const OUTAGE_MS: u64 = 50;
/// Virtual gap between two joins while filling the deployment.
const FILL_GAP_MS: u64 = 20;
/// Virtual time the filled deployment runs before the first op.
const SETTLE_MS: u64 = 3000;

/// Every pass runs a multiple of this many ops: of every workload's
/// area count, so each area ends a pass with the members it started
/// with; of the four 100 ms slots in the members' 400 ms `t_active`
/// (the members joined in step during the fill, so every fourth op
/// carries all their `alive` unicasts and half as many events again);
/// and of five, so each fifth the stationarity guard compares holds
/// whole `alive` periods.
pub const OPS_STEP: usize = 20;

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// The oldest member of an area leaves; an idle node joins.
    Churn,
    /// A member leaves its area and ticket-rejoins the next one; at
    /// mid-slot a fixed sender multicasts [`DATA_BYTES`].
    Move,
    /// An area's primary controller crashes and restarts [`OUTAGE_MS`]
    /// later.
    Recover,
}

/// One workload's parameters.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub areas: usize,
    pub per_area: usize,
    /// Idle member nodes beyond the filled ones (`Churn` recycles them).
    pub spare: usize,
    pub replicated: bool,
    pub batch: BatchPolicy,
    /// Virtual time per op.
    pub slot_ms: u64,
    pub op: OpKind,
    /// Wall time of one op on the host the benchmark was sized on; it
    /// only turns `--seconds` into an op count.
    pub nominal_op_ms: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "join_steady",
        why: "4 areas x 16, one controller each: a leave plus a 7-step join whose RSA ops do almost all the work; the single-controller baseline, and the bypass control for replication and fan-out",
        areas: 4,
        per_area: 16,
        spare: 8,
        replicated: false,
        batch: BatchPolicy::Immediate,
        slot_ms: 100,
        op: OpKind::Churn,
        nominal_op_ms: 6.0,
    },
    Spec {
        name: "rekey_fanout",
        why: "the same op in one replicated area of 256: key-update multicast, 256 member-side decodes, full-snapshot state-sync and net deliveries grow with the area and do most of the work",
        areas: 1,
        per_area: 256,
        spare: 8,
        replicated: true,
        batch: BatchPolicy::Immediate,
        slot_ms: 100,
        op: OpKind::Churn,
        nominal_op_ms: 23.0,
    },
    Spec {
        name: "mobility_batched",
        why: "4 areas x 32, replicated: leave then ticket rejoin to the next area, batched rekeys flushed by a 1 KiB multicast; the paper's mobility path, with data-plane reads of the keys beside rekey writes",
        areas: 4,
        per_area: 32,
        spare: 0,
        replicated: true,
        batch: BatchPolicy::OnDataOrTimer,
        slot_ms: 100,
        op: OpKind::Move,
        nominal_op_ms: 8.7,
    },
    Spec {
        name: "crash_recovery",
        why: "4 areas x 32, replicated: crash a primary controller, restart it 50 ms later; load from the simulated store, WAL replay, tree restore and member resync, the only workload where the recovery fold runs",
        areas: 4,
        per_area: 32,
        spare: 0,
        replicated: true,
        batch: BatchPolicy::Immediate,
        slot_ms: 500,
        op: OpKind::Recover,
        nominal_op_ms: 36.0,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The protocol configuration of every node in this workload:
    /// `MykilConfig::test()` timers (and its 512-bit virtual RSA cost;
    /// the real keys are [`RSA_BITS`] wide) with the workload's batching
    /// policy.
    pub fn config(&self) -> MykilConfig {
        let mut cfg = MykilConfig {
            batch_policy: self.batch,
            ..MykilConfig::test()
        };
        if self.batch == BatchPolicy::OnDataOrTimer {
            // Rekeys are flushed by data only. With the 2 s test
            // backstop the timer now and then fires a fraction of a
            // millisecond before a multicast arrives; the controller
            // then forwards the data under a key whose update it is
            // still signing, and no member can decrypt it — a protocol
            // bug (README, constraint 4), and a workload may not hold
            // failing ops. The backstop timer is not exercised.
            cfg.rekey_interval = Duration::from_secs(3600);
        }
        cfg
    }

    /// Ops per pass for a run that should measure for `seconds` over
    /// `passes` passes: a fixed function of the arguments, so runs with
    /// the same arguments execute the same ops. A multiple of
    /// [`OPS_STEP`].
    pub fn ops_for(&self, seconds: u64, passes: usize) -> usize {
        let per_pass_ms = seconds as f64 * 1000.0 / passes as f64;
        let n = (per_pass_ms / self.nominal_op_ms) as usize;
        (n / OPS_STEP).max(2) * OPS_STEP
    }
}

/// How the harness moves a deployment forward. The untraced driver
/// calls straight into the simulator; the traced one wraps every call
/// in a span.
pub trait Driver {
    /// Where every node's store calls are timed, when they are.
    fn store_log(&self) -> Option<Arc<StoreLog>> {
        None
    }
    /// Called once the deployment is filled, before the first op.
    fn attach(&mut self, _d: &mut Deployment) {}
    /// Called after the last op.
    fn detach(&mut self, _d: &mut Deployment) {}
    /// Marks the start of op `i`'s timed region at virtual time `now`.
    fn op_begin(&mut self, _i: usize, _now: Time) {}
    /// Marks the end of the current op's timed region.
    fn op_end(&mut self) {}
    /// Runs a harness action (an `invoke`, a crash, a restart).
    fn act<T>(&mut self, g: &mut GroupHandle, f: impl FnOnce(&mut GroupHandle) -> T) -> T;
    /// Processes every event due up to `deadline`.
    fn advance(&mut self, g: &mut GroupHandle, deadline: Time);
}

/// One op's result.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    pub wall_ns: u64,
    /// Whether the op's postcondition held at slot end.
    pub ok: bool,
    /// Virtual duration of the op's join or rejoin handshake, as the
    /// member measured it.
    pub handshake_virt_us: Option<u64>,
}

/// A handshake's virtual duration, when it started and completed
/// within the op that began at `t0`.
fn virt_span(started: Option<Time>, completed: Option<Time>, t0: Time) -> Option<u64> {
    match (started, completed) {
        (Some(s), Some(c)) if s >= t0 && c >= s => Some((c - s).as_micros()),
        _ => None,
    }
}

/// Runs an op's timed region and returns its wall time.
fn timed<D: Driver, T>(
    g: &mut GroupHandle,
    i: usize,
    d: &mut D,
    body: impl FnOnce(&mut GroupHandle, &mut D) -> T,
) -> (u64, T) {
    let start = Instant::now();
    d.op_begin(i, g.now());
    let out = body(g, d);
    d.op_end();
    (start.elapsed().as_nanos() as u64, out)
}

/// Wall time of the stages of a set-up, in the order they ran. A
/// set-up is the same sequence of stages in every pass, so the stages
/// merge across passes the way ops do.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    pub ns: Vec<u64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            ns: Vec::new(),
        }
    }

    /// Ends the current stage.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.ns.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// A filled deployment and the bookkeeping the ops need.
pub struct Deployment {
    pub spec: &'static Spec,
    pub g: GroupHandle,
    /// Members per area, oldest first.
    pub area_members: Vec<VecDeque<NodeId>>,
    /// Nodes outside the group, longest-idle first.
    idle: VecDeque<NodeId>,
    /// The fixed data sender (`Move` only; it never moves).
    sender: Option<NodeId>,
}

impl Deployment {
    /// Generates the key pool, builds the deployment, creates the fixed
    /// member node set, fills the areas and lets the group settle.
    ///
    /// Every node keeps its stable state in a [`SimStore`]; with a
    /// `store_log` each is wrapped in the traced run's [`TimedStore`].
    /// Each keygen, the build, each fill join and the settling are a
    /// stage of `laps`.
    ///
    /// # Panics
    ///
    /// Panics when the fill does not leave every member active in its
    /// area: a set-up failure no measurement can follow.
    pub fn build(
        spec: &'static Spec,
        seed: u64,
        store_log: Option<Arc<StoreLog>>,
        laps: &mut Laps,
    ) -> Deployment {
        let mut poolrng = Drbg::from_seed(seed ^ 0x706f_6f6c);
        let pool: Vec<RsaKeyPair> = (0..KEY_POOL)
            .map(|_| {
                let pair = RsaKeyPair::generate(RSA_BITS, &mut poolrng).expect("member keygen");
                laps.lap();
                pair
            })
            .collect();

        let cfg = spec.config();
        let cost = CryptoCost::pentium3();
        let mut builder = GroupBuilder::new(seed)
            .config(cfg)
            .cost(cost)
            .latency(LatencyModel::lan())
            .areas(spec.areas)
            .replicated(spec.replicated);
        if let Some(log) = store_log {
            builder = builder.storage_factory(move |_| {
                Box::new(TimedStore::new(Box::new(SimStore::new()), log.clone()))
            });
        }
        let mut g = builder.build();

        let filled = spec.areas * spec.per_area;
        let sender_slot = usize::from(spec.op == OpKind::Move);
        let rs_pub = g.registration_server().public_key().clone();
        let rs_node = g.rs();
        let nodes: Vec<NodeId> = (0..filled + spec.spare + sender_slot)
            .map(|i| {
                let member = Member::new(
                    cfg,
                    cost,
                    pool[i % KEY_POOL].clone(),
                    rs_pub.clone(),
                    rs_node,
                    DeviceId::from_seed(i as u64),
                    format!("subscriber-{i}").into_bytes(),
                    false,
                );
                let id = g.sim.add_node(member);
                g.members.push(id);
                id
            })
            .collect();
        laps.lap();

        // The registration server places joiners round-robin, so join
        // `n` lands in area `n % areas`; the sender joins last.
        let joiners = filled + sender_slot;
        for &node in &nodes[..joiners] {
            g.sim.invoke(node, |m: &mut Member, ctx| m.start_join(ctx));
            g.run_for(Duration::from_millis(FILL_GAP_MS));
            laps.lap();
        }
        let sender = (sender_slot == 1).then(|| nodes[filled]);
        if let Some(sender) = sender {
            // Two multicasts before the first op: the first flushes the
            // joins the controllers aggregated during the fill, the
            // second the path refresh every newcomer gets at the flush
            // after its own. Op 0 then starts from the steady state.
            for _ in 0..2 {
                g.send_data(sender, b"e2e fill flush");
                g.run_for(Duration::from_secs(1));
            }
        }
        g.run_for(Duration::from_millis(SETTLE_MS));
        for &node in &nodes[..joiners] {
            g.sim.node_mut::<Member>(node).received.clear();
        }
        laps.lap();

        let mut area_members = vec![VecDeque::new(); spec.areas];
        for (n, &node) in nodes[..filled].iter().enumerate() {
            area_members[n % spec.areas].push_back(node);
        }
        let d = Deployment {
            spec,
            g,
            area_members,
            idle: nodes[joiners..].iter().copied().collect(),
            sender,
        };
        assert!(
            d.all_members_in_place(),
            "fill left a member outside its area"
        );
        d
    }

    fn in_area(&self, node: NodeId, area: usize) -> bool {
        let m = self.g.member(node);
        m.is_active() && m.area() == Some(AreaId(area as u32))
    }

    /// Whether every member the bookkeeping places in an area is active
    /// there, and the sender is active.
    pub fn all_members_in_place(&self) -> bool {
        let placed = self
            .area_members
            .iter()
            .enumerate()
            .all(|(a, q)| q.iter().all(|&n| self.in_area(n, a)));
        placed && self.sender.is_none_or(|s| self.g.is_member(s))
    }

    /// Every node currently in the group.
    pub fn group_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.area_members
            .iter()
            .flatten()
            .copied()
            .chain(self.sender)
    }

    /// Member count per area as each area's live controller sees it.
    pub fn controller_counts(&self) -> Vec<usize> {
        (0..self.spec.areas)
            .map(|a| {
                let primary = self.g.ac(a);
                if primary.role() == Role::Primary || self.g.backups.is_empty() {
                    primary.member_count()
                } else {
                    self.g.backup(a).member_count()
                }
            })
            .collect()
    }

    /// Runs op `i` (timed), then checks its postcondition (untimed).
    pub fn run_op<D: Driver>(&mut self, i: usize, d: &mut D) -> OpOutcome {
        let area = i % self.spec.areas;
        let t0 = self.g.now();
        let slot_end = t0 + Duration::from_millis(self.spec.slot_ms);
        match self.spec.op {
            OpKind::Churn => {
                let leaver = self.area_members[area]
                    .pop_front()
                    .expect("area has members");
                let joiner = self.idle.pop_front().expect("an idle node");
                let (wall_ns, ()) = timed(&mut self.g, i, d, |g, d| {
                    d.act(g, |g| {
                        g.sim.invoke(leaver, |m: &mut Member, ctx| m.leave(ctx));
                        g.sim
                            .invoke(joiner, |m: &mut Member, ctx| m.start_join(ctx));
                    });
                    d.advance(g, slot_end);
                });
                self.area_members[area].push_back(joiner);
                self.idle.push_back(leaver);
                let ok = self.in_area(joiner, area)
                    && !self.g.is_member(leaver)
                    && self.controller_counts()[area] == self.spec.per_area;
                let t = self.g.member(joiner).timings;
                OpOutcome {
                    wall_ns,
                    ok,
                    handshake_virt_us: virt_span(t.join_started, t.join_completed, t0),
                }
            }
            OpKind::Move => {
                let dst = (area + 1) % self.spec.areas;
                let mover = self.area_members[area]
                    .pop_front()
                    .expect("area has members");
                let target = self.g.primaries[dst];
                let sender = self.sender.expect("move workloads have a sender");
                let mid_slot = t0 + Duration::from_micros(self.spec.slot_ms * 500);
                let mut payload = vec![0u8; DATA_BYTES];
                payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
                let (wall_ns, started) = timed(&mut self.g, i, d, |g, d| {
                    // A bare rejoin is refused (`StillMemberElsewhere`):
                    // the member has to leave its area first.
                    let moved = d.act(g, |g| {
                        g.sim.invoke(mover, |m: &mut Member, ctx| {
                            m.leave(ctx) && m.start_rejoin(ctx, target)
                        })
                    });
                    d.advance(g, mid_slot);
                    let sent = d.act(g, |g| g.send_data(sender, &payload));
                    d.advance(g, slot_end);
                    moved && sent
                });
                self.area_members[dst].push_back(mover);
                let mut ok = started && self.in_area(mover, dst);
                // Every member decrypts exactly this slot's payload.
                let members: Vec<NodeId> = self.group_members().collect();
                for node in members {
                    let received = &mut self.g.sim.node_mut::<Member>(node).received;
                    ok &= node == sender || (received.len() == 1 && received[0] == payload);
                    received.clear();
                }
                let t = self.g.member(mover).timings;
                OpOutcome {
                    wall_ns,
                    ok,
                    handshake_virt_us: virt_span(t.rejoin_started, t.rejoin_completed, t0),
                }
            }
            OpKind::Recover => {
                let primary = self.g.primaries[area];
                let recoveries = self.g.stats().counter("ac-recoveries");
                let takeovers = self.g.stats().counter("ac-takeovers");
                let (wall_ns, ()) = timed(&mut self.g, i, d, |g, d| {
                    d.act(g, |g| g.sim.crash(primary));
                    d.advance(g, t0 + Duration::from_millis(OUTAGE_MS));
                    d.act(g, |g| g.sim.restart(primary));
                    d.advance(g, slot_end);
                });
                let ok = self.g.ac(area).role() == Role::Primary
                    && self.g.stats().counter("ac-recoveries") == recoveries + 1
                    && self.g.stats().counter("ac-takeovers") == takeovers
                    && self.area_members[area]
                        .iter()
                        .all(|&n| self.in_area(n, area));
                OpOutcome {
                    wall_ns,
                    ok,
                    handshake_virt_us: None,
                }
            }
        }
    }

    /// A final multicast from one member; true when every member of the
    /// group decrypts it.
    pub fn final_data_reaches_everyone(&mut self) -> bool {
        let from = self.sender.unwrap_or(self.area_members[0][0]);
        let payload = b"e2e final multicast".to_vec();
        if !self.g.send_data(from, &payload) {
            return false;
        }
        self.g.run_for(Duration::from_secs(1));
        self.group_members()
            .filter(|&n| n != from)
            .all(|n| self.g.member(n).received.last() == Some(&payload))
    }
}
