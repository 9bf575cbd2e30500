//! Global invariant checker for chaos runs.
//!
//! A fault schedule (crashes, partitions, loss, skew — see
//! `mykil_net::chaos`) may legally disturb every liveness property
//! while it is active, but once the network has quiesced the protocol
//! must have restored six safety properties:
//!
//! 1. **Key convergence** — every live, active member holds exactly
//!    the current area key of its area's live controller.
//! 2. **Forward secrecy** — no node that the live controller does not
//!    count as an enrolled member holds that controller's current
//!    area key (departure and eviction rekeys actually revoked it);
//!    and, on the controller's side, its tree holds no client leaf
//!    without a member row unless a flush is pending. An honest leaver
//!    drops its keys, so only the second half sees a departure that a
//!    takeover or a recovery forgot inside a batch window.
//! 3. **Single primary** — after partitions heal, at most one live
//!    controller per area holds the `Primary` role (epoch-fenced
//!    demotion reconciled any split brain).
//! 4. **Replication monotonicity** — a controller's replication
//!    position never moves backwards within one takeover lineage; a
//!    reset is legal only when the node's role, its takeover epoch, or
//!    its process incarnation changed (promotion, demotion, or a
//!    crash/restart cycle — recovery from an older checkpoint slot may
//!    legally rewind it).
//! 5. **Durability** — a live controller's stable storage (newest
//!    valid checkpoint plus WAL suffix) replays — through the fold
//!    recovery itself runs, over the same deployed base
//!    (`AreaController::replay`) — to its in-memory durable state: same
//!    role and fencing epoch, same parent link, same member rows (so no
//!    durably-evicted client is still counted, and none is lost), same
//!    rekey epoch, the same area image byte for byte (every key in the
//!    tree: records carry their seeds), for a backup the same
//!    replication position, and for a primary a replication sequence no
//!    newer than memory (an image shipped moves it without a record).
//!    The same holds for the registration server's client-id counter
//!    and directory. This catches state mutated outside the write-ahead
//!    discipline: what the node would silently lose in a crash.
//! 6. **Replica equality** — wherever a live primary believes its live
//!    backup in sync (the backup acknowledged the position the primary
//!    stands at), the backup's image is the primary's, byte for byte:
//!    folding the shipped records over the last image lands exactly
//!    where the primary stands.
//!
//! The checker is stateful (for the monotonicity baseline): create one
//! per scenario and call [`InvariantChecker::check`] at every
//! quiescent point. A non-empty result is a protocol bug, not a
//! harness artifact — pair it with the serialized `FaultPlan` that
//! produced it for replay.

use crate::area::{AcDurable, AreaController, Role, AC_MEMBER_BASE, BAD_CHECKPOINT};
use crate::durable::{replay_rs, RsCheckpoint};
use crate::group::GroupHandle;
use mykil_net::{NodeId, Time};
use std::collections::BTreeMap;

/// One violated invariant, with enough context to debug a soak
/// failure without re-running it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two live controllers of the same area both claim `Primary`.
    SplitBrain {
        /// Area index.
        area: usize,
        /// The two nodes claiming the role.
        nodes: (NodeId, NodeId),
    },
    /// An active member's key differs from its live controller's.
    KeyDivergence {
        /// The member node.
        member: NodeId,
        /// Area index the member believes it is in.
        area: usize,
    },
    /// A node outside the controller's membership holds the current
    /// area key.
    ForwardSecrecy {
        /// The offending node.
        member: NodeId,
        /// Area index whose key leaked.
        area: usize,
    },
    /// A departed client still has a leaf in the live controller's
    /// tree and no flush is pending: every later key update stays
    /// readable with the path keys it left with.
    UnrevokedLeaf {
        /// The controller node.
        node: NodeId,
        /// Area index.
        area: usize,
        /// The client whose row is gone and whose leaf is not.
        client: u64,
    },
    /// A replication position moved backwards within one takeover
    /// lineage.
    ReplicationRegression {
        /// The controller node.
        node: NodeId,
        /// The position's sequence at the previous quiescent check.
        prev: u64,
        /// Value now.
        seen: u64,
    },
    /// A controller's stable storage replays to a view inconsistent
    /// with its live in-memory state: a crash now would lose or
    /// corrupt state the protocol believes is durable.
    DurabilityDrift {
        /// The controller node.
        node: NodeId,
        /// Area index.
        area: usize,
        /// What diverged.
        detail: String,
    },
    /// A backup its primary believes in sync holds a different area.
    ReplicaDivergence {
        /// Area index.
        area: usize,
        /// The primary node.
        primary: NodeId,
        /// The backup node.
        backup: NodeId,
        /// What diverged.
        detail: String,
    },
    /// The registration server's stable storage disagrees with its
    /// in-memory state.
    RsDurabilityDrift {
        /// What diverged.
        detail: String,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::SplitBrain { area, nodes } => write!(
                f,
                "split brain: area {area} has two live primaries {:?} and {:?}",
                nodes.0, nodes.1
            ),
            InvariantViolation::KeyDivergence { member, area } => write!(
                f,
                "key divergence: active member {member:?} disagrees with area {area}'s controller"
            ),
            InvariantViolation::ForwardSecrecy { member, area } => write!(
                f,
                "forward secrecy: non-member {member:?} holds area {area}'s current key"
            ),
            InvariantViolation::UnrevokedLeaf { node, area, client } => write!(
                f,
                "forward secrecy: area {area} controller {node:?} keeps the leaf of departed \
                 client {client} and owes no flush"
            ),
            InvariantViolation::ReplicationRegression { node, prev, seen } => write!(
                f,
                "replication regression: {node:?} position went {prev} -> {seen}"
            ),
            InvariantViolation::DurabilityDrift { node, area, detail } => write!(
                f,
                "durability drift: area {area} controller {node:?}: {detail}"
            ),
            InvariantViolation::ReplicaDivergence { area, primary, backup, detail } => write!(
                f,
                "replica divergence: area {area} backup {backup:?} of {primary:?}: {detail}"
            ),
            InvariantViolation::RsDurabilityDrift { detail } => write!(
                f,
                "rs durability drift: {detail}"
            ),
        }
    }
}

/// The controllers deployed for `area`: the primary, then its backup
/// when the deployment is replicated.
fn controllers(g: &GroupHandle, area: usize) -> impl Iterator<Item = (NodeId, &AreaController)> {
    let backup = g.backups.get(area).map(|&node| (node, g.backup(area)));
    std::iter::once((g.primaries[area], g.ac(area))).chain(backup)
}

/// The readable facts of a durable state, for naming what differs
/// before the byte-for-byte image comparison says that something does.
/// The first two are the node's own; the rest, the area's.
fn facts(d: &AcDurable) -> [(&'static str, String); 6] {
    let clients: Vec<u64> =
        d.tree().members().map(|m| m.0).filter(|id| *id < AC_MEMBER_BASE).collect();
    let parent = d.image.parent.as_ref().map(|p| (p.node, p.area));
    [
        ("role", format!("{:?}", d.role())),
        ("takeover_epoch", d.takeover_epoch().to_string()),
        ("parent", format!("{parent:?}")),
        ("members", format!("{:?}", d.member_ids())),
        ("epoch", d.epoch().to_string()),
        ("tree clients", format!("{clients:?}")),
    ]
}

/// Per-controller baseline for the monotonicity invariant.
#[derive(Debug, Clone, Copy)]
struct ReplBaseline {
    takeover_epoch: u64,
    is_primary: bool,
    /// The replication position's sequence.
    seq: u64,
    /// Process incarnation ([`mykil_net::Simulator::restart_count`])
    /// the counters were sampled in.
    restarts: u64,
}

/// Stateful checker; see the module docs for the invariants.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    repl: BTreeMap<NodeId, ReplBaseline>,
}

impl InvariantChecker {
    /// Creates a checker with an empty monotonicity baseline.
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Runs every invariant against the current simulation state and
    /// returns all violations found (empty = healthy).
    pub fn check(&mut self, g: &GroupHandle) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let areas = g.primaries.len();

        // Resolve each area's live controller (and catch split brain
        // while doing so). An area whose deployed pair is entirely
        // crashed has no live controller: liveness is suspended there,
        // but no safety property can be violated by a dead node.
        let mut live: Vec<Option<(NodeId, &AreaController)>> = Vec::with_capacity(areas);
        for area in 0..areas {
            let primaries_here: Vec<(NodeId, &AreaController)> = controllers(g, area)
                .filter(|(node, ctrl)| !g.sim.is_crashed(*node) && ctrl.role() == Role::Primary)
                .collect();
            if primaries_here.len() > 1 {
                out.push(InvariantViolation::SplitBrain {
                    area,
                    nodes: (primaries_here[0].0, primaries_here[1].0),
                });
            }
            live.push(primaries_here.first().copied());
        }

        // Key convergence + forward secrecy, one pass over the members.
        for &m in &g.members {
            if g.sim.is_crashed(m) {
                continue;
            }
            let member = g.member(m);
            let held = member.current_area_key();
            let member_area = member.area().map(|a| a.0 as usize);
            for (area, live_ctrl) in live.iter().enumerate() {
                let Some((_, ctrl)) = *live_ctrl else { continue };
                let enrolled = member
                    .client_id()
                    .is_some_and(|c| ctrl.has_member(c));
                if member.is_active() && member_area == Some(area) {
                    if held != Some(ctrl.area_key()) {
                        out.push(InvariantViolation::KeyDivergence { member: m, area });
                    }
                } else if !enrolled && held == Some(ctrl.area_key()) {
                    // Not this area's member (and the controller agrees):
                    // holding its current key means an eviction or leave
                    // rekey failed to revoke access.
                    out.push(InvariantViolation::ForwardSecrecy { member: m, area });
                }
            }
        }

        // Forward secrecy, controller side: outside a batch window every
        // departure must have been rekeyed out of the tree.
        for (area, live_ctrl) in live.iter().enumerate() {
            let Some((node, ctrl)) = *live_ctrl else { continue };
            if !ctrl.update_pending() {
                out.extend(ctrl.durable().departed().map(|m| {
                    InvariantViolation::UnrevokedLeaf { node, area, client: m.0 }
                }));
            }
        }

        // Replication monotonicity within a takeover lineage.
        for area in 0..areas {
            for (node, ctrl) in controllers(g, area) {
                let durable = ctrl.durable();
                let now = ReplBaseline {
                    takeover_epoch: durable.takeover_epoch,
                    is_primary: durable.role == Role::Primary,
                    seq: durable.position.seq,
                    restarts: g.sim.restart_count(node),
                };
                if let Some(prev) = self.repl.get(&node) {
                    // Promotion/demotion starts a new lineage; within
                    // one, the position may only grow. A crash/restart
                    // cycle also starts a new lineage: recovery from an
                    // older checkpoint slot (the newest was corrupted)
                    // may legally rewind it.
                    let same_lineage = prev.takeover_epoch == now.takeover_epoch
                        && prev.is_primary == now.is_primary
                        && prev.restarts == now.restarts;
                    if same_lineage && now.seq < prev.seq {
                        out.push(InvariantViolation::ReplicationRegression {
                            node,
                            prev: prev.seq,
                            seen: now.seq,
                        });
                    }
                }
                self.repl.insert(node, now);
            }
        }

        // Durability: every live controller's stable storage must
        // replay to its in-memory durable state. Nodes that never
        // persisted anything are skipped (pre-durability harness
        // nodes); crashed nodes are checked on recovery via the other
        // invariants.
        for area in 0..areas {
            for (node, ctrl) in controllers(g, area) {
                if g.sim.is_crashed(node) || !g.sim.storage(node).has_durable_state() {
                    continue;
                }
                let mut drift = |detail: String| {
                    out.push(InvariantViolation::DurabilityDrift { node, area, detail })
                };
                let restored = ctrl.replay(&g.sim.storage(node).load(), Time::ZERO);
                if restored.counters.contains(&BAD_CHECKPOINT) {
                    drift("stable storage does not replay".into());
                    continue;
                }
                let (durable, memory) = (restored.state, ctrl.durable());
                for ((what, stored), (_, live)) in facts(&durable).into_iter().zip(facts(memory)) {
                    if stored != live {
                        drift(format!("durable {what}={stored} but memory has {live}"));
                    }
                }
                if durable.image.encode() != memory.image.encode() {
                    drift("durable area image differs from memory".into());
                }
                if durable.role() != Role::Primary && durable.position != memory.position {
                    drift(format!(
                        "durable position {:?} but memory has {:?}",
                        durable.position, memory.position
                    ));
                }
                if durable.position.seq > memory.position.seq {
                    drift(format!(
                        "durable position {} ahead of memory {}",
                        durable.position.seq, memory.position.seq
                    ));
                }
            }
        }

        // Replica equality: a backup its live primary believes in sync
        // holds the primary's area.
        for (area, live_ctrl) in live.iter().enumerate() {
            // After a takeover and a demotion the deployed pair has
            // swapped roles: the replica is the pair's other node.
            let Some((primary, ctrl)) = *live_ctrl else { continue };
            let Some((backup, replica)) = controllers(g, area).find(|(n, _)| *n != primary) else {
                continue;
            };
            if g.sim.is_crashed(backup) || replica.role() != Role::Backup || !ctrl.backup_in_sync()
            {
                continue;
            }
            let mut diverged = |detail: String| {
                out.push(InvariantViolation::ReplicaDivergence { area, primary, backup, detail })
            };
            for ((what, theirs), (_, ours)) in
                facts(replica.durable()).into_iter().skip(2).zip(facts(ctrl.durable()).into_iter().skip(2))
            {
                if theirs != ours {
                    diverged(format!("replica {what}={theirs} but the primary has {ours}"));
                }
            }
            if replica.durable().image.encode() != ctrl.durable().image.encode() {
                diverged("replica image differs from the primary's".into());
            }
        }

        // Registration-server durability: the id counter and directory
        // the RS would recover with must match what it serves now.
        let rs_node = g.rs();
        if !g.sim.is_crashed(rs_node) && g.sim.storage(rs_node).has_durable_state() {
            let rec = g.sim.storage(rs_node).load();
            // The RS checkpoints when it starts, so durable state
            // without a decodable checkpoint is itself a violation.
            let checkpoint = rec.checkpoint.as_ref().and_then(|(_, b)| RsCheckpoint::from_bytes(b));
            match checkpoint.map(|cp| replay_rs(cp, &rec.wal).0) {
                None => out.push(InvariantViolation::RsDurabilityDrift {
                    detail: "stable storage does not replay".into(),
                }),
                Some(view) => {
                    let rs = g.registration_server();
                    if view.next_client != rs.next_client() {
                        out.push(InvariantViolation::RsDurabilityDrift {
                            detail: format!(
                                "durable next_client={} but memory has {}",
                                view.next_client,
                                rs.next_client()
                            ),
                        });
                    }
                    if &view.directory != rs.directory() {
                        out.push(InvariantViolation::RsDurabilityDrift {
                            detail: "durable directory differs from memory".into(),
                        });
                    }
                }
            }
        }

        out
    }
}
