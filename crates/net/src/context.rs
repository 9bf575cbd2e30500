//! The per-callback handle protocol code uses to interact with the
//! simulated world.

use crate::id::{GroupId, NodeId};
use crate::stats::Stats;
use crate::storage::{Recovered, StableStore};
use crate::time::{Duration, Time};
use mykil_crypto::drbg::Drbg;

/// Handle to a reliable send (see [`Context::send_reliable`]): identifies
/// the message in the [`Node`](crate::Node) ack/expiry callbacks and can
/// cancel a pending retransmission via [`Context::cancel_reliable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgToken(pub(crate) u64);

/// Deferred effects of a node callback, applied by the simulator after
/// the callback returns.
#[derive(Debug)]
pub(crate) enum Action {
    Send {
        to: NodeId,
        kind: &'static str,
        bytes: Vec<u8>,
        /// Compute time accumulated before this send was issued.
        after: Duration,
    },
    SendReliable {
        to: NodeId,
        kind: &'static str,
        bytes: Vec<u8>,
        msg_id: u64,
        after: Duration,
    },
    CancelReliable {
        msg_id: u64,
    },
    Multicast {
        group: GroupId,
        kind: &'static str,
        bytes: Vec<u8>,
        after: Duration,
    },
    SetTimer {
        delay: Duration,
        tag: u64,
        after: Duration,
    },
    JoinGroup {
        group: GroupId,
    },
    LeaveGroup {
        group: GroupId,
    },
}

/// Execution context passed to every [`Node`](crate::Node) callback.
///
/// All effects (sends, timers, group membership) are deferred and
/// applied by the simulator when the callback returns, which keeps the
/// model simple and the run deterministic.
///
/// # Durable before visible
///
/// A callback writes its node's stable storage only through
/// [`wal_commit`](Self::wal_commit) and [`checkpoint`](Self::checkpoint),
/// and each is synced when it returns. Its sends leave only after it
/// returns. So nothing a callback sends can reach a peer before that
/// callback's writes are durable, whatever order the code puts them in:
/// a controller logs a change before any peer hears of it (§IV-C) by
/// construction. A transport that replaces the simulator, a socket one
/// say, must keep the same contract: release a turn's sends only after
/// the turn's writes are durable.
///
/// There is no handle to the device itself, so protocol code cannot
/// stage an append it never syncs, nor reach the fault verbs:
///
/// ```compile_fail,E0599
/// fn stage(ctx: &mut mykil_net::Context<'_>) {
///     ctx.storage().wal_append(vec![1]);
/// }
/// ```
pub struct Context<'a> {
    pub(crate) now: Time,
    pub(crate) self_id: NodeId,
    pub(crate) rng: &'a mut Drbg,
    pub(crate) stats: &'a mut Stats,
    pub(crate) actions: Vec<Action>,
    pub(crate) compute: Duration,
    pub(crate) next_msg_id: &'a mut u64,
    pub(crate) storage: &'a mut dyn StableStore,
}

impl<'a> Context<'a> {
    /// Current virtual time (does not include compute charged in this
    /// callback).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node this callback runs on.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Deterministic per-run RNG.
    pub fn rng(&mut self) -> &mut Drbg {
        self.rng
    }

    /// Custom experiment counters (see [`Stats::bump`]).
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Appends `record` to this node's write-ahead log and syncs it
    /// ([`StableStore::wal_commit`]). What is committed survives a
    /// crash, modulo an injected storage fault, and is what
    /// [`Node::on_restarted`](crate::Node::on_restarted) recovers from.
    pub fn wal_commit(&mut self, record: Vec<u8>) {
        self.storage.wal_commit(record);
    }

    /// Writes a full-state snapshot, syncing the log first
    /// ([`StableStore::checkpoint`]).
    pub fn checkpoint(&mut self, payload: Vec<u8>) {
        self.storage.checkpoint(payload);
    }

    /// The recovery read: the newest valid checkpoint and the durable
    /// log past it ([`StableStore::load`]).
    pub fn load(&self) -> Recovered {
        self.storage.load()
    }

    /// Charges virtual CPU time; every subsequent effect in this
    /// callback is delayed by the accumulated amount.
    ///
    /// Protocol code uses this to model cryptographic cost: e.g. an RSA
    /// decryption on the paper's Pentium III is charged tens of
    /// milliseconds, which is what makes the Section V-D join-latency
    /// experiment meaningful.
    pub fn charge_compute(&mut self, d: Duration) {
        self.compute += d;
    }

    /// Sends `bytes` to `to`, tagged with an accounting `kind`.
    pub fn send(&mut self, to: NodeId, kind: &'static str, bytes: Vec<u8>) {
        self.actions.push(Action::Send {
            to,
            kind,
            bytes,
            after: self.compute,
        });
    }

    /// Sends `bytes` to `to` with at-least-once delivery: the simulator
    /// retransmits with exponential backoff until the receiver's network
    /// layer acknowledges the message or the retry budget is exhausted
    /// (see [`Simulator::set_reliable_policy`](crate::Simulator::set_reliable_policy)).
    ///
    /// Receivers are shielded from the "at-least-once" part by a
    /// per-peer dedup window, so `on_message` runs at most once per
    /// reliable send. The outcome is surfaced through
    /// [`Node::on_reliable_acked`](crate::Node::on_reliable_acked) and
    /// [`Node::on_reliable_expired`](crate::Node::on_reliable_expired).
    pub fn send_reliable(&mut self, to: NodeId, kind: &'static str, bytes: Vec<u8>) -> MsgToken {
        let msg_id = *self.next_msg_id;
        *self.next_msg_id += 1;
        self.actions.push(Action::SendReliable {
            to,
            kind,
            bytes,
            msg_id,
            after: self.compute,
        });
        MsgToken(msg_id)
    }

    /// Stops retransmitting a reliable send (e.g. because it has been
    /// superseded); a no-op if it was already acknowledged or expired.
    /// Neither the ack nor the expiry callback fires afterwards.
    pub fn cancel_reliable(&mut self, token: MsgToken) {
        self.actions.push(Action::CancelReliable { msg_id: token.0 });
    }

    /// Multicasts `bytes` to every current member of `group` except the
    /// sender.
    pub fn multicast(&mut self, group: GroupId, kind: &'static str, bytes: Vec<u8>) {
        self.actions.push(Action::Multicast {
            group,
            kind,
            bytes,
            after: self.compute,
        });
    }

    /// Schedules [`Node::on_timer`](crate::Node::on_timer) with `tag`
    /// after `delay`.
    ///
    /// A timer cannot be cancelled. It belongs to the node's current
    /// incarnation: once the node crashes it never fires, even if the
    /// node has restarted by its deadline. A node that must not run two
    /// chains of one periodic timer keeps track of what it armed (the
    /// protocol roles arm each kind at most once).
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.actions.push(Action::SetTimer {
            delay,
            tag,
            after: self.compute,
        });
    }

    /// Subscribes this node to a multicast group.
    pub fn join_group(&mut self, group: GroupId) {
        self.actions.push(Action::JoinGroup { group });
    }

    /// Unsubscribes this node from a multicast group.
    pub fn leave_group(&mut self, group: GroupId) {
        self.actions.push(Action::LeaveGroup { group });
    }
}
