//! The event queue: a binary heap ordered by `(at, seq)`, where `seq`
//! is the insertion counter, so simultaneous events pop in the order
//! they were scheduled (this is what makes runs deterministic).
//!
//! The queue cancels nothing. A timer or restart notification whose
//! node has crashed since it was queued stays queued, and the simulator
//! drops it when it surfaces, because the incarnation it carries is no
//! longer the node's — as it drops the retransmission of an
//! acknowledged message.

use crate::id::NodeId;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// How a delivery travels: plain fire-and-forget, a reliable frame that
/// must be acknowledged and deduplicated, or the acknowledgement itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transport {
    Plain,
    Reliable { msg_id: u64 },
    Ack { msg_id: u64 },
}

/// The bytes of a message in flight.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    /// A plain unicast: the sender's own buffer, moved in — sharing it
    /// would cost an allocation and a copy it has no second reader for.
    Owned(Vec<u8>),
    /// One immutable buffer held by every receiver of a multicast, and
    /// by a reliable send's retransmission record and its deliveries.
    Shared(Arc<[u8]>),
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(bytes) => bytes,
            Payload::Shared(bytes) => bytes,
        }
    }
}

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver message bytes from `from` to the destination node.
    Deliver {
        from: NodeId,
        bytes: Payload,
        kind: &'static str,
        transport: Transport,
    },
    /// Fire a timer with the given tag, armed by the node's
    /// `incarnation`-th run (its restart count when the timer was set).
    Timer { tag: u64, incarnation: u64 },
    /// Retry a reliable send (`dst` is the original sender); a no-op if
    /// the message was acknowledged or cancelled in the meantime.
    Retransmit { msg_id: u64 },
    /// Invoke `on_start` for a node added while the simulation runs.
    Start,
    /// Invoke `on_restarted` for a node that recovered from a crash, as
    /// its `incarnation`-th run (skipped if the node crashed again,
    /// whether or not it has restarted since).
    Restarted { incarnation: u64 },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: Time,
    /// Insertion counter: the FIFO tiebreak between events at one time.
    pub seq: u64,
    pub dst: NodeId,
    pub kind: EventKind,
}

/// Reversed `(at, seq)`: the earliest event is the heap's maximum.
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

/// Deterministic priority queue of simulation events (see module docs).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, at: Time, dst: NodeId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, dst, kind });
    }

    /// Removes and returns the earliest event (ties broken by `seq`).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Earliest pending deadline without removing the event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Every queued event, in no particular order (for the simulator's
    /// duplicate-timer check, not the hot path).
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(q: &mut EventQueue, at_us: u64, tag: u64) {
        q.push(
            Time::from_micros(at_us),
            NodeId::from_index(0),
            EventKind::Timer { tag, incarnation: 0 },
        );
    }

    fn pop_tag(q: &mut EventQueue) -> u64 {
        match q.pop().unwrap().kind {
            EventKind::Timer { tag, .. } => tag,
            _ => panic!("expected timer"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        ev(&mut q, 30, 3);
        ev(&mut q, 10, 1);
        ev(&mut q, 20, 2);
        assert_eq!(pop_tag(&mut q), 1);
        assert_eq!(pop_tag(&mut q), 2);
        assert_eq!(pop_tag(&mut q), 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for tag in 0..50 {
            ev(&mut q, 100, tag);
        }
        for tag in 0..50 {
            assert_eq!(pop_tag(&mut q), tag);
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        ev(&mut q, 42, 0);
        ev(&mut q, 7, 1);
        assert_eq!(q.peek_time(), Some(Time::from_micros(7)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pops_deadlines_across_the_whole_range() {
        // Deadlines from one microsecond to `u64::MAX - 1` pop in order.
        let mut q = EventQueue::new();
        let times = [
            1u64,
            63,
            64,
            4_095,
            4_096,
            262_143,
            262_144,
            1 << 30,
            (1 << 36) + 17,
            (1 << 48) + 5,
            (1 << 60) + 1,
            u64::MAX - 1,
        ];
        for (tag, &t) in times.iter().enumerate() {
            ev(&mut q, t, tag as u64);
        }
        let mut last = 0;
        for _ in 0..times.len() {
            let e = q.pop().unwrap();
            assert!(e.at.as_micros() >= last);
            last = e.at.as_micros();
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_at_current_time_pops_after_earlier_pushes() {
        let mut q = EventQueue::new();
        ev(&mut q, 100, 0);
        ev(&mut q, 100, 1);
        assert_eq!(pop_tag(&mut q), 0);
        // A push at the in-flight timestamp has a higher seq than the
        // events already queued for it, so FIFO holds.
        ev(&mut q, 100, 2);
        assert_eq!(pop_tag(&mut q), 1);
        assert_eq!(pop_tag(&mut q), 2);
    }

    /// Reference model: the `(at, seq)` order by linear scan.
    #[derive(Default)]
    struct RefQueue {
        events: Vec<(u64, u64, u64)>, // (at, seq, tag)
        next_seq: u64,
    }

    impl RefQueue {
        fn push(&mut self, at: u64, tag: u64) {
            self.events.push((at, self.next_seq, tag));
            self.next_seq += 1;
        }
        fn pop(&mut self) -> Option<(u64, u64, u64)> {
            let best = self
                .events
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, seq, _))| (at, seq))?
                .0;
            Some(self.events.swap_remove(best))
        }
    }

    /// Drives the queue and the reference model through an identical
    /// push/pop workload (op 0 pushes at `now + a`, any other op pops)
    /// and asserts identical pop order.
    pub(crate) fn check_equivalence(ops: &[(u8, u64)]) {
        let mut queue = EventQueue::new();
        let mut reference = RefQueue::default();
        let mut now = 0u64;
        let mut tag = 0u64;
        for &(op, a) in ops {
            if op == 0 {
                let at = now.saturating_add(a);
                queue.push(
                    Time::from_micros(at),
                    NodeId::from_index(0),
                    EventKind::Timer { tag, incarnation: 0 },
                );
                reference.push(at, tag);
                tag += 1;
                continue;
            }
            match (queue.pop(), reference.pop()) {
                (None, None) => {}
                (Some(e), Some((at, seq, wtag))) => {
                    assert_eq!(e.at.as_micros(), at);
                    assert_eq!(e.seq, seq);
                    match e.kind {
                        EventKind::Timer { tag: t, .. } => assert_eq!(t, wtag),
                        _ => panic!("expected timer"),
                    }
                    now = at;
                }
                (g, w) => panic!("queue {g:?} vs reference {w:?}"),
            }
            assert_eq!(queue.len(), reference.events.len());
        }
        // Drain both completely.
        while let Some((at, seq, _)) = reference.pop() {
            let e = queue.pop().expect("queue drained early");
            assert_eq!((e.at.as_micros(), e.seq), (at, seq));
        }
        assert!(queue.pop().is_none());
    }

    /// `u64::MAX` is a legal deadline (callers use saturating
    /// arithmetic).
    #[test]
    fn saturated_deadline_is_schedulable() {
        check_equivalence(&[
            (0, 8_889_169_010_698_090_458),
            (1, 0),
            (0, 4_101_513_096_249_721_465),
            (1, 0),
            (0, u64::MAX),
            (1, 0),
        ]);
    }

    #[test]
    fn equivalence_same_time_burst() {
        let mut ops = Vec::new();
        for _ in 0..500 {
            ops.push((0u8, 5u64));
        }
        for _ in 0..500 {
            ops.push((1, 0));
        }
        check_equivalence(&ops);
    }

    #[test]
    fn equivalence_mixed_horizon() {
        // Deterministic pseudo-random pushes and pops, delays spread
        // over many magnitudes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ops = Vec::new();
        for _ in 0..4000 {
            if next() % 2 == 0 {
                let delay = next() >> (next() % 48);
                ops.push((0u8, delay));
            } else {
                ops.push((1, 0));
            }
        }
        check_equivalence(&ops);
    }
}

#[cfg(test)]
mod queue_proptests {
    use super::tests::check_equivalence;
    use proptest::prelude::*;

    proptest! {
        /// The queue pops the exact `(at, seq)` order of the reference
        /// model on randomized push/pop workloads.
        #[test]
        fn pops_in_reference_order(
            ops in proptest::collection::vec((0u8..2, 0u64..u64::MAX), 1..400),
            shift in 0u32..60,
        ) {
            let shifted: Vec<(u8, u64)> = ops
                .iter()
                .map(|&(op, a)| (op, a >> shift))
                .collect();
            check_equivalence(&shifted);
        }
    }
}
