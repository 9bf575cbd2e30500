//! The event queue: a hierarchical timer wheel with a FIFO tiebreaker
//! so simultaneous events preserve insertion order (this is what makes
//! runs deterministic).
//!
//! The previous implementation was a global `BinaryHeap`, which is
//! fine for tens of nodes but is `O(log n)` per operation with no
//! cancellation support (cancelled timers stayed in the heap as
//! tombstones that the simulator filtered at dispatch). At
//! million-member scale the heap and the tombstone set both became
//! hot. This wheel gives:
//!
//! - **O(1) schedule**: an event lands in one of 11 levels × 64
//!   buckets chosen from the highest bit where its deadline differs
//!   from the wheel's current time (`64^11 = 2^66` covers every `u64`
//!   microsecond timestamp, so there is no overflow list).
//! - **O(1) cancel**: [`EventQueue::push`] returns an [`EventHandle`]
//!   naming the arena slot; cancelling unlinks the slot from its
//!   bucket's doubly-linked list. No tombstone set.
//! - **Arena slots with a free list**: event storage is reused, so a
//!   steady-state simulation stops allocating.
//!
//! Ordering contract (identical to the old heap, property-tested
//! below): events pop in ascending `(at, seq)` order, where `seq` is
//! the global insertion counter. Buckets are *not* kept sorted;
//! instead, when the wheel commits to a pop time it drains the whole
//! level-0 bucket for that exact timestamp into a ready list and sorts
//! it by `seq` once — cheaper than sorted insertion under flash-crowd
//! loads where thousands of events share a timestamp.

use crate::id::NodeId;
use crate::time::Time;
use std::collections::VecDeque;
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
    /// Fire a timer with the given tag.
    Timer { tag: u64, token: u64 },
    /// Retry a reliable send (`dst` is the original sender); a no-op if
    /// the message was acknowledged or cancelled in the meantime.
    Retransmit { msg_id: u64 },
    /// Invoke `on_start` for a node added while the simulation runs.
    Start,
    /// Invoke `on_restarted` for a node that recovered from a crash
    /// (skipped if the node crashed again before the event fires).
    Restarted,
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: Time,
    /// Global FIFO tiebreak; the pop order it induces is asserted by
    /// the heap-equivalence tests but not consumed by the dispatcher.
    #[cfg_attr(not(test), allow(dead_code))]
    pub seq: u64,
    pub dst: NodeId,
    pub kind: EventKind,
}

/// Names a scheduled event for O(1) cancellation. The generation
/// counter guards against stale handles: cancelling after the slot was
/// freed and reused is a detected no-op, not a corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventHandle {
    index: u32,
    gen: u32,
}

const LEVELS: usize = 11;
const SLOT_BITS: u32 = 6;
const SLOTS_PER_LEVEL: u64 = 64;
const NIL: u32 = u32::MAX;

/// `Slot::bucket` codes: `level * 64 + index` for linked slots, or one
/// of these sentinels.
const BUCKET_FREE: u16 = u16::MAX;
const BUCKET_READY: u16 = u16::MAX - 1;
/// Cancelled while on the ready list; reclaimed when the ready cursor
/// passes it (the ready list stores raw indices, so the slot cannot be
/// reused until then).
const BUCKET_TOMB: u16 = u16::MAX - 2;

#[derive(Debug)]
struct Slot {
    at: u64,
    seq: u64,
    dst: NodeId,
    kind: Option<EventKind>,
    prev: u32,
    next: u32,
    bucket: u16,
    gen: u32,
}

/// Deterministic priority queue of simulation events (see module docs).
#[derive(Debug)]
pub(crate) struct EventQueue {
    slots: Vec<Slot>,
    free_head: u32,
    heads: [[u32; 64]; LEVELS],
    tails: [[u32; 64]; LEVELS],
    /// Per-level bucket-occupancy bitmap (bit b = bucket b non-empty).
    occ: [u64; LEVELS],
    /// Cached earliest deadline per bucket (valid unless the matching
    /// `stale` bit is set; rescanned lazily on demand).
    bucket_min: [[u64; 64]; LEVELS],
    stale: [u64; LEVELS],
    /// Slots for the single timestamp the wheel has committed to pop,
    /// already sorted by `seq`.
    ready: VecDeque<u32>,
    /// The wheel's committed time: the last popped timestamp. All live
    /// events satisfy `at >= now`; buckets are keyed relative to it.
    now: u64,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_head: NIL,
            heads: [[NIL; 64]; LEVELS],
            tails: [[NIL; 64]; LEVELS],
            occ: [0; LEVELS],
            bucket_min: [[0; 64]; LEVELS],
            stale: [0; LEVELS],
            ready: VecDeque::new(),
            now: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules an event; the returned handle cancels it in O(1).
    pub fn push(&mut self, at: Time, dst: NodeId, kind: EventKind) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The simulator never schedules into the past (its clock equals
        // the last popped timestamp); clamping keeps the wheel's bucket
        // invariants intact even if a harness misbehaves in release.
        debug_assert!(at.as_micros() >= self.now, "scheduled into the past");
        let at = at.as_micros().max(self.now);
        let index = self.alloc(at, seq, dst, kind);
        self.len += 1;
        let gen = self.slots[index as usize].gen;
        self.link(index);
        EventHandle { index, gen }
    }

    /// Cancels a scheduled event. Returns `false` when the handle is
    /// stale (already fired, freed, or cancelled).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.index as usize) else {
            return false;
        };
        if slot.gen != handle.gen {
            return false;
        }
        match slot.bucket {
            BUCKET_FREE | BUCKET_TOMB => false,
            BUCKET_READY => {
                // On the ready list: the index is queued, so keep the
                // slot allocated but mark it dead; the pop path frees
                // it when the cursor reaches it.
                slot.kind = None;
                slot.bucket = BUCKET_TOMB;
                self.len -= 1;
                true
            }
            _ => {
                self.unlink(handle.index);
                self.free(handle.index);
                self.len -= 1;
                true
            }
        }
    }

    /// Removes and returns the earliest event (ties broken by `seq`).
    pub fn pop(&mut self) -> Option<Event> {
        let t = self.earliest_micros()?;
        if self.ready.is_empty() {
            self.advance_to(t);
            self.drain_level0_bucket(t);
        }
        let index = self.ready.pop_front()?;
        let slot = &mut self.slots[index as usize];
        debug_assert_eq!(slot.bucket, BUCKET_READY);
        let at = Time::from_micros(slot.at);
        let seq = slot.seq;
        let dst = slot.dst;
        let kind = slot.kind.take();
        self.free(index);
        self.len -= 1;
        kind.map(|kind| Event { at, seq, dst, kind })
    }

    /// Earliest pending deadline without removing the event.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.earliest_micros().map(Time::from_micros)
    }

    /// Live (non-cancelled) scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending timer events still in the queue (scheduled or drained to
    /// the ready list but not yet popped). Cancelled and fired slots
    /// have their kind taken, so a live kind is exactly "will fire".
    /// O(arena) — used by the simulator's accounting consistency check,
    /// not by the hot path.
    pub fn pending_timers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.kind, Some(EventKind::Timer { .. })))
            .count()
    }

    // ---- arena ----

    fn alloc(&mut self, at: u64, seq: u64, dst: NodeId, kind: EventKind) -> u32 {
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            self.free_head = slot.next;
            slot.at = at;
            slot.seq = seq;
            slot.dst = dst;
            slot.kind = Some(kind);
            slot.prev = NIL;
            slot.next = NIL;
            index
        } else {
            let index = self.slots.len() as u32;
            assert!(index != NIL, "event arena exhausted");
            self.slots.push(Slot {
                at,
                seq,
                dst,
                kind: Some(kind),
                prev: NIL,
                next: NIL,
                bucket: BUCKET_FREE,
                gen: 0,
            });
            index
        }
    }

    fn free(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        slot.kind = None;
        slot.bucket = BUCKET_FREE;
        slot.gen = slot.gen.wrapping_add(1);
        slot.prev = NIL;
        slot.next = self.free_head;
        self.free_head = index;
    }

    // ---- bucket selection ----

    /// Chooses `(level, bucket)` for a deadline relative to `self.now`.
    /// The level is the highest 6-bit digit where `at` and `now`
    /// differ: this guarantees the bucket is strictly ahead of the
    /// cursor at its level, and the mapping stays valid as `now`
    /// advances (the shared high digits cannot change before the
    /// bucket's window is reached).
    fn place(&self, at: u64) -> (usize, usize) {
        let x = at ^ self.now;
        if x < SLOTS_PER_LEVEL {
            (0, (at & 63) as usize)
        } else {
            let level = ((63 - x.leading_zeros()) / SLOT_BITS) as usize;
            let bucket = ((at >> (SLOT_BITS as usize * level)) & 63) as usize;
            (level, bucket)
        }
    }

    fn link(&mut self, index: u32) {
        let at = self.slots[index as usize].at;
        let (level, b) = self.place(at);
        let tail = self.tails[level][b];
        {
            let slot = &mut self.slots[index as usize];
            slot.bucket = (level * 64 + b) as u16;
            slot.prev = tail;
            slot.next = NIL;
        }
        if tail == NIL {
            self.heads[level][b] = index;
            self.occ[level] |= 1 << b;
            self.bucket_min[level][b] = at;
            self.stale[level] &= !(1 << b);
        } else {
            self.slots[tail as usize].next = index;
            if at < self.bucket_min[level][b] {
                self.bucket_min[level][b] = at;
            }
        }
        self.tails[level][b] = index;
    }

    fn unlink(&mut self, index: u32) {
        let (at, prev, next, bucket) = {
            let slot = &self.slots[index as usize];
            (slot.at, slot.prev, slot.next, slot.bucket as usize)
        };
        let (level, b) = (bucket / 64, bucket % 64);
        if prev == NIL {
            self.heads[level][b] = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tails[level][b] = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        if self.heads[level][b] == NIL {
            self.occ[level] &= !(1 << b);
            self.stale[level] &= !(1 << b);
        } else if at == self.bucket_min[level][b] {
            // The cached minimum may have left; rescan lazily.
            self.stale[level] |= 1 << b;
        }
    }

    /// The earliest deadline in `bucket`, rescanned if the cache is
    /// stale.
    fn bucket_earliest(&mut self, level: usize, b: usize) -> u64 {
        if self.stale[level] & (1 << b) != 0 {
            let mut min = u64::MAX;
            let mut cur = self.heads[level][b];
            while cur != NIL {
                let slot = &self.slots[cur as usize];
                min = min.min(slot.at);
                cur = slot.next;
            }
            self.bucket_min[level][b] = min;
            self.stale[level] &= !(1 << b);
        }
        self.bucket_min[level][b]
    }

    /// Exact earliest pending deadline in microseconds. Mutates only
    /// lazily-maintained caches (and reclaims cancelled ready slots),
    /// never the wheel cursor — so it is safe to call without popping.
    fn earliest_micros(&mut self) -> Option<u64> {
        while let Some(&index) = self.ready.front() {
            if self.slots[index as usize].bucket == BUCKET_TOMB {
                self.ready.pop_front();
                self.free(index);
            } else {
                return Some(self.slots[index as usize].at);
            }
        }
        if self.len == 0 {
            return None;
        }
        // `u64::MAX` is a legal deadline (saturating arithmetic in
        // callers produces it), so "no candidate yet" must be Option,
        // not a sentinel value.
        let mut best: Option<u64> = None;
        // Level 0 buckets hold exactly one timestamp of the current
        // 64-microsecond block, so the first occupied bucket at or
        // after the cursor *is* a candidate time.
        let c0 = (self.now & 63) as u32;
        let rem0 = self.occ[0] >> c0;
        if rem0 != 0 {
            best = Some(self.now + u64::from(rem0.trailing_zeros()));
        }
        // Higher levels: the earliest occupied bucket bounds the level
        // (later buckets cover strictly later windows); ask it for its
        // exact minimum.
        for level in 1..LEVELS {
            if self.occ[level] == 0 {
                continue;
            }
            let ck = ((self.now >> (SLOT_BITS as usize * level)) & 63) as u32;
            let rem = self.occ[level] >> ck;
            // The cursor's own bucket is always cascaded before the
            // cursor enters its window, and events never land behind
            // the cursor, so the low bits must be clear.
            debug_assert!(rem != 0 && rem & 1 == 0, "occupied bucket behind the cursor");
            if rem == 0 {
                continue;
            }
            let b = (ck + rem.trailing_zeros()) as usize;
            let candidate = self.bucket_earliest(level, b);
            best = Some(best.map_or(candidate, |x| x.min(candidate)));
        }
        debug_assert!(best.is_some(), "pending events but no occupied bucket");
        best
    }

    /// Commits the wheel cursor to `t` (the exact global minimum) and
    /// cascades every bucket whose window now contains the cursor:
    /// their events re-place at strictly lower levels.
    fn advance_to(&mut self, t: u64) {
        if t == self.now {
            return;
        }
        self.now = t;
        let mut drain: Vec<u32> = Vec::new();
        for level in (1..LEVELS).rev() {
            let ck = ((t >> (SLOT_BITS as usize * level)) & 63) as usize;
            if self.occ[level] & (1 << ck) == 0 {
                continue;
            }
            let mut cur = self.heads[level][ck];
            while cur != NIL {
                drain.push(cur);
                cur = self.slots[cur as usize].next;
            }
            self.heads[level][ck] = NIL;
            self.tails[level][ck] = NIL;
            self.occ[level] &= !(1 << ck);
            self.stale[level] &= !(1 << ck);
            for index in drain.drain(..) {
                self.link(index);
            }
        }
    }

    /// Drains the level-0 bucket for timestamp `t` (== `self.now`) into
    /// the ready list, sorted by insertion order.
    fn drain_level0_bucket(&mut self, t: u64) {
        debug_assert_eq!(t, self.now);
        let b = (t & 63) as usize;
        let mut batch: Vec<(u64, u32)> = Vec::new();
        let mut cur = self.heads[0][b];
        while cur != NIL {
            let slot = &self.slots[cur as usize];
            debug_assert_eq!(slot.at, t, "level-0 bucket mixed timestamps");
            batch.push((slot.seq, cur));
            cur = slot.next;
        }
        self.heads[0][b] = NIL;
        self.tails[0][b] = NIL;
        self.occ[0] &= !(1 << b);
        self.stale[0] &= !(1 << b);
        // Cascades append in bucket order, not arrival order; one sort
        // per drained timestamp restores global FIFO.
        batch.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, index) in batch {
            self.slots[index as usize].bucket = BUCKET_READY;
            self.ready.push_back(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(q: &mut EventQueue, at_us: u64, tag: u64) -> EventHandle {
        q.push(
            Time::from_micros(at_us),
            NodeId::from_index(0),
            EventKind::Timer { tag, token: 0 },
        )
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
        assert!(!q.is_empty());
    }

    #[test]
    fn spans_every_wheel_level() {
        // Deadlines from microseconds to beyond 2^60 µs exercise every
        // level, including the partial top level.
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
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h1 = ev(&mut q, 10, 1);
        ev(&mut q, 20, 2);
        let h3 = ev(&mut q, 30, 3);
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel must be a no-op");
        assert!(q.cancel(h3));
        assert_eq!(q.len(), 1);
        assert_eq!(pop_tag(&mut q), 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_handle_after_fire_is_rejected() {
        let mut q = EventQueue::new();
        let h = ev(&mut q, 10, 1);
        assert_eq!(pop_tag(&mut q), 1);
        assert!(!q.cancel(h), "handle outlived its event");
        // Slot reuse bumps the generation, so the old handle still
        // cannot cancel the new occupant.
        let h2 = ev(&mut q, 20, 2);
        assert!(!q.cancel(h));
        assert!(q.cancel(h2));
    }

    #[test]
    fn cancel_while_on_ready_list() {
        let mut q = EventQueue::new();
        let ha = ev(&mut q, 10, 1);
        let hb = ev(&mut q, 10, 2);
        let hc = ev(&mut q, 10, 3);
        // Committing to t=10 drains the bucket into the ready list.
        assert_eq!(q.peek_time(), Some(Time::from_micros(10)));
        assert_eq!(pop_tag(&mut q), 1);
        assert!(!q.cancel(ha), "already popped");
        assert!(q.cancel(hb), "cancellable while ready");
        assert_eq!(pop_tag(&mut q), 3);
        assert!(!q.cancel(hc));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_push_at_current_time_pops_after_ready() {
        let mut q = EventQueue::new();
        ev(&mut q, 100, 0);
        ev(&mut q, 100, 1);
        assert_eq!(pop_tag(&mut q), 0);
        // A push at the in-flight timestamp has a higher seq than
        // everything on the ready list, so FIFO holds.
        ev(&mut q, 100, 2);
        assert_eq!(pop_tag(&mut q), 1);
        assert_eq!(pop_tag(&mut q), 2);
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..32 {
                ev(&mut q, round * 1000 + i, i);
            }
            for _ in 0..32 {
                q.pop().unwrap();
            }
        }
        // 32 live slots at a time: the arena must not have grown past
        // one generation of slots (plus ready-list slack).
        assert!(q.slots.len() <= 64, "arena grew to {}", q.slots.len());
    }

    /// Reference model: the old binary-heap ordering, exactly.
    #[derive(Default)]
    struct RefQueue {
        events: Vec<(u64, u64, u64)>, // (at, seq, tag)
        next_seq: u64,
    }

    impl RefQueue {
        fn push(&mut self, at: u64, tag: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.events.push((at, seq, tag));
            seq
        }
        fn cancel(&mut self, seq: u64) -> bool {
            let before = self.events.len();
            self.events.retain(|&(_, s, _)| s != seq);
            self.events.len() != before
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

    /// Drives the wheel and the reference model through an identical
    /// schedule/cancel/pop workload and asserts identical pop order.
    pub(crate) fn check_equivalence(ops: &[(u8, u64, u64)]) {
        let mut wheel = EventQueue::new();
        let mut reference = RefQueue::default();
        let mut handles: Vec<(u64, EventHandle)> = Vec::new();
        let mut now = 0u64;
        let mut tag = 0u64;
        for &(op, a, b) in ops {
            match op {
                // Push at now + delay.
                0 => {
                    let at = now.saturating_add(a);
                    let h = wheel.push(
                        Time::from_micros(at),
                        NodeId::from_index(0),
                        EventKind::Timer { tag, token: 0 },
                    );
                    let seq = reference.push(at, tag);
                    handles.push((seq, h));
                    tag += 1;
                }
                // Cancel the b-th outstanding handle (if any).
                1 => {
                    if !handles.is_empty() {
                        let i = (b as usize) % handles.len();
                        let (seq, h) = handles.swap_remove(i);
                        assert_eq!(wheel.cancel(h), reference.cancel(seq));
                    }
                }
                // Pop once and compare.
                _ => {
                    let got = wheel.pop();
                    let want = reference.pop();
                    match (got, want) {
                        (None, None) => {}
                        (Some(e), Some((at, seq, wtag))) => {
                            assert_eq!(e.at.as_micros(), at);
                            assert_eq!(e.seq, seq);
                            match e.kind {
                                EventKind::Timer { tag: t, .. } => assert_eq!(t, wtag),
                                _ => panic!("expected timer"),
                            }
                            handles.retain(|&(s, _)| s != seq);
                            now = at;
                        }
                        (g, w) => panic!("wheel {g:?} vs reference {w:?}"),
                    }
                    assert_eq!(wheel.len(), reference.events.len());
                }
            }
        }
        // Drain both completely.
        while let Some((at, seq, _)) = reference.pop() {
            let e = wheel.pop().expect("wheel drained early");
            assert_eq!((e.at.as_micros(), e.seq), (at, seq));
        }
        assert!(wheel.pop().is_none());
    }

    /// Regression: `u64::MAX` is a legal deadline (callers use
    /// saturating arithmetic), so the earliest-scan must not treat it
    /// as a "nothing found" sentinel.
    #[test]
    fn saturated_deadline_is_schedulable() {
        check_equivalence(&[
            (0, 8_889_169_010_698_090_458, 0),
            (2, 0, 0),
            (0, 4_101_513_096_249_721_465, 0),
            (2, 0, 0),
            (0, u64::MAX, 0),
            (2, 0, 0),
        ]);
    }

    #[test]
    fn equivalence_same_time_burst() {
        let mut ops = Vec::new();
        for _ in 0..500 {
            ops.push((0u8, 5u64, 0u64));
        }
        for _ in 0..500 {
            ops.push((2, 0, 0));
        }
        check_equivalence(&ops);
    }

    #[test]
    fn equivalence_mixed_horizon_with_cancels() {
        // Deterministic pseudo-random workload across all levels.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ops = Vec::new();
        for _ in 0..4000 {
            let r = next();
            let op = (r % 10) as u8;
            match op {
                0..=4 => {
                    // Delay spread over many magnitudes.
                    let delay = next() >> (next() % 48);
                    ops.push((0u8, delay, 0));
                }
                5 | 6 => ops.push((1, 0, next())),
                _ => ops.push((2, 0, 0)),
            }
        }
        check_equivalence(&ops);
    }
}

#[cfg(test)]
mod wheel_proptests {
    use super::tests::check_equivalence;
    use proptest::prelude::*;

    proptest! {
        /// Satellite 4 (ISSUE 7): the wheel must pop the exact same
        /// (time, seq, dst, kind) order as the old `BinaryHeap` queue
        /// on randomized schedule/cancel workloads.
        #[test]
        fn wheel_matches_heap_order(
            ops in proptest::collection::vec(
                (0u8..3, 0u64..u64::MAX, any::<u64>()), 1..400),
            shift in 0u32..60,
        ) {
            let shifted: Vec<(u8, u64, u64)> = ops
                .iter()
                .map(|&(op, a, b)| (op, a >> shift, b))
                .collect();
            check_equivalence(&shifted);
        }
    }
}
