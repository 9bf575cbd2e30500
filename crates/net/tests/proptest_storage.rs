//! Property-based tests for the stable-storage stack: the two honest
//! backends must be observationally equivalent under the one fault
//! engine for arbitrary operation/fault sequences, the engine must
//! obey the crash laws on its own account, recovery must be a fixpoint
//! on both backends, the ping-pong slots must fall back correctly
//! under every corruption combination, and a `FileStore` must survive
//! reopen-from-disk and crash-mid-checkpoint.

use mykil_net::{scratch_dir, FaultyStore, FileStore, SimStore, StableStore, StoreFault};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;

/// One storage operation or injected fault.
#[derive(Debug, Clone)]
enum Op {
    Append(Vec<u8>),
    Commit(Vec<u8>),
    Sync,
    Checkpoint(Vec<u8>),
    Crash,
    Fault(StoreFault),
    Heal,
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

/// The four verbs the engine realizes itself.
fn dishonesty() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Fault(StoreFault::LostTail)),
        Just(Op::Fault(StoreFault::TornWrite)),
        Just(Op::Fault(StoreFault::ShortRead)),
        Just(Op::Fault(StoreFault::AppendFail)),
    ]
}

/// The two bit-rot verbs the engine hands to its backend.
fn bit_rot() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Fault(StoreFault::CorruptCheckpoint)),
        (0u8..2).prop_map(|i| Op::Fault(StoreFault::CorruptSlot(i))),
    ]
}

/// What a well-behaved caller does to its device.
fn honest_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        payload().prop_map(Op::Append),
        payload().prop_map(Op::Commit),
        Just(Op::Sync),
        payload().prop_map(Op::Checkpoint),
        Just(Op::Crash),
        Just(Op::Heal),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![6 => honest_op(), 4 => dishonesty(), 2 => bit_rot()]
}

fn apply(store: &mut dyn StableStore, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Append(b) => store.wal_append(b.clone()),
            Op::Commit(b) => store.wal_commit(b.clone()),
            Op::Sync => store.sync(),
            Op::Checkpoint(b) => store.checkpoint(b.clone()),
            Op::Crash => {
                let _ = store.on_crash();
            }
            Op::Fault(f) => {
                store.inject(*f);
            }
            Op::Heal => store.heal(),
        }
    }
}

type View = (Option<(u64, Vec<u8>)>, Vec<Vec<u8>>, bool, u64, u64);

/// Everything two equivalent devices must agree on after any history,
/// checkpoint sequence numbers included: the engine decides when a
/// checkpoint reaches the backend, so both backends number alike.
fn view(store: &dyn StableStore) -> View {
    let r = store.load();
    (
        r.checkpoint,
        r.wal,
        store.has_durable_state(),
        store.sync_count(),
        store.checkpoint_count(),
    )
}

fn sim_backed() -> FaultyStore {
    FaultyStore::new(Box::new(SimStore::new()))
}

fn file_backed(dir: &Path) -> FaultyStore {
    FaultyStore::new(Box::new(
        FileStore::open(dir).expect("open scratch file store"),
    ))
}

/// What the law property remembers about the writes it made. It knows
/// which regime each write was made under — not what the engine does
/// with it.
#[derive(Default)]
struct Ledger {
    /// Ids handed out so far; records and checkpoints share the counter.
    issued: u32,
    appended: BTreeSet<u32>,
    checkpointed: BTreeSet<u32>,
    /// Appended since the last honest flush.
    unsynced: Vec<u32>,
    /// Honestly flushed with nothing armed and no torn record in the
    /// way: recovery must still find these (in the WAL or under the
    /// recovered checkpoint).
    must_survive: BTreeSet<u32>,
    /// Dropped by a failing append, unsynced at a crash, or a
    /// checkpoint parked in a lying cache at a crash: never readable.
    must_not_survive: BTreeSet<u32>,
    /// Checkpoints parked since the lying sync was armed.
    parked_ckpts: Vec<u32>,
    lying: bool,
    torn_armed: bool,
    dropping: bool,
    short_read: bool,
    /// A crash may have left a torn record since the last honest
    /// checkpoint; records synced behind it are not replayable.
    torn_in_log: bool,
}

impl Ledger {
    fn next_id(&mut self) -> u32 {
        self.issued += 1;
        self.issued
    }

    fn honest_flush(&mut self) {
        let flushed = std::mem::take(&mut self.unsynced);
        if !self.torn_in_log {
            self.must_survive.extend(flushed);
        }
        self.parked_ckpts.clear();
    }

    /// Runs `op` against `store`, recording what was written when.
    fn step(&mut self, store: &mut dyn StableStore, op: &Op) {
        match op {
            Op::Append(_) | Op::Commit(_) => {
                let id = self.next_id();
                self.appended.insert(id);
                if self.dropping {
                    self.must_not_survive.insert(id);
                } else {
                    self.unsynced.push(id);
                }
                store.wal_append(id.to_be_bytes().to_vec());
                if matches!(op, Op::Commit(_)) {
                    self.step(store, &Op::Sync);
                }
            }
            Op::Sync => {
                store.sync();
                if !self.lying {
                    self.honest_flush();
                }
            }
            Op::Checkpoint(_) => {
                let id = self.next_id();
                self.checkpointed.insert(id);
                store.checkpoint(id.to_be_bytes().to_vec());
                if self.lying {
                    self.parked_ckpts.push(id);
                } else {
                    self.honest_flush();
                    self.torn_in_log = false;
                }
            }
            Op::Crash => {
                let _ = store.on_crash();
                self.torn_in_log |= self.torn_armed && !self.unsynced.is_empty();
                self.must_not_survive.extend(self.unsynced.drain(..));
                self.must_not_survive.extend(self.parked_ckpts.drain(..));
                self.lying = false;
                self.torn_armed = false;
                self.check(store);
            }
            Op::Fault(f) => {
                store.inject(*f);
                match f {
                    StoreFault::LostTail => (self.lying, self.torn_armed) = (true, false),
                    StoreFault::TornWrite => (self.lying, self.torn_armed) = (true, true),
                    StoreFault::ShortRead => self.short_read = true,
                    StoreFault::AppendFail => self.dropping = true,
                    StoreFault::CorruptCheckpoint | StoreFault::CorruptSlot(_) => {}
                }
            }
            Op::Heal => {
                store.heal();
                (self.lying, self.torn_armed) = (false, false);
                (self.dropping, self.short_read) = (false, false);
                self.honest_flush();
            }
        }
    }

    /// The crash laws, checked against what `store` recovers now.
    fn check(&self, store: &dyn StableStore) {
        let r = store.load();
        let id_of = |bytes: &[u8]| <[u8; 4]>::try_from(bytes).ok().map(u32::from_be_bytes);
        let covered = match &r.checkpoint {
            None => 0,
            Some((_, payload)) => id_of(payload)
                .filter(|id| self.checkpointed.contains(id))
                .unwrap_or_else(|| panic!("recovered a checkpoint nobody wrote: {r:?}")),
        };
        assert!(
            !self.must_not_survive.contains(&covered),
            "checkpoint {covered} came back from a lying cache that crashed"
        );
        // Nothing invented, reordered or duplicated: the replayable
        // WAL is a strictly increasing run of appended ids past the
        // checkpoint. A short read may leave one stub, at the very end.
        let mut replayed = Vec::new();
        for (i, rec) in r.wal.iter().enumerate() {
            match id_of(rec) {
                Some(id) => replayed.push(id),
                None => assert!(
                    self.short_read && i + 1 == r.wal.len(),
                    "record {i} of {:?} is no record anybody appended",
                    r.wal
                ),
            }
        }
        let mut floor = covered;
        for &id in &replayed {
            assert!(id > floor, "{replayed:?} after checkpoint {covered}: out of order");
            assert!(self.appended.contains(&id), "record {id} was never appended");
            assert!(
                !self.must_not_survive.contains(&id),
                "record {id} was dropped, or unsynced at a crash, yet came back"
            );
            floor = id;
        }
        // An honest sync is a promise — unless the read path is still
        // lying about the tail.
        if !self.short_read {
            for id in &self.must_survive {
                assert!(
                    *id <= covered || replayed.contains(id),
                    "record {id} was honestly synced and is gone: {r:?}"
                );
            }
        }
    }
}

proptest! {
    /// The two honest backends agree on every observable after any
    /// mixed operation/fault history under the one engine — a
    /// `FileStore` really is a drop-in for the `SimStore`.
    #[test]
    fn sim_and_file_devices_are_equivalent(
        ops in proptest::collection::vec(op(), 0..24)
    ) {
        let dir = scratch_dir("storage-equiv");
        let mut sim = sim_backed();
        let mut file = file_backed(&dir);
        apply(&mut sim, &ops);
        apply(&mut file, &ops);
        prop_assert_eq!(view(&sim), view(&file));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two backends under one engine cannot catch an engine bug
    /// differentially, so the engine answers to laws instead. After
    /// any history of writes and dishonesty faults, at every crash:
    /// what recovery reads is an in-order run of what was written
    /// (nothing invented, reordered or duplicated); every record
    /// honestly synced while nothing was armed is there; and nothing
    /// written into a lying cache, dropped by a failing append or
    /// left unsynced comes back — unless `heal` came first. (Bit-rot
    /// is the backend's and has its own matrix below.)
    #[test]
    fn crash_recovers_an_in_order_run_of_what_was_honestly_synced(
        ops in proptest::collection::vec(prop_oneof![2 => honest_op(), 1 => dishonesty()], 0..40)
    ) {
        let mut store = sim_backed();
        let mut ledger = Ledger::default();
        for op in &ops {
            ledger.step(&mut store, op);
        }
        ledger.step(&mut store, &Op::Crash);
    }

    /// load → write the loaded state back as a checkpoint → load is a
    /// fixpoint on both backends: the second load returns exactly the
    /// re-checkpointed payload with an empty WAL suffix, and repeating
    /// the cycle changes nothing further.
    #[test]
    fn recovery_is_a_fixpoint_on_both_backends(
        ops in proptest::collection::vec(op(), 0..24)
    ) {
        let dir = scratch_dir("storage-fixpoint");
        for mut store in [sim_backed(), file_backed(&dir)] {
            apply(&mut store, &ops);
            // A crashed-then-healed device: recovery never runs against
            // live armed faults.
            let _ = store.on_crash();
            store.heal();

            let first = store.load();
            // "Replay" is opaque here: fold the recovered state into a
            // synthetic full-state snapshot, as real recovery does.
            let mut snapshot = Vec::new();
            if let Some((_, c)) = &first.checkpoint {
                snapshot.extend_from_slice(c);
            }
            for rec in &first.wal {
                snapshot.extend_from_slice(rec);
            }
            store.checkpoint(snapshot.clone());

            let second = store.load();
            prop_assert_eq!(
                second.checkpoint.as_ref().map(|(_, p)| p.clone()),
                Some(snapshot.clone()),
                "checkpoint written by recovery did not read back"
            );
            prop_assert!(second.wal.is_empty(), "WAL suffix survived the checkpoint");

            store.checkpoint(snapshot.clone());
            let third = store.load();
            prop_assert_eq!(third.checkpoint.map(|(_, p)| p), Some(snapshot));
            prop_assert!(third.wal.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whatever was durable before a crash is exactly what a fresh
    /// `FileStore` opened over the same directory recovers — the
    /// wrapper's post-crash view IS the on-disk truth.
    #[test]
    fn file_store_reopens_to_the_post_crash_state(
        ops in proptest::collection::vec(op(), 0..24)
    ) {
        let dir = scratch_dir("storage-reopen");
        let mut store = file_backed(&dir);
        apply(&mut store, &ops);
        let _ = store.on_crash();
        store.heal();
        let before = store.load();
        drop(store);

        let reopened = FileStore::open(&dir).expect("reopen");
        let after = reopened.load();
        prop_assert_eq!(before.checkpoint, after.checkpoint);
        prop_assert_eq!(before.wal, after.wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Exhaustive ping-pong fallback matrix, run against both backends.
/// History: checkpoint `p1`, commit `a`, checkpoint `p2`, commit `b` —
/// so one slot holds `p1`, the other `p2`, and the WAL holds `[a, b]`
/// (`a` is above `p1`'s position, so installing `p2` must not truncate
/// it). Every subset of corrupted slots has a forced recovery outcome.
#[test]
fn older_slot_fallback_under_every_corruption_combination() {
    let p1 = b"ckpt-one".to_vec();
    let p2 = b"ckpt-two".to_vec();
    let a = b"rec-a".to_vec();
    let b = b"rec-b".to_vec();

    let build = |which: &str| {
        let dir = scratch_dir(&format!("storage-slots-{which}"));
        [sim_backed(), file_backed(&dir)]
    };

    for combo in 0u8..4 {
        for mut store in build(&format!("combo{combo}")) {
            store.checkpoint(p1.clone());
            store.wal_commit(a.clone());
            store.checkpoint(p2.clone());
            store.wal_commit(b.clone());
            if combo & 1 != 0 {
                store.inject(StoreFault::CorruptSlot(0));
            }
            if combo & 2 != 0 {
                store.inject(StoreFault::CorruptSlot(1));
            }
            let r = store.load();
            let got = (r.checkpoint.map(|(_, p)| p), r.wal);
            match combo {
                // Both slots healthy: newest checkpoint, newest suffix.
                0 => assert_eq!(got, (Some(p2.clone()), vec![b.clone()])),
                // One slot corrupted: whichever checkpoint survived,
                // with exactly the WAL suffix written after it.
                1 | 2 => {
                    let newer = (Some(p2.clone()), vec![b.clone()]);
                    let older = (Some(p1.clone()), vec![a.clone(), b.clone()]);
                    assert!(
                        got == newer || got == older,
                        "combo {combo}: unexpected recovery {got:?}"
                    );
                }
                // Both corrupted: no checkpoint; the whole surviving
                // WAL (nothing below `p1` existed to truncate).
                _ => assert_eq!(got, (None, vec![a.clone(), b.clone()])),
            }
        }
    }

    // Corrupting slot 0 and slot 1 must hit *different* checkpoints:
    // exactly one of the single-slot corruptions forces the older-slot
    // fallback.
    let mut fallbacks = 0;
    for slot in 0u8..2 {
        for mut store in build(&format!("which{slot}")) {
            store.checkpoint(p1.clone());
            store.wal_commit(a.clone());
            store.checkpoint(p2.clone());
            store.inject(StoreFault::CorruptSlot(slot));
            let r = store.load();
            if r.checkpoint.map(|(_, p)| p) == Some(p1.clone()) {
                fallbacks += 1;
            }
        }
    }
    assert_eq!(
        fallbacks, 2,
        "each backend must fall back for exactly one of the two slots"
    );
}

/// A crash halfway through writing the newest checkpoint slot: the
/// partially-written slot file is unparseable garbage on reopen, and
/// recovery falls back to the older slot plus the longer WAL suffix —
/// the install is atomic-or-ignored, never half-applied.
#[test]
fn file_store_crash_mid_checkpoint_falls_back_on_reopen() {
    let dir = scratch_dir("storage-midckpt");
    let mut store = FileStore::open(&dir).expect("open");
    store.checkpoint(b"stable".to_vec());
    store.wal_commit(b"delta-1".to_vec());
    store.checkpoint(b"newest".to_vec());
    store.wal_commit(b"delta-2".to_vec());
    drop(store);

    // Find the slot file holding "newest" and tear it: keep a prefix,
    // as a crash mid-write would.
    let mut torn = false;
    for slot in ["ckpt0.slot", "ckpt1.slot"] {
        let path = dir.join(slot);
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        if bytes
            .windows(b"newest".len())
            .any(|w| w == b"newest")
        {
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear slot");
            torn = true;
        }
    }
    assert!(torn, "newest checkpoint slot file not found");

    let reopened = FileStore::open(&dir).expect("reopen after torn install");
    let r = reopened.load();
    assert_eq!(
        r.checkpoint.map(|(_, p)| p),
        Some(b"stable".to_vec()),
        "torn slot was not ignored"
    );
    assert_eq!(r.wal, vec![b"delta-1".to_vec(), b"delta-2".to_vec()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash halfway through a WAL frame: the partial trailing frame is
/// discarded on reopen and the durable prefix survives untouched.
#[test]
fn file_store_truncates_partial_trailing_wal_frame() {
    let dir = scratch_dir("storage-partial-frame");
    let mut store = FileStore::open(&dir).expect("open");
    store.wal_commit(b"whole-record".to_vec());
    store.wal_commit(b"doomed-record".to_vec());
    drop(store);

    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).expect("read wal");
    // Chop mid-way through the last frame's payload.
    std::fs::write(&wal_path, &bytes[..bytes.len() - 4]).expect("tear wal");

    let reopened = FileStore::open(&dir).expect("reopen after torn frame");
    let r = reopened.load();
    assert_eq!(r.wal, vec![b"whole-record".to_vec()]);
    let _ = std::fs::remove_dir_all(&dir);
}
