//! Stable storage: a per-node write-ahead log plus dual checkpoint
//! slots, behind the pluggable [`StableStore`] trait.
//!
//! Every simulated process owns one device. A callback reaches it only
//! through [`Context`](crate::Context)'s three durable calls —
//! `wal_commit`, `checkpoint` and `load` — so protocol code cannot
//! stage an unsynced append or touch the fault verbs. The stack has one
//! shape, whatever the backend:
//!
//! ```text
//! Simulator ── FaultyStore ── backend
//!              (engine)       SimStore (memory) | FileStore (disk)
//! ```
//!
//! - [`FaultyStore`] is the fault engine and the device cache. The
//!   simulator wraps every node's backend in one, so all six
//!   [`StoreFault`] verbs (the `torn` / `lost-tail` / `ckpt-corrupt` /
//!   `wal-short-read` / `wal-append-fail` / `ckpt-slot-corrupt` chaos
//!   verbs) work on every backend, and "what a lying disk leaves
//!   behind" is defined here and nowhere else.
//! - [`SimStore`] — the default backend: the WAL and the two slots in
//!   memory, deterministic and allocation-only. Checksums are modeled,
//!   not computed: a record or slot carries a validity flag that
//!   bit-rot clears, exactly as a real CRC mismatch would read back.
//! - [`FileStore`](crate::FileStore) — the same model on real files
//!   (see `file_store.rs` for the on-disk layout).
//!
//! Both backends persist what they acknowledge and answer
//! [`StableStore::inject`] alike: checkpoint bit-rot yes, the four
//! device-dishonesty verbs no (those are the engine's).
//!
//! The storage model mirrors a real fsync-based design:
//!
//! - [`StableStore::wal_append`] stages a record in the device cache;
//!   [`StableStore::sync`] makes the cached tail durable (protocol
//!   code normally uses the combined [`StableStore::wal_commit`]).
//! - [`StableStore::checkpoint`] writes a full-state snapshot into the
//!   older of two slots (classic ping-pong), records the WAL position
//!   it covers, and truncates the log prefix no longer needed by
//!   either slot. Slot metadata (sequence, WAL position) is kept apart
//!   from the payload, so payload corruption never forges a valid
//!   newer slot.
//! - [`StableStore::load`] is the recovery read path: it returns the
//!   newest *valid* checkpoint and the durable WAL suffix past it,
//!   stopping at the first record whose checksum fails.
//!
//! All buffers that may hold key material are wrapped in
//! [`SecretBytes`], which zeroizes on drop.

// A wire/codec module: it parses hostile bytes, so a narrowing cast or a
// panicking slice access outside tests is a finding.
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
        clippy::disallowed_methods
    )
)]

use mykil_crypto::ct;

/// A byte buffer that zeroizes its contents on drop. WAL records and
/// checkpoint payloads routinely contain wrapped keys and key-tree
/// snapshots; dropping them must not leave plaintext in freed memory
/// (same idiom as `mykil_crypto::keys::SymmetricKey`; the rules all
/// secret types keep are in `mykil_crypto::ct`).
///
/// Its equality is constant-time, and it has no `Hash`:
///
/// ```compile_fail,E0277
/// fn hash<T: std::hash::Hash>() {}
/// hash::<mykil_net::SecretBytes>();
/// ```
#[derive(Clone)]
pub struct SecretBytes(Vec<u8>);

#[expect(
    drop_bounds,
    reason = "`T: Drop` holds only where an `impl Drop` is written, which is the point"
)]
fn _secret_bytes_wipe_on_drop()
where
    SecretBytes: Drop,
{
}

impl SecretBytes {
    /// Wraps `bytes`, taking ownership.
    pub fn new(bytes: Vec<u8>) -> SecretBytes {
        SecretBytes(bytes)
    }

    /// Read access to the wrapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length of the wrapped buffer.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Unwraps the buffer without copying it.
    fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.0)
    }
}

impl Drop for SecretBytes {
    fn drop(&mut self) {
        ct::zeroize(&mut self.0);
    }
}

/// Constant-time comparison: replica snapshots are compared in tests
/// and assertions, and a derived `PartialEq` would leak their contents
/// through timing.
impl PartialEq for SecretBytes {
    fn eq(&self, other: &SecretBytes) -> bool {
        ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for SecretBytes {}

impl std::fmt::Debug for SecretBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretBytes({} bytes)", self.0.len())
    }
}

/// A fault injectable into a [`StableStore`] via
/// [`StableStore::inject`]. [`FaultyStore`] realizes the four
/// device-dishonesty verbs and passes the two bit-rot verbs on; a bare
/// backend answers `false` to the former and changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Lying fsync: every `sync` until the next crash reports success
    /// without persisting; the crash discards the unsynced tail
    /// cleanly (a lying-fsync power loss).
    LostTail,
    /// Like [`StoreFault::LostTail`], except the crash leaves the
    /// first cached record *torn* — present but checksum-invalid, so
    /// recovery must detect and discard it.
    TornWrite,
    /// Bit-rot in the newest valid checkpoint slot's payload, applied
    /// immediately; recovery falls back to the other slot and a
    /// longer WAL replay.
    CorruptCheckpoint,
    /// Reads of the WAL come back short until healed: `load` returns
    /// the final record truncated to half its length. Models a
    /// partial read of the log tail; decoders must reject the stub.
    ShortRead,
    /// WAL appends are silently dropped until healed (a device that
    /// acknowledges writes it never performs).
    AppendFail,
    /// Bit-rot targeting a specific ping-pong slot (0 or 1),
    /// regardless of which is newest.
    CorruptSlot(u8),
}

/// What a recovering node reads back from stable storage. The buffers
/// are consumed and parsed within the restart callback; the at-rest
/// copies stay [`SecretBytes`].
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Newest valid checkpoint payload, with its sequence number.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Durable, checksum-valid WAL records past the checkpoint (all
    /// records when there is no checkpoint), oldest first.
    pub wal: Vec<Vec<u8>>,
}

/// Pluggable stable storage for one node: WAL + ping-pong checkpoint
/// slots + crash/fault semantics. See the [module docs](self) for the
/// storage model and the implementations.
///
/// Object-safe: [`FaultyStore`] holds its backend boxed, and a factory
/// can swap the backend per deployment
/// ([`Simulator::set_storage_factory`](crate::Simulator::set_storage_factory)).
pub trait StableStore: std::fmt::Debug + Send {
    /// Stages a WAL record in the device cache; not durable until
    /// [`Self::sync`] (use [`Self::wal_commit`] for the common
    /// append-then-fsync pattern).
    fn wal_append(&mut self, bytes: Vec<u8>);

    /// Flushes the cache to the durable log (an fsync barrier). Under
    /// an armed lying-sync fault this *reports* success but persists
    /// nothing — the lie is only observable through the next crash.
    fn sync(&mut self);

    /// Appends one record and syncs: the write-ahead discipline
    /// protocol code uses before acknowledging a state change.
    fn wal_commit(&mut self, bytes: Vec<u8>) {
        self.wal_append(bytes);
        self.sync();
    }

    /// Writes a full-state snapshot covering everything appended so
    /// far (implicitly syncing the WAL tail first) into the older of
    /// the two ping-pong slots, then truncates the WAL prefix neither
    /// slot needs any more.
    fn checkpoint(&mut self, payload: Vec<u8>);

    /// Appends one record that is durable but reads back
    /// checksum-invalid, as a torn write would leave it. The record
    /// occupies a WAL position; [`Self::load`] stops in front of it.
    /// Used by [`FaultyStore`] to realize torn-write crashes against
    /// any backend, and by tests crafting hostile logs.
    fn append_torn(&mut self, bytes: Vec<u8>);

    /// Recovery read path: newest valid checkpoint plus the durable,
    /// checksum-valid WAL suffix past it. A checksum-invalid (torn)
    /// record ends the replayable suffix.
    fn load(&self) -> Recovered;

    /// Injects `fault`; returns whether this backend supports that
    /// fault kind. Lying-sync faults are consumed by the next crash;
    /// read-path faults persist until [`Self::heal`].
    fn inject(&mut self, fault: StoreFault) -> bool;

    /// Disarms injected device faults (lying sync, short read, append
    /// failure) and honestly flushes the cache — the device comes
    /// back well-behaved. Already-written corruption stays.
    fn heal(&mut self);

    /// Applies crash semantics to the device cache and consumes any
    /// armed lying-sync fault; returns a stat label when an armed
    /// fault actually fired. Called by the simulator when the owning
    /// node crashes; tests may call it directly to model a crash.
    fn on_crash(&mut self) -> Option<&'static str>;

    /// Whether anything durable exists (a checkpoint or WAL record).
    fn has_durable_state(&self) -> bool;

    /// Number of `sync` calls (honest or lied-to) so far.
    fn sync_count(&self) -> u64;

    /// Number of checkpoints written so far.
    fn checkpoint_count(&self) -> u64;
}

/// One durable WAL record. `valid` models the stored checksum: a torn
/// write reads back with `valid == false` and recovery discards it
/// (and, by append-only construction, everything after it).
#[derive(Debug, Clone)]
struct WalRecord {
    bytes: SecretBytes,
    valid: bool,
}

/// One checkpoint slot. Metadata (`seq`, `wal_pos`) lives outside the
/// corruptible payload: bit-rot can invalidate a slot but never promote
/// it.
#[derive(Debug, Clone)]
struct CheckpointSlot {
    /// Monotone checkpoint sequence; recovery picks the valid slot with
    /// the highest value.
    seq: u64,
    /// Absolute WAL position this snapshot covers: recovery replays
    /// durable records from here on.
    wal_pos: u64,
    payload: SecretBytes,
    /// Models the payload checksum verifying on read-back.
    valid: bool,
}

/// The honest in-memory backend: the twin of
/// [`FileStore`](crate::FileStore) with the files replaced by vectors.
/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct SimStore {
    /// Durable log records; index 0 is absolute position `wal_base`.
    wal: Vec<WalRecord>,
    /// Absolute position of `wal[0]` (the prefix below it has been
    /// truncated away by checkpointing).
    wal_base: u64,
    /// Appended but not yet durable (device cache).
    cached: Vec<SecretBytes>,
    /// Ping-pong checkpoint slots.
    slots: [Option<CheckpointSlot>; 2],
    /// Counters for harness assertions.
    syncs: u64,
    checkpoints: u64,
}

impl SimStore {
    /// Creates empty storage (factory-fresh disk).
    pub fn new() -> SimStore {
        SimStore::default()
    }

    /// Absolute position one past the last record (durable or cached).
    fn wal_end(&self) -> u64 {
        self.wal_base + self.wal.len() as u64 + self.cached.len() as u64
    }

    /// Writes `slot` over the older of the two ping-pong slots, then
    /// truncates the WAL prefix neither slot needs any more.
    fn install_slot(&mut self, slot: CheckpointSlot) {
        let [slot0, slot1] = &self.slots;
        let target = match (slot0, slot1) {
            (None, _) => 0,
            (_, None) => 1,
            (Some(a), Some(b)) => usize::from(a.seq > b.seq),
        };
        if let Some(t) = self.slots.get_mut(target) {
            *t = Some(slot);
        }
        let keep_from = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.wal_pos)
            .min()
            .unwrap_or(self.wal_base);
        if keep_from > self.wal_base {
            let drop_n = usize::try_from(keep_from - self.wal_base)
                .unwrap_or(usize::MAX)
                .min(self.wal.len());
            self.wal.drain(..drop_n);
            self.wal_base += drop_n as u64;
        }
    }
}

impl StableStore for SimStore {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        self.cached.push(SecretBytes::new(bytes));
    }

    fn sync(&mut self) {
        self.syncs += 1;
        for bytes in self.cached.drain(..) {
            self.wal.push(WalRecord { bytes, valid: true });
        }
    }

    fn checkpoint(&mut self, payload: Vec<u8>) {
        self.checkpoints += 1;
        // One past the newest slot, valid or not: the number a reopened
        // `FileStore` would resume from.
        let newest = self.slots.iter().flatten().map(|s| s.seq).max();
        let slot = CheckpointSlot {
            seq: newest.unwrap_or(0) + 1,
            wal_pos: self.wal_end(),
            payload: SecretBytes::new(payload),
            valid: true,
        };
        self.sync();
        self.install_slot(slot);
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        self.wal.push(WalRecord {
            bytes: SecretBytes::new(bytes),
            valid: false,
        });
    }

    fn load(&self) -> Recovered {
        let best = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.valid)
            .max_by_key(|s| s.seq);
        let from = best.map(|s| s.wal_pos).unwrap_or(0).max(self.wal_base);
        let mut wal = Vec::new();
        let skip = usize::try_from(from - self.wal_base).unwrap_or(usize::MAX);
        for rec in self.wal.iter().skip(skip) {
            if !rec.valid {
                break;
            }
            wal.push(rec.bytes.as_slice().to_vec());
        }
        Recovered {
            checkpoint: best.map(|s| (s.seq, s.payload.as_slice().to_vec())),
            wal,
        }
    }

    fn inject(&mut self, fault: StoreFault) -> bool {
        let slot = match fault {
            // Bit-rot in the newest valid slot; with both populated,
            // recovery falls back to the older one.
            StoreFault::CorruptCheckpoint => self
                .slots
                .iter_mut()
                .flatten()
                .filter(|s| s.valid)
                .max_by_key(|s| s.seq),
            StoreFault::CorruptSlot(i) => {
                self.slots.get_mut(usize::from(i)).and_then(|s| s.as_mut())
            }
            // Device-dishonesty faults are the FaultyStore engine's:
            // this backend performs every write it acknowledges.
            StoreFault::LostTail
            | StoreFault::TornWrite
            | StoreFault::ShortRead
            | StoreFault::AppendFail => return false,
        };
        if let Some(slot) = slot {
            slot.valid = false;
        }
        true
    }

    fn heal(&mut self) {
        self.sync();
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        // The device cache dies with the process; the log survives.
        self.cached.clear();
        None
    }

    fn has_durable_state(&self) -> bool {
        !self.wal.is_empty() || self.slots.iter().any(|s| s.is_some())
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }
}

/// The armed lying-sync failure mode (consumed by the next crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArmedFault {
    None,
    /// Crash discards the whole unsynced tail.
    LostTail,
    /// Crash persists the first cached record torn (checksum-invalid)
    /// and discards the rest.
    TornWrite,
}

/// An unflushed write parked in the [`FaultyStore`] device cache, in
/// arrival order. Checkpoints park too: a lying sync swallows the slot
/// write together with the WAL tail.
#[derive(Debug)]
enum Parked {
    Rec(SecretBytes),
    Ckpt(SecretBytes),
}

/// The storage fault engine: one per node, between the simulator
/// ([`Simulator::add_node`](crate::Simulator::add_node) does the
/// wrapping) and the node's backend.
///
/// `FaultyStore` owns the device cache: appends and (while a lying
/// sync is armed) checkpoints park here and only reach the backend on
/// an honest `sync`. That realizes the full [`StoreFault`] matrix —
/// lost-tail and torn-write crashes, short reads, dropped appends —
/// against backends that only know how to be honest, and makes its
/// sync and checkpoint counters the ones
/// [`Simulator::storage`](crate::Simulator::storage) reports.
#[derive(Debug)]
pub struct FaultyStore {
    inner: Box<dyn StableStore>,
    /// The device cache: writes not yet flushed to `inner`.
    parked: Vec<Parked>,
    armed: ArmedFault,
    short_read: bool,
    append_fail: bool,
    syncs: u64,
    checkpoints: u64,
}

impl FaultyStore {
    /// Wraps `inner` with no faults armed.
    pub fn new(inner: Box<dyn StableStore>) -> FaultyStore {
        FaultyStore {
            inner,
            parked: Vec::new(),
            armed: ArmedFault::None,
            short_read: false,
            append_fail: false,
            syncs: 0,
            checkpoints: 0,
        }
    }

    /// Flushes every parked write into the backend, in order, and
    /// syncs it. A parked checkpoint lands at the WAL position of the
    /// records flushed before it, exactly where it would have landed
    /// had the device been honest.
    fn flush_parked(&mut self) {
        for entry in self.parked.drain(..) {
            match entry {
                Parked::Rec(bytes) => self.inner.wal_append(bytes.into_vec()),
                Parked::Ckpt(payload) => self.inner.checkpoint(payload.into_vec()),
            }
        }
        self.inner.sync();
    }
}

impl StableStore for FaultyStore {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        // A failing append is acknowledged and dropped; wrapped first,
        // the buffer is zeroized on the way out.
        let bytes = SecretBytes::new(bytes);
        if !self.append_fail {
            self.parked.push(Parked::Rec(bytes));
        }
    }

    fn sync(&mut self) {
        self.syncs += 1;
        if self.armed == ArmedFault::None {
            self.flush_parked();
        }
    }

    fn checkpoint(&mut self, payload: Vec<u8>) {
        self.checkpoints += 1;
        if self.armed != ArmedFault::None {
            // Park at the current cache position. Only the most recent
            // parked checkpoint survives to a heal: a newer snapshot
            // written into the same lying cache supersedes the older
            // one, so the cache never holds more than one image.
            self.parked.retain(|p| matches!(p, Parked::Rec(_)));
            self.parked.push(Parked::Ckpt(SecretBytes::new(payload)));
            return;
        }
        self.sync();
        self.inner.checkpoint(payload);
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        self.inner.append_torn(bytes);
    }

    fn load(&self) -> Recovered {
        let mut r = self.inner.load();
        if self.short_read {
            if let Some(last) = r.wal.last_mut() {
                // The tail read comes back short: half the record.
                last.truncate(last.len() / 2);
            }
        }
        r
    }

    fn inject(&mut self, fault: StoreFault) -> bool {
        match fault {
            StoreFault::LostTail => self.armed = ArmedFault::LostTail,
            StoreFault::TornWrite => self.armed = ArmedFault::TornWrite,
            StoreFault::ShortRead => self.short_read = true,
            StoreFault::AppendFail => self.append_fail = true,
            StoreFault::CorruptCheckpoint | StoreFault::CorruptSlot(_) => {
                return self.inner.inject(fault)
            }
        }
        true
    }

    fn heal(&mut self) {
        self.armed = ArmedFault::None;
        self.short_read = false;
        self.append_fail = false;
        self.sync();
        self.inner.heal();
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        let armed = std::mem::replace(&mut self.armed, ArmedFault::None);
        let had_tail = !self.parked.is_empty();
        let first_rec = self.parked.drain(..).find_map(|p| match p {
            Parked::Rec(b) => Some(b),
            Parked::Ckpt(_) => None,
        });
        if let (ArmedFault::TornWrite, Some(first)) = (armed, first_rec) {
            self.inner.append_torn(first.into_vec());
        }
        let inner_stat = self.inner.on_crash();
        match armed {
            ArmedFault::TornWrite if had_tail => Some("storage-torn-write"),
            ArmedFault::LostTail if had_tail => Some("storage-lost-tail"),
            _ => inner_stat,
        }
    }

    fn has_durable_state(&self) -> bool {
        self.inner.has_durable_state()
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(s: &mut dyn StableStore) -> Option<&'static str> {
        s.on_crash()
    }

    #[test]
    fn commit_then_load_replays_everything() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.wal_commit(vec![2]);
        crash(&mut s);
        let r = s.load();
        assert!(r.checkpoint.is_none());
        assert_eq!(r.wal, vec![vec![1], vec![2]]);
    }

    #[test]
    fn unsynced_tail_is_lost_even_without_faults() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.wal_append(vec![2]); // never synced
        crash(&mut s);
        assert_eq!(s.load().wal, vec![vec![1]]);
    }

    #[test]
    fn checkpoint_covers_wal_and_truncates() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.checkpoint(vec![0xAA]);
        s.wal_commit(vec![2]);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert_eq!(r.wal, vec![vec![2]]);
        // Second checkpoint: the prefix below the older slot is gone,
        // but the newer slot still replays from its own position.
        s.checkpoint(vec![0xBB]);
        s.wal_commit(vec![3]);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((2, vec![0xBB])));
        assert_eq!(r.wal, vec![vec![3]]);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_slot() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.checkpoint(vec![0xAA]); // covers record 1
        s.wal_commit(vec![2]);
        s.checkpoint(vec![0xBB]); // covers records 1-2
        s.wal_commit(vec![3]);
        s.inject(StoreFault::CorruptCheckpoint);
        let r = s.load();
        // The older slot wins; its longer WAL suffix is still durable
        // because truncation only drops below the *older* position.
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert_eq!(r.wal, vec![vec![2], vec![3]]);
        // Both slots corrupt: full WAL replay from the base.
        s.inject(StoreFault::CorruptCheckpoint);
        let r = s.load();
        assert!(r.checkpoint.is_none());
        assert_eq!(r.wal, vec![vec![2], vec![3]]);
    }

    #[test]
    fn corruption_never_forges_a_newer_slot() {
        let mut s = SimStore::new();
        s.checkpoint(vec![0xAA]);
        s.checkpoint(vec![0xBB]);
        s.inject(StoreFault::CorruptCheckpoint);
        // seq 2 is invalid; seq 1 must be chosen even though slot 0
        // holds it (order of slots is irrelevant).
        assert_eq!(s.load().checkpoint, Some((1, vec![0xAA])));
    }

    #[test]
    fn secret_bytes_zeroize_on_drop() {
        // Indirect check: dropping the buffer leaves no panic and the
        // wrapper reports its contents faithfully before the drop.
        let sb = SecretBytes::new(vec![7; 32]);
        assert_eq!(sb.as_slice(), &[7; 32]);
        assert_eq!(sb.len(), 32);
        assert!(!sb.is_empty());
        drop(sb);
    }

    #[test]
    fn backends_leave_device_dishonesty_to_the_engine() {
        let mut s = SimStore::new();
        for fault in [
            StoreFault::LostTail,
            StoreFault::TornWrite,
            StoreFault::ShortRead,
            StoreFault::AppendFail,
        ] {
            assert!(!s.inject(fault));
            assert!(faulty().inject(fault));
        }
        s.wal_commit(vec![1]);
        crash(&mut s);
        assert_eq!(
            s.load().wal,
            vec![vec![1]],
            "the refused verbs armed nothing"
        );
    }

    // ---- FaultyStore: the one definition of what a lying device
    // leaves behind, here over the in-memory backend. ----

    fn faulty() -> FaultyStore {
        FaultyStore::new(Box::new(SimStore::new()))
    }

    #[test]
    fn faulty_honest_path_delegates() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]);
        f.wal_commit(vec![2]);
        let r = f.load();
        assert_eq!(r.checkpoint.map(|(_, p)| p), Some(vec![0xAA]));
        assert_eq!(r.wal, vec![vec![2]]);
        assert!(f.has_durable_state());
    }

    #[test]
    fn faulty_lost_tail_matches_sim_semantics() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![2]);
        f.wal_commit(vec![3]);
        assert_eq!(f.on_crash(), Some("storage-lost-tail"));
        assert_eq!(f.load().wal, vec![vec![1]]);
        f.wal_commit(vec![4]);
        f.on_crash();
        assert_eq!(f.load().wal, vec![vec![1], vec![4]]);
    }

    #[test]
    fn faulty_torn_write_tears_first_parked_record() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::TornWrite);
        f.wal_commit(vec![2]);
        f.wal_commit(vec![3]);
        assert_eq!(f.on_crash(), Some("storage-torn-write"));
        // The torn record occupies a log position: a later commit sits
        // behind it and the replayable suffix still ends at record 1.
        f.wal_commit(vec![4]);
        assert_eq!(f.load().wal, vec![vec![1]]);
    }

    #[test]
    fn lying_sync_swallows_checkpoints_too() {
        let mut f = faulty();
        f.checkpoint(vec![0xAA]);
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xBB]); // parked in the cache
        assert_eq!(f.on_crash(), Some("storage-lost-tail"));
        // The crash discarded the parked slot write with the tail:
        // recovery falls back to the older slot, and the sequence
        // number the lost checkpoint would have taken was never used.
        let r = f.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert!(r.wal.is_empty());
        f.checkpoint(vec![0xCC]);
        assert_eq!(f.load().checkpoint, Some((2, vec![0xCC])));
    }

    #[test]
    fn heal_installs_the_parked_tail() {
        let mut f = faulty();
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]);
        f.heal();
        f.on_crash();
        let r = f.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert!(r.wal.is_empty(), "checkpoint covers the healed record");
    }

    #[test]
    fn faulty_heal_installs_parked_checkpoint_at_original_position() {
        let mut f = faulty();
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]); // parks after record 1
        f.wal_commit(vec![2]); // parks after the checkpoint
        f.heal();
        let r = f.load();
        assert_eq!(r.checkpoint.map(|(_, p)| p), Some(vec![0xAA]));
        assert_eq!(r.wal, vec![vec![2]], "post-checkpoint record replays");
    }

    #[test]
    fn faulty_short_read_truncates_the_tail_record() {
        let mut f = faulty();
        f.wal_commit(vec![1, 2, 3, 4]);
        f.wal_commit(vec![5, 6, 7, 8]);
        f.inject(StoreFault::ShortRead);
        let r = f.load();
        assert_eq!(r.wal, vec![vec![1, 2, 3, 4], vec![5, 6]]);
        f.heal();
        assert_eq!(f.load().wal, vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
    }

    #[test]
    fn faulty_append_fail_drops_writes_until_heal() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::AppendFail);
        f.wal_commit(vec![2]);
        assert_eq!(f.load().wal, vec![vec![1]]);
        f.heal();
        f.wal_commit(vec![3]);
        assert_eq!(f.load().wal, vec![vec![1], vec![3]]);
    }

    #[test]
    fn faulty_corruption_verbs_reach_the_inner_store() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]);
        f.wal_commit(vec![2]);
        f.checkpoint(vec![0xBB]);
        assert!(f.inject(StoreFault::CorruptCheckpoint));
        let r = f.load();
        assert_eq!(r.checkpoint.map(|(_, p)| p), Some(vec![0xAA]));
        assert!(f.inject(StoreFault::CorruptSlot(0)));
        assert!(f.inject(StoreFault::CorruptSlot(1)));
        assert!(f.load().checkpoint.is_none());
    }

    #[test]
    fn faulty_counters_mirror_sim_counting() {
        // The engine's counters are the ones the simulator reports:
        // one per call the protocol made, whatever the device did
        // with it — the count a bare honest backend would show.
        let mut f = faulty();
        f.wal_commit(vec![1]); // sync 1
        f.checkpoint(vec![2]); // honest: flushes first, sync 2
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![3]); // lied to, still counted: sync 3
        f.checkpoint(vec![4]); // armed: parks, no sync bump
        f.heal(); // the honest flush: sync 4
        assert_eq!(f.sync_count(), 4);
        assert_eq!(f.checkpoint_count(), 2);
    }
}
