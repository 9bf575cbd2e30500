//! [`FileStore`]: real file-backed stable storage.
//!
//! The on-disk twin of [`SimStore`]: the same honest WAL +
//! ping-pong-checkpoint backend (see [`storage`](crate::storage)),
//! persisted to an actual directory so recovery is exercised against
//! bytes that went through the filesystem. One directory per node:
//!
//! ```text
//! <dir>/wal.log      append-only record log
//! <dir>/ckpt0.slot   ping-pong checkpoint slot 0
//! <dir>/ckpt1.slot   ping-pong checkpoint slot 1
//! ```
//!
//! On-disk byte layout (all integers little-endian):
//!
//! ```text
//! wal.log    := [magic "MKWL"][version u32][base u64] frame*
//! frame      := [len u32][crc32 u32][payload len bytes]
//!
//! ckptN.slot := [magic "MKCK"][version u32][seq u64][wal_pos u64]
//!               [len u32][crc32 u32][payload len bytes]
//! ```
//!
//! `base` is the absolute WAL position of the first frame (the prefix
//! below it has been truncated by checkpointing). The CRC is IEEE
//! CRC-32 over the payload only; slot metadata (`seq`, `wal_pos`)
//! deliberately sits *outside* the checksummed payload so payload
//! bit-rot can invalidate a slot but never forge a newer one — the
//! same separation the sim device models with its validity flag.
//!
//! Sync barriers model `O_SYNC`: appends stage in an in-memory device
//! cache and only reach the file (followed by `sync_data`) on
//! [`StableStore::sync`]. A crash therefore discards exactly the
//! unsynced tail, like the sim device. Like it, `FileStore` performs
//! every write it acknowledges: device dishonesty is the
//! [`FaultyStore`](crate::FaultyStore) engine's, which the simulator
//! puts in front of every backend. What the backend does itself is
//! on-disk checkpoint corruption ([`StoreFault::CorruptCheckpoint`] /
//! [`StoreFault::CorruptSlot`]), and it tolerates truncated or garbage
//! files left by a real crash: `open` discards a partial trailing
//! frame, and an unparseable slot file reads as no checkpoint.
//!
//! I/O errors never panic: operations degrade (the write is dropped)
//! and the error is counted in [`FileStore::io_error_count`] so
//! harnesses can assert a clean run.

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

use crate::storage::{Recovered, SecretBytes, StableStore, StoreFault};
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const WAL_MAGIC: [u8; 4] = *b"MKWL";
const CKPT_MAGIC: [u8; 4] = *b"MKCK";
const VERSION: u32 = 1;
/// magic + version + base.
const WAL_HEADER_LEN: usize = 16;
/// magic + version + seq + wal_pos + len + crc.
const CKPT_HEADER_LEN: usize = 32;
/// Offset of the payload CRC within a slot file.
const CKPT_CRC_OFFSET: usize = 28;
/// len + crc preceding every WAL frame payload.
const FRAME_HEADER_LEN: usize = 8;

/// IEEE CRC-32 lookup table (polynomial 0xEDB88320, reflected).
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
        reason = "const-evaluated: i < 256 by the loop bound"
    )]
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 (the zlib/PNG polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
        reason = "deliberate low-byte extraction; a u8 index is < 256"
    )]
    for &b in bytes {
        c = CRC_TABLE[usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

/// Writes `header`, then `payload`, to `f` and syncs it. This is the
/// one place a payload reaches the disk, and it arrives as
/// [`SecretBytes`], so the copy zeroizes once written. Headers are
/// framing: consts and `to_le_bytes` of lengths, positions and CRCs.
fn write_synced(mut f: fs::File, header: &[&[u8]], payload: &SecretBytes) -> io::Result<()> {
    for part in header {
        f.write_all(part)?;
    }
    f.write_all(payload.as_slice())?;
    f.sync_data()
}

/// One WAL frame read back from disk. `valid` is the CRC verdict; an
/// invalid (torn) frame still occupies its WAL position.
struct RawFrame {
    payload: SecretBytes,
    valid: bool,
}

/// Splits the region past the WAL header into frames. Returns the
/// frames and the number of bytes consumed; a trailing partial frame
/// (no complete header, or payload shorter than its length field) is
/// not consumed — `open` truncates it away.
fn scan_frames(rest: &[u8]) -> (Vec<RawFrame>, usize) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while let Some(header) = rest.get(at..at + FRAME_HEADER_LEN) {
        let Some(len) = read_u32(header, 0) else {
            break;
        };
        let Some(crc) = read_u32(header, 4) else {
            break;
        };
        let Some(end) = (at + FRAME_HEADER_LEN).checked_add(len as usize) else {
            break;
        };
        let Some(payload) = rest.get(at + FRAME_HEADER_LEN..end) else {
            break;
        };
        frames.push(RawFrame {
            valid: crc32(payload) == crc,
            payload: SecretBytes::new(payload.to_vec()),
        });
        at = end;
    }
    (frames, at)
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let raw: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(raw))
}

/// A checkpoint slot file parsed from disk.
struct SlotOnDisk {
    seq: u64,
    wal_pos: u64,
    payload: SecretBytes,
    /// CRC verdict over the payload.
    valid: bool,
}

/// Parses a slot file's bytes; `None` when the header is unreadable
/// (missing file, bad magic, torn header) — such a slot neither
/// recovers nor claims a ping-pong position.
fn parse_slot(bytes: &[u8]) -> Option<SlotOnDisk> {
    if bytes.get(0..4)? != CKPT_MAGIC {
        return None;
    }
    if read_u32(bytes, 4)? != VERSION {
        return None;
    }
    let seq = read_u64(bytes, 8)?;
    let wal_pos = read_u64(bytes, 16)?;
    let len = read_u32(bytes, 24)? as usize;
    let crc = read_u32(bytes, CKPT_CRC_OFFSET)?;
    let payload = bytes.get(CKPT_HEADER_LEN..CKPT_HEADER_LEN.checked_add(len)?)?;
    Some(SlotOnDisk {
        seq,
        wal_pos,
        valid: crc32(payload) == crc,
        payload: SecretBytes::new(payload.to_vec()),
    })
}

/// File-backed [`StableStore`]. See the [module docs](self).
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    /// Appended but not yet written+synced (device cache).
    cached: Vec<SecretBytes>,
    /// Absolute WAL position of the first frame in `wal.log`.
    wal_base: u64,
    /// Frames physically in `wal.log` (valid or torn).
    wal_count: u64,
    next_ckpt_seq: u64,
    syncs: u64,
    checkpoints: u64,
    io_errors: u64,
}

impl FileStore {
    /// Opens (or initializes) the store rooted at `dir`, recovering
    /// its framing: a partial trailing WAL frame from a real crash is
    /// truncated away, unparseable slot files are left for the
    /// ping-pong to overwrite.
    pub fn open(dir: &Path) -> io::Result<FileStore> {
        fs::create_dir_all(dir)?;
        let mut store = FileStore {
            dir: dir.to_path_buf(),
            cached: Vec::new(),
            wal_base: 0,
            wal_count: 0,
            next_ckpt_seq: 1,
            syncs: 0,
            checkpoints: 0,
            io_errors: 0,
        };
        match fs::read(store.wal_path()) {
            Ok(bytes) => {
                let header_ok = bytes.get(0..4) == Some(&WAL_MAGIC)
                    && read_u32(&bytes, 4) == Some(VERSION);
                if header_ok {
                    store.wal_base = read_u64(&bytes, 8).unwrap_or(0);
                    let rest = bytes.get(WAL_HEADER_LEN..).unwrap_or(&[]);
                    let (frames, consumed) = scan_frames(rest);
                    store.wal_count = frames.len() as u64;
                    if consumed < rest.len() {
                        // A real crash can leave a half-written frame;
                        // drop it so later appends keep valid framing.
                        let keep = WAL_HEADER_LEN as u64 + consumed as u64;
                        let f = OpenOptions::new().write(true).open(store.wal_path())?;
                        f.set_len(keep)?;
                        f.sync_data()?;
                    }
                } else {
                    // Unreadable header: reinitialize (factory-fresh).
                    store.write_wal_header(0)?;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => store.write_wal_header(0)?,
            Err(e) => return Err(e),
        }
        for i in 0..2u8 {
            if let Ok(bytes) = fs::read(store.slot_path(i)) {
                if let Some(slot) = parse_slot(&bytes) {
                    store.next_ckpt_seq = store.next_ckpt_seq.max(slot.seq + 1);
                }
            }
        }
        Ok(store)
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn slot_path(&self, i: u8) -> PathBuf {
        self.dir.join(format!("ckpt{i}.slot"))
    }

    /// Total I/O errors swallowed so far (each one dropped a write).
    pub fn io_error_count(&self) -> u64 {
        self.io_errors
    }

    fn write_wal_header(&self, base: u64) -> io::Result<()> {
        let mut f = fs::File::create(self.wal_path())?;
        f.write_all(&WAL_MAGIC)?;
        f.write_all(&VERSION.to_le_bytes())?;
        f.write_all(&base.to_le_bytes())?;
        f.sync_data()?;
        Ok(())
    }

    /// Absolute position one past the last record (durable or cached).
    fn wal_end(&self) -> u64 {
        self.wal_base + self.wal_count + self.cached.len() as u64
    }

    fn record_io<T>(&mut self, res: io::Result<T>) -> Option<T> {
        match res {
            Ok(v) => Some(v),
            Err(_) => {
                self.io_errors += 1;
                None
            }
        }
    }

    /// Flushes the device cache to `wal.log`.
    fn flush_cached(&mut self) {
        while !self.cached.is_empty() {
            let rec = self.cached.remove(0);
            let crc = crc32(rec.as_slice());
            if self
                .record_io(self.append_frame_buf(&rec, crc))
                .is_some()
            {
                self.wal_count += 1;
            }
        }
    }

    /// Appends one frame with the given CRC (callers pass a wrong CRC
    /// to write a deliberately torn frame) and syncs the file.
    fn append_frame_buf(&self, payload: &SecretBytes, crc: u32) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
        let f = OpenOptions::new().append(true).open(self.wal_path())?;
        write_synced(f, &[&len.to_le_bytes(), &crc.to_le_bytes()], payload)
    }

    /// Reads both slot files as parsed on-disk slots.
    fn read_slots(&self) -> [Option<SlotOnDisk>; 2] {
        let read = |i: u8| -> Option<SlotOnDisk> { parse_slot(&fs::read(self.slot_path(i)).ok()?) };
        [read(0), read(1)]
    }

    /// Rewrites `wal.log` keeping only frames at absolute position
    /// `keep_from` and above (raw bytes preserved, torn frames
    /// included, so positions stay consistent).
    fn truncate_wal_below(&mut self, keep_from: u64) -> io::Result<()> {
        if keep_from <= self.wal_base {
            return Ok(());
        }
        let bytes = fs::read(self.wal_path())?;
        let rest = bytes.get(WAL_HEADER_LEN..).unwrap_or(&[]);
        let drop_n = usize::try_from(keep_from - self.wal_base)
            .unwrap_or(usize::MAX)
            .min(usize::try_from(self.wal_count).unwrap_or(usize::MAX));
        // Find the byte offset of the first retained frame.
        let mut at = 0usize;
        for _ in 0..drop_n {
            let Some(len) = read_u32(rest, at) else { break };
            let Some(next) = at
                .checked_add(FRAME_HEADER_LEN)
                .and_then(|x| x.checked_add(len as usize))
            else {
                break;
            };
            at = next;
        }
        let new_base = self.wal_base + drop_n as u64;
        // The retained frames hold key-bearing records: keep the copy
        // wrapped so it zeroizes once rewritten.
        let tail = SecretBytes::new(rest.get(at..).unwrap_or(&[]).to_vec());
        let tmp = self.dir.join("wal.tmp");
        let header: [&[u8]; 3] = [&WAL_MAGIC, &VERSION.to_le_bytes(), &new_base.to_le_bytes()];
        write_synced(fs::File::create(&tmp)?, &header, &tail)?;
        fs::rename(&tmp, self.wal_path())?;
        self.wal_base = new_base;
        self.wal_count -= drop_n as u64;
        Ok(())
    }

    /// Writes a checkpoint slot file over the older ping-pong slot and
    /// truncates the WAL prefix neither slot needs any more.
    fn install_slot(&mut self, seq: u64, wal_pos: u64, payload: &SecretBytes) -> io::Result<()> {
        let [slot0, slot1] = self.read_slots();
        let target: u8 = match (&slot0, &slot1) {
            (None, _) => 0,
            (_, None) => 1,
            (Some(a), Some(b)) => u8::from(a.seq > b.seq),
        };
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "checkpoint too large"))?;
        let header: [&[u8]; 6] = [
            &CKPT_MAGIC,
            &VERSION.to_le_bytes(),
            &seq.to_le_bytes(),
            &wal_pos.to_le_bytes(),
            &len.to_le_bytes(),
            &crc32(payload.as_slice()).to_le_bytes(),
        ];
        write_synced(fs::File::create(self.slot_path(target))?, &header, payload)?;
        let keep_from = self
            .read_slots()
            .iter()
            .flatten()
            .map(|s| s.wal_pos)
            .min()
            .unwrap_or(self.wal_base);
        self.truncate_wal_below(keep_from)
    }

    /// Flips one payload byte (or, for an empty payload, a CRC byte)
    /// of slot `i` on disk — bit-rot the next read will detect.
    /// Corrupting an already-invalid (or absent, or garbage) slot is a
    /// no-op: the XOR is an involution, so flipping the same byte twice
    /// would silently *restore* the checkpoint. (Found by the
    /// backend-equivalence proptest: `ckpt-corrupt` followed by
    /// `ckpt-slot-corrupt` on the same slot resurrected the payload
    /// that `SimStore` kept invalid.)
    fn corrupt_slot_file(&mut self, i: u8) {
        let path = self.slot_path(i);
        let Ok(mut bytes) = fs::read(&path) else {
            return;
        };
        match parse_slot(&bytes) {
            Some(slot) if slot.valid => {}
            _ => return,
        }
        let at = if bytes.len() > CKPT_HEADER_LEN {
            CKPT_HEADER_LEN
        } else {
            CKPT_CRC_OFFSET
        };
        if let Some(b) = bytes.get_mut(at) {
            *b ^= 0xFF;
        }
        // The slot bytes embed the checkpoint payload: rewrap before
        // the rewrite so this copy zeroizes too.
        let bytes = SecretBytes::new(bytes);
        let write = fs::File::create(&path).and_then(|f| write_synced(f, &[], &bytes));
        self.record_io(write);
    }
}

impl StableStore for FileStore {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        self.cached.push(SecretBytes::new(bytes));
    }

    fn sync(&mut self) {
        self.syncs += 1;
        self.flush_cached();
    }

    fn checkpoint(&mut self, payload: Vec<u8>) {
        self.checkpoints += 1;
        let payload = SecretBytes::new(payload);
        let seq = self.next_ckpt_seq;
        self.next_ckpt_seq += 1;
        let wal_pos = self.wal_end();
        self.sync();
        let res = self.install_slot(seq, wal_pos, &payload);
        self.record_io(res);
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        let bytes = SecretBytes::new(bytes);
        // A CRC that cannot match the payload: the frame occupies its
        // WAL position but reads back invalid.
        let crc = !crc32(bytes.as_slice());
        if self
            .record_io(self.append_frame_buf(&bytes, crc))
            .is_some()
        {
            self.wal_count += 1;
        }
    }

    fn load(&self) -> Recovered {
        let slots = self.read_slots();
        let best = slots
            .iter()
            .flatten()
            .filter(|s| s.valid)
            .max_by_key(|s| s.seq);
        let Ok(bytes) = fs::read(self.wal_path()) else {
            return Recovered::default();
        };
        let base = read_u64(&bytes, 8).unwrap_or(0);
        let rest = bytes.get(WAL_HEADER_LEN..).unwrap_or(&[]);
        let (frames, _) = scan_frames(rest);
        let from = best.map(|s| s.wal_pos).unwrap_or(0).max(base);
        let mut wal = Vec::new();
        let skip = usize::try_from(from - base).unwrap_or(usize::MAX);
        for frame in frames.iter().skip(skip) {
            if !frame.valid {
                break;
            }
            wal.push(frame.payload.as_slice().to_vec());
        }
        Recovered {
            checkpoint: best.map(|s| (s.seq, s.payload.as_slice().to_vec())),
            wal,
        }
    }

    fn inject(&mut self, fault: StoreFault) -> bool {
        match fault {
            StoreFault::CorruptCheckpoint => {
                let newest = self
                    .read_slots()
                    .iter()
                    .zip(0u8..)
                    .filter_map(|(s, i)| s.as_ref().filter(|s| s.valid).map(|s| (s.seq, i)))
                    .max();
                if let Some((_, i)) = newest {
                    self.corrupt_slot_file(i);
                }
                true
            }
            StoreFault::CorruptSlot(i) => {
                if i < 2 {
                    self.corrupt_slot_file(i);
                }
                true
            }
            // Device-dishonesty faults are the FaultyStore engine's:
            // this backend performs every write it acknowledges.
            StoreFault::LostTail
            | StoreFault::TornWrite
            | StoreFault::ShortRead
            | StoreFault::AppendFail => false,
        }
    }

    fn heal(&mut self) {
        self.sync();
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        // The device cache dies with the process; files survive.
        self.cached.clear();
        None
    }

    fn has_durable_state(&self) -> bool {
        // A corrupted slot still counts: bytes were durably written
        // even if recovery can no longer parse them, matching
        // `SimStore`, whose invalidated slots stay occupied. (Found by
        // the backend-equivalence proptest: `checkpoint` + corrupt
        // both slots left the two devices disagreeing here.)
        self.wal_count > 0
            || (0..2u8).any(|i| fs::read(self.slot_path(i)).is_ok_and(|b| !b.is_empty()))
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory under the system temp dir, unique per
/// process and call — for tests and harnesses that exercise
/// [`FileStore`] and want per-run isolation without an external
/// tempdir crate. The caller (or the OS) owns cleanup.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mykil-{}-{}-{}",
        tag,
        std::process::id(),
        n
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> (FileStore, PathBuf) {
        let dir = scratch_dir(tag);
        let s = match FileStore::open(&dir) {
            Ok(s) => s,
            Err(e) => panic!("open {}: {e}", dir.display()),
        };
        (s, dir)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn commit_survives_reopen() {
        let (mut s, dir) = store("fs-reopen");
        s.wal_commit(vec![1]);
        s.wal_commit(vec![2, 3]);
        s.checkpoint(vec![0xAA]);
        s.wal_commit(vec![4]);
        drop(s);
        let s2 = match FileStore::open(&dir) {
            Ok(s) => s,
            Err(e) => panic!("reopen: {e}"),
        };
        let r = s2.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert_eq!(r.wal, vec![vec![4]]);
        assert_eq!(s2.next_ckpt_seq, 2, "seq continues across reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_tail_dies_with_the_process() {
        let (mut s, dir) = store("fs-tail");
        s.wal_commit(vec![1]);
        s.wal_append(vec![2]); // cached, never synced
        s.on_crash();
        assert_eq!(s.load().wal, vec![vec![1]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ping_pong_and_prefix_truncation() {
        let (mut s, dir) = store("fs-pingpong");
        s.wal_commit(vec![1]);
        s.checkpoint(vec![0xAA]);
        s.wal_commit(vec![2]);
        s.checkpoint(vec![0xBB]);
        s.wal_commit(vec![3]);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((2, vec![0xBB])));
        assert_eq!(r.wal, vec![vec![3]]);
        // Corrupting the newest slot falls back to the older one with
        // its longer (still-durable) WAL suffix.
        s.inject(StoreFault::CorruptCheckpoint);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert_eq!(r.wal, vec![vec![2], vec![3]]);
        // Both slots gone: full replay of the retained log.
        s.inject(StoreFault::CorruptCheckpoint);
        let r = s.load();
        assert!(r.checkpoint.is_none());
        assert_eq!(r.wal, vec![vec![2], vec![3]]);
        assert_eq!(s.io_error_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_frame_blocks_the_suffix_but_keeps_position() {
        let (mut s, dir) = store("fs-torn");
        s.wal_commit(vec![1]);
        s.append_torn(vec![9, 9]);
        s.wal_commit(vec![3]);
        assert_eq!(s.load().wal, vec![vec![1]]);
        // A checkpoint past the torn frame makes the tail reachable.
        s.checkpoint(vec![0xCC]);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xCC])));
        assert!(r.wal.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_trailing_frame_is_truncated_on_open() {
        let (mut s, dir) = store("fs-partial");
        s.wal_commit(vec![1]);
        s.wal_commit(vec![2]);
        drop(s);
        // A crash mid-append leaves half a frame: lop 3 bytes off.
        let path = dir.join("wal.log");
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => panic!("read wal: {e}"),
        };
        bytes.extend_from_slice(&[7, 0, 0]); // truncated length field
        if let Err(e) = fs::write(&path, &bytes) {
            panic!("write wal: {e}");
        }
        let mut s2 = match FileStore::open(&dir) {
            Ok(s) => s,
            Err(e) => panic!("reopen: {e}"),
        };
        assert_eq!(s2.load().wal, vec![vec![1], vec![2]]);
        // Framing is intact: appends after recovery read back fine.
        s2.wal_commit(vec![3]);
        assert_eq!(s2.load().wal, vec![vec![1], vec![2], vec![3]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_slot_file_reads_as_no_checkpoint() {
        let (mut s, dir) = store("fs-garbage-slot");
        s.wal_commit(vec![1]);
        s.checkpoint(vec![0xAA]);
        drop(s);
        // A crash mid-checkpoint leaves the *other* slot file as
        // garbage; recovery must ignore it and use the good slot.
        if let Err(e) = fs::write(dir.join("ckpt1.slot"), b"\xDE\xAD\xBE\xEF junk") {
            panic!("write slot: {e}");
        }
        let s2 = match FileStore::open(&dir) {
            Ok(s) => s,
            Err(e) => panic!("reopen: {e}"),
        };
        let r = s2.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert!(r.wal.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_never_forges_a_newer_slot() {
        let (mut s, dir) = store("fs-noforge");
        s.checkpoint(vec![0xAA]);
        s.checkpoint(vec![0xBB]);
        s.inject(StoreFault::CorruptCheckpoint);
        assert_eq!(s.load().checkpoint, Some((1, vec![0xAA])));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression (backend-equivalence proptest): corrupting the same
    /// slot twice must not XOR the flipped byte back into a valid
    /// checkpoint — corruption is sticky, as on the sim device.
    #[test]
    fn double_corruption_does_not_resurrect_the_checkpoint() {
        let (mut s, dir) = store("fs-double-corrupt");
        s.checkpoint(vec![1, 1, 1]);
        s.inject(StoreFault::CorruptCheckpoint);
        s.inject(StoreFault::CorruptSlot(0));
        s.inject(StoreFault::CorruptSlot(0));
        assert_eq!(s.load().checkpoint, None, "corruption came back off");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression (backend-equivalence proptest): a checkpoint whose
    /// every slot is corrupt still *occupies* storage — the device
    /// reports durable state exists, matching the sim device, even
    /// though nothing is recoverable.
    #[test]
    fn corrupt_slots_still_count_as_durable_state() {
        let (mut s, dir) = store("fs-corrupt-durable");
        assert!(!s.has_durable_state());
        s.checkpoint(vec![7; 4]);
        s.inject(StoreFault::CorruptCheckpoint);
        assert_eq!(s.load().checkpoint, None);
        assert!(s.has_durable_state(), "corrupted slot vanished");
        let _ = fs::remove_dir_all(&dir);
    }
}
