//! The five fuzz targets and their structure-aware seed corpora.
//!
//! Every target is a total function of its input bytes: the contract
//! under test is "no panic, no hang, no allocation proportional to a
//! claimed (rather than actual) length" for every decoder that touches
//! network- or disk-sourced bytes. Targets may additionally assert
//! internal consistency (e.g. the fault-plan serialize→parse round
//! trip) — those asserts are *supposed* to fire when the invariant
//! breaks, which is exactly what the harness reports.

// It frames arbitrary mutated bytes for the decoders, so a narrowing cast
// or a panicking slice access outside tests is a finding.
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
        clippy::disallowed_methods
    )
)]

use mykil::directory::AcDirectory;
use mykil::durable::{
    replay_ac, replay_rs, AcCheckpoint, AcWalRecord, RsCheckpoint, RsWalRecord, Seed,
};
use mykil::msg::{Msg, SyncBody};
use mykil::welcome::Welcome;
use mykil::wire::{Reader, Writer};
use mykil_crypto::drbg::Drbg;
use mykil_crypto::envelope;
use mykil_crypto::keys::SymmetricKey;
use mykil_net::FaultPlan;

/// One fuzz target: a name (doubles as the corpus directory name under
/// `tests/corpus/`), the bytes-in entry point, and a generator for its
/// structure-aware seed corpus. Seed names are stable so `gen-corpus`
/// is idempotent and regression fixtures keep their documented paths.
pub struct Target {
    pub name: &'static str,
    pub run: fn(&[u8]),
    pub seeds: fn() -> Vec<(&'static str, Vec<u8>)>,
}

/// All registered targets, in the order CI runs them.
pub fn all() -> Vec<Target> {
    vec![
        Target {
            name: "wire-reader",
            run: run_wire_reader,
            seeds: seeds_wire_reader,
        },
        Target {
            name: "envelope",
            run: run_envelope,
            seeds: seeds_envelope,
        },
        Target {
            name: "durable-replay",
            run: run_durable_replay,
            seeds: seeds_durable_replay,
        },
        Target {
            name: "fault-plan",
            run: run_fault_plan,
            seeds: seeds_fault_plan,
        },
        Target {
            name: "tree-snapshot",
            run: run_tree_snapshot,
            seeds: seeds_tree_snapshot,
        },
    ]
}

/// Looks a target up by name.
pub fn find(name: &str) -> Option<Target> {
    all().into_iter().find(|t| t.name == name)
}

// ---------------------------------------------------------------------
// wire-reader: op-interpreted `wire::Reader` + compound decoders
// ---------------------------------------------------------------------

/// Input layout: `[n_ops][op bytes...][payload]`. The op bytes drive a
/// `Reader` over the payload through every accessor (including
/// deliberately oversized `raw` requests, which must error rather than
/// panic); the *whole* input is then fed to the compound decoders that
/// stack on `Reader`: `Msg::from_bytes`, `Welcome::from_bytes`, and
/// `SyncBody::from_bytes` with the record decoder a backup runs over
/// each record it carries.
fn run_wire_reader(data: &[u8]) {
    if let Some((&n_ops, rest)) = data.split_first() {
        let n = (n_ops as usize).min(24).min(rest.len());
        let Some((ops, payload)) = rest.split_at_checked(n) else {
            return;
        };
        let mut r = Reader::new(payload);
        for &op in ops {
            match op % 8 {
                0 => {
                    let _ = r.u8();
                }
                1 => {
                    let _ = r.u32();
                }
                2 => {
                    let _ = r.u64();
                }
                3 => {
                    let _ = r.bytes();
                }
                4 => {
                    let _ = r.array::<16>();
                }
                5 => {
                    // Often more than remains: the error path.
                    let _ = r.raw(op as usize * 37);
                }
                6 => {
                    let n = r.remaining() / 2;
                    let _ = r.raw(n);
                }
                _ => {
                    let _ = r.u8().and_then(|_| r.u32());
                }
            }
        }
        let _ = r.finish();
    }
    let _ = Msg::from_bytes(data);
    let _ = Welcome::from_bytes(data);
    if let Some(SyncBody::Records { records, .. }) = SyncBody::from_bytes(data) {
        for rec in records {
            let _ = AcWalRecord::from_bytes(rec);
        }
    }
}

fn seeds_wire_reader() -> Vec<(&'static str, Vec<u8>)> {
    // A payload exercising every field kind, prefixed by an op string
    // that decodes it exactly.
    let mut w = Writer::new();
    w.u8(7)
        .u32(0xdead_beef)
        .u64(0x0123_4567_89ab_cdef)
        .bytes(b"hello wire")
        .raw(&[0x5a; 16])
        .bytes(b"");
    let payload = w.into_bytes();
    let mut aligned = vec![6u8, 0, 1, 2, 3, 4, 3];
    aligned.extend_from_slice(&payload);

    // Length-prefix boundary probes for the compound decoders.
    let mut huge_len = vec![0u8];
    huge_len.extend_from_slice(&u32::MAX.to_be_bytes());
    huge_len.extend_from_slice(&[1, 2, 3]);

    // Both `StateSync` bodies: an image, and a batch of records with
    // one of each seeded kind.
    let flush = AcWalRecord::Flush { seed: Seed::from_bytes([0x5e; 32]) }.to_bytes();
    let rotate = AcWalRecord::Rotate { seed: Seed::from_bytes([0x5f; 32]) }.to_bytes();
    let leave = AcWalRecord::Leave { client: 4 }.to_bytes();
    let sync_records = SyncBody::Records { seq: 12, records: vec![&leave, &flush, &rotate] };
    let sync_image = SyncBody::Image { seq: 13, image: &[9; 24] };

    vec![
        ("seed-aligned.bin", aligned),
        ("seed-empty.bin", Vec::new()),
        ("seed-huge-len.bin", huge_len),
        ("seed-ops-only.bin", vec![24, 0, 1, 2, 3, 4, 5, 6, 7]),
        ("seed-sync-records.bin", sync_records.to_bytes()),
        ("seed-sync-image.bin", sync_image.to_bytes()),
    ]
}

// ---------------------------------------------------------------------
// envelope: authenticated decryption of arbitrary bytes
// ---------------------------------------------------------------------

const KEY_LEN: usize = 16; // mykil_crypto::SYMMETRIC_KEY_LEN

/// Input layout: `[key: 16 bytes][envelope...]` (zero key if short).
/// Both `open` and the fixed-plaintext-length `open_fixed` must reject
/// arbitrary envelopes with `CryptoError`, never panic.
fn run_envelope(data: &[u8]) {
    let mut key_bytes = [0u8; KEY_LEN];
    let env = match data.split_at_checked(KEY_LEN) {
        Some((key, env)) => {
            key_bytes = key.try_into().unwrap_or(key_bytes);
            env
        }
        None => data,
    };
    let key = SymmetricKey::from_bytes(key_bytes);
    let _ = envelope::open(&key, env);
    let _ = envelope::open_fixed::<16>(&key, env);
}

fn seeds_envelope() -> Vec<(&'static str, Vec<u8>)> {
    let key_bytes = [0x42u8; KEY_LEN];
    let key = SymmetricKey::from_bytes(key_bytes);
    let mut rng = Drbg::from_seed(11);

    let mut valid = key_bytes.to_vec();
    valid.extend_from_slice(&envelope::seal(&key, b"attack at dawn", &mut rng));

    let mut fixed = key_bytes.to_vec();
    fixed.extend_from_slice(&envelope::seal(&key, &[0xa5; 16], &mut rng));

    let mut wrong_key = vec![0u8; KEY_LEN];
    wrong_key.extend_from_slice(&envelope::seal(&key, b"attack at dawn", &mut rng));

    vec![
        ("seed-valid.bin", valid),
        ("seed-valid-fixed16.bin", fixed),
        ("seed-wrong-key.bin", wrong_key),
        ("seed-truncated.bin", key_bytes.get(..8).unwrap_or(&[]).to_vec()),
    ]
}

// ---------------------------------------------------------------------
// durable-replay: AC/RS WAL + checkpoint recovery folds
// ---------------------------------------------------------------------

/// Input layout: `[flags][frame...]` where a frame is
/// `[len: u16 LE][len bytes]` and a short final frame is discarded.
/// Frame 0 is the checkpoint when `flags & 1`; the rest are WAL
/// records. The frames drive both full replay folds and every
/// individual record/checkpoint decoder.
fn run_durable_replay(data: &[u8]) {
    let Some((&flags, mut rest)) = data.split_first() else {
        return;
    };
    let mut frames: Vec<Vec<u8>> = Vec::new();
    while frames.len() < 64 {
        let Some(&[lo, hi]) = rest.get(..2) else {
            break;
        };
        let len = usize::from(u16::from_le_bytes([lo, hi]));
        let Some(frame) = rest.get(2..2 + len) else {
            break;
        };
        frames.push(frame.to_vec());
        rest = rest.get(2 + len..).unwrap_or(&[]);
    }
    let (ckpt, wal) = if flags & 1 != 0 && !frames.is_empty() {
        let mut it = frames.into_iter();
        (it.next(), it.collect())
    } else {
        (None, frames)
    };
    for f in &wal {
        let _ = AcWalRecord::from_bytes(f);
        let _ = RsWalRecord::from_bytes(f);
    }
    if let Some(c) = &ckpt {
        let _ = AcCheckpoint::from_bytes(c);
    }
    let _ = replay_ac(ckpt.as_deref(), &wal);
    // The RS fold runs over the decoded checkpoint, or over a freshly
    // deployed server's state when there is none to decode.
    let rs_base = ckpt.as_deref().and_then(RsCheckpoint::from_bytes);
    let _ = replay_rs(
        rs_base.unwrap_or(RsCheckpoint {
            next_client: 1,
            next_area: 0,
            directory: AcDirectory::default(),
        }),
        &wal,
    );
}

fn frame_up(flags: u8, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = vec![flags];
    for f in frames {
        let len = u16::try_from(f.len()).unwrap_or(u16::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(f.get(..usize::from(len)).unwrap_or(f));
    }
    out
}

fn seeds_durable_replay() -> Vec<(&'static str, Vec<u8>)> {
    let ac_ckpt = AcCheckpoint {
        primary: true,
        takeover_epoch: 3,
        sync_seq: 7,
        applied_sync_seq: 6,
        snapshot: vec![9; 24],
    };
    let ac_wal = [
        AcWalRecord::Join {
            client: 10,
            node: 2,
            pubkey: vec![7; 8],
            device: Some([1, 2, 3, 4, 5, 6]),
            valid_until_us: 1_000_000,
            seed: Seed::from_bytes([0xa1; 32]),
        },
        AcWalRecord::Leave { client: 10 },
        AcWalRecord::Evict { client: 11 },
        AcWalRecord::Flush { seed: Seed::from_bytes([0xa2; 32]) },
        AcWalRecord::Rotate { seed: Seed::from_bytes([0xa3; 32]) },
        AcWalRecord::Epoch { epoch: 4, step_down: None },
        AcWalRecord::Epoch { epoch: 5, step_down: Some(Seed::from_bytes([0xa4; 32])) },
        AcWalRecord::Enrol { child_area: 2, node: 8, seed: Seed::from_bytes([0xa5; 32]) },
        AcWalRecord::Parent { node: 9, area: 0, group: 1 },
    ];
    let mut ac_frames = vec![ac_ckpt.to_bytes()];
    ac_frames.extend(ac_wal.iter().map(|r| r.to_bytes()));

    let rs_ckpt = RsCheckpoint {
        next_client: 12,
        next_area: 3,
        directory: AcDirectory {
            entries: Vec::new(),
        },
    };
    let rs_wal = [
        RsWalRecord::ClientAssigned { client: 12 },
        RsWalRecord::DirectoryUpsert {
            area: 1,
            node: 6,
            pubkey: vec![3; 8],
        },
    ];
    let mut rs_frames = vec![rs_ckpt.to_bytes()];
    rs_frames.extend(rs_wal.iter().map(|r| r.to_bytes()));

    let wal_only: Vec<Vec<u8>> = ac_wal.iter().map(|r| r.to_bytes()).collect();

    // Seeds that reach the tree: a primary checkpoint taken inside a
    // batch window (client 21 left, its leaf still waits for the
    // flush); the same area as a backup's live replica, with the
    // records its primary ships next — the flush, a rotation, a child
    // enrolment, a repointed parent — and the promotion that makes it
    // this node's own; and a flush whose seed is short, which must end
    // the replay. The fold itself builds them
    // — joins need a public key that parses (256-bit odd modulus, e = 3).
    let join = |client: u64| {
        let mut pubkey = Writer::new();
        pubkey.bytes(&[0xFF; 32]).bytes(&[3]);
        AcWalRecord::Join {
            client,
            node: 3,
            pubkey: pubkey.into_bytes(),
            device: None,
            valid_until_us: 5_000_000,
            seed: Seed::from_bytes([u8::try_from(client).unwrap_or(0); 32]),
        }
        .to_bytes()
    };
    let in_window = [join(20), join(21), AcWalRecord::Leave { client: 21 }.to_bytes()];
    let departed_leaf = replay_ac(None, &in_window).map(|s| s.encode()).unwrap_or_default();
    let replica = AcCheckpoint {
        primary: false,
        takeover_epoch: 0,
        sync_seq: 0,
        applied_sync_seq: 9,
        snapshot: AcCheckpoint::from_bytes(&departed_leaf).map(|c| c.snapshot).unwrap_or_default(),
    };
    let flush = AcWalRecord::Flush { seed: Seed::from_bytes([0xb1; 32]) }.to_bytes();
    let rotate = AcWalRecord::Rotate { seed: Seed::from_bytes([0xb2; 32]) }.to_bytes();
    let enrol = AcWalRecord::Enrol { child_area: 1, node: 4, seed: Seed::from_bytes([0xb3; 32]) };
    let repoint = AcWalRecord::Parent { node: 5, area: 0, group: 0 };
    let promoted = AcWalRecord::Epoch { epoch: 1, step_down: None };
    let short_seed = flush.get(..flush.len() - 1).unwrap_or(&[]).to_vec();

    vec![
        ("seed-ac.bin", frame_up(1, &ac_frames)),
        ("seed-rs.bin", frame_up(1, &rs_frames)),
        ("seed-wal-only.bin", frame_up(0, &wal_only)),
        ("seed-empty.bin", vec![0]),
        ("seed-departed-leaf.bin", frame_up(1, std::slice::from_ref(&departed_leaf))),
        (
            "seed-backup-promoted.bin",
            frame_up(
                1,
                &[
                    replica.to_bytes(),
                    flush,
                    rotate,
                    enrol.to_bytes(),
                    repoint.to_bytes(),
                    promoted.to_bytes(),
                ],
            ),
        ),
        ("seed-short-seed.bin", frame_up(1, &[departed_leaf, short_seed, join(22)])),
    ]
}

// ---------------------------------------------------------------------
// fault-plan: chaos schedule text round trip
// ---------------------------------------------------------------------

/// Parses arbitrary (lossily decoded) text as a fault plan; any plan
/// that parses must serialize to a form that re-parses to the same
/// serialization (the dump-and-replay contract of `ChaosDriver`).
fn run_fault_plan(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(plan) = FaultPlan::parse(&text) {
        let dumped = plan.serialize();
        match FaultPlan::parse(&dumped) {
            Ok(again) => assert_eq!(
                again.serialize(),
                dumped,
                "fault plan serialize→parse→serialize diverged"
            ),
            Err(e) => panic!("serialized fault plan failed to re-parse: {e}\n{dumped}"),
        }
    }
}

fn seeds_fault_plan() -> Vec<(&'static str, Vec<u8>)> {
    let every_verb = "\
# every chaos verb, one per line
0 crash 1
1000 restart 1
2000 partition 2 3
3000 heal
4000 cut 0 1
5000 restore 0 1
6000 loss 50
7000 dup 10
8000 reorder 25 1500
9000 skew 1 200
10000 lost-tail 2
11000 torn 3
12000 ckpt-corrupt 1
13000 wal-short-read 2
14000 wal-append-fail 0
15000 ckpt-slot-corrupt 1 0
16000 storage-heal 2
";
    vec![
        ("seed-every-verb.txt", every_verb.as_bytes().to_vec()),
        (
            "seed-comments.txt",
            b"# comment only\n\n   \n17 crash 0\n".to_vec(),
        ),
        ("seed-bad-verb.txt", b"0 explode 1\n".to_vec()),
        (
            "seed-node-range.txt",
            b"0 crash 4294967296\n".to_vec(),
        ),
        // Regression: per-mille rates and partition labels are u32 in
        // the specs; a 2^32 rate used to truncate silently to 0 instead
        // of failing with a line-numbered range error.
        (
            "regression-rate-range.txt",
            b"0 loss 4294967296\n".to_vec(),
        ),
    ]
}

// ---------------------------------------------------------------------
// tree-snapshot: auxiliary-tree replica image decode (both backends)
// ---------------------------------------------------------------------

/// Feeds arbitrary bytes to [`AreaTree::restore`] — the decoder a
/// backup controller runs on every replicated snapshot, dispatching on
/// the `MKT1`/`MKH1` magic. Any input that restores must (a) pass the
/// tree's full structural invariant check and (b) re-encode to exactly
/// the input bytes: restore hardening makes every accepted image
/// canonical, so both oracles are safe on fuzz-shaped data.
fn run_tree_snapshot(data: &[u8]) {
    use mykil_tree::AreaTree;
    if let Ok(tree) = AreaTree::restore(data) {
        tree.check_invariants();
        assert_eq!(
            tree.snapshot(),
            data,
            "restored tree re-encoded differently (snapshot not canonical)"
        );
    }
}

fn seeds_tree_snapshot() -> Vec<(&'static str, Vec<u8>)> {
    use mykil_tree::{AreaTree, MemberId, TreeBackend, TreeConfig};
    let mut rng = Drbg::from_seed(23);

    // Explicit (MKT1) image with joins and a leave.
    let mut explicit = AreaTree::new(TreeConfig::quad(), &mut rng);
    for m in 0..12 {
        let _ = explicit.join(MemberId(m), &mut rng);
    }
    let _ = explicit.leave(MemberId(4), &mut rng);

    // KHF (MKH1) image whose override table is non-empty: leaves force
    // Fresh rotations, exercising the tail decode with override
    // entries (count, strictly-increasing node indices, key bytes).
    let mut khf = AreaTree::new(TreeConfig::quad().with_backend(TreeBackend::Khf), &mut rng);
    for m in 0..12 {
        let _ = khf.join(MemberId(m), &mut rng);
    }
    let _ = khf.leave(MemberId(2), &mut rng);
    let _ = khf.leave(MemberId(9), &mut rng);

    // Empty trees: smallest valid image of each format.
    let empty_explicit = AreaTree::new(TreeConfig::binary(), &mut rng);
    let empty_khf = AreaTree::new(TreeConfig::binary().with_backend(TreeBackend::Khf), &mut rng);

    // A truncated KHF tail: valid nodes, override count pointing past
    // the end — the exact shape the hardened restore must reject.
    let mut truncated = khf.snapshot();
    truncated.truncate(truncated.len().saturating_sub(9));

    // Regression fixture: a valid header claiming 2^64-1 nodes over a
    // tiny body. The original restore passed the claimed count straight
    // to `Vec::with_capacity` (capacity-overflow abort); restore now
    // bounds the count by what the input bytes can actually hold.
    let mut inflated = b"MKT1".to_vec();
    inflated.push(4);
    inflated.extend_from_slice(&u64::MAX.to_be_bytes());
    inflated.extend_from_slice(&[0u8; 24]);

    vec![
        ("seed-explicit.bin", explicit.snapshot()),
        ("seed-khf-overrides.bin", khf.snapshot()),
        ("seed-empty-explicit.bin", empty_explicit.snapshot()),
        ("seed-empty-khf.bin", empty_khf.snapshot()),
        ("seed-khf-truncated-tail.bin", truncated),
        ("regression-inflated-count.bin", inflated),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed must already run clean — the corpus is a regression
    /// suite, not a crash gallery.
    #[test]
    fn builtin_seeds_run_clean() {
        for t in all() {
            for (name, bytes) in (t.seeds)() {
                (t.run)(&bytes);
                let _ = name;
            }
        }
    }

    #[test]
    fn target_names_are_unique_and_findable() {
        let ts = all();
        for t in &ts {
            assert!(find(t.name).is_some());
        }
        let mut names: Vec<_> = ts.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ts.len());
    }

    /// The committed corpus under `tests/corpus/` replays clean against
    /// today's decoders. This is the tier-1 guard that keeps every
    /// fixed crash fixed: a regression re-panics right here, long
    /// before any fuzzing budget is spent.
    #[test]
    fn committed_corpus_replays_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/corpus");
        if !root.is_dir() {
            return; // corpus not generated yet (fresh checkout mid-build)
        }
        for t in all() {
            let dir = root.join(t.name);
            if !dir.is_dir() {
                continue;
            }
            let mut entries: Vec<_> = std::fs::read_dir(&dir)
                .expect("read corpus dir")
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .collect();
            entries.sort();
            assert!(
                !entries.is_empty(),
                "empty committed corpus for {}",
                t.name
            );
            for path in entries {
                let bytes = std::fs::read(&path).expect("read corpus file");
                (t.run)(&bytes);
            }
        }
    }
}
