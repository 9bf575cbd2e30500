//! Durable on-disk formats for crash recovery.
//!
//! Mykil's fault-tolerance story in the paper (Section IV) assumes a
//! failed area controller "recovers with its state intact" or is
//! replaced by its backup. This module makes the first half honest: it
//! defines the write-ahead-log records and checkpoint images that an
//! area controller and the registration server commit to simulated
//! stable storage ([`mykil_net::StableStore`]), so that a crash wipes
//! volatile memory but `on_restarted` can rebuild from the durable
//! prefix.
//!
//! The discipline mirrors a classic ARIES-lite split:
//!
//! - **WAL records** ([`AcWalRecord`], [`RsWalRecord`]) are committed
//!   *before* a state change is acknowledged to a peer: member
//!   admissions, leaves, evictions, child-controller enrolments, parent
//!   links, role transitions, client-id assignment, directory updates.
//! - **Checkpoints** ([`AcCheckpoint`], [`RsCheckpoint`]) capture full
//!   state and truncate the log: when the log has grown past
//!   [`CHECKPOINT_WAL_RECORDS`], at role changes, after recovery, and
//!   when a backup adopts a full image from its primary — never per
//!   rekey.
//!
//! A record whose meaning includes a tree operation carries the
//! [`Seed`] the operation's keys are drawn from, so a replay — by
//! recovery, by the invariant checker, or by the backup the primary
//! ships its records to — reproduces the same keys.
//!
//! What a record *means* is defined once per role: for the area
//! controller by the transition function of
//! [`AcDurable`](crate::area::AcDurable) (see `area/persist.rs`), for
//! the registration server by [`replay_rs`]. Live handlers, crash
//! recovery (`on_restarted` assigns what the fold returns) and the
//! durability invariant checker (the same fold over the same deployed
//! base for a controller, [`replay_rs`] for the server) all run that one
//! function, so at every quiescent point a replay of a live
//! node's stable storage must equal its in-memory durable state — same
//! role and fencing epoch, same membership, no acknowledged change
//! lost, no evicted member resurrected.

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

use crate::area::{AcDurable, AreaImage, Role, BAD_CHECKPOINT};
use crate::directory::AcDirectory;
use crate::error::ProtocolError;
use crate::wire::{Reader, Writer};
use mykil_crypto::ct;
use mykil_crypto::drbg::Drbg;
use mykil_crypto::sha256::Sha256;
use mykil_net::Time;
use mykil_tree::TreeConfig;
use rand::RngCore;

/// Fencing jump applied to a recovered primary's rekey epoch and
/// replication sequence.
///
/// Both counters may lag what the pre-crash incarnation used: an image
/// shipped is a step of the sequence no record takes, and a lying-fsync
/// crash can roll the whole image back to an older consistent prefix.
/// Resuming with a stale counter would make members (epoch guard) and
/// the backup (stale-`StateSync` guard) silently discard the recovered
/// primary's traffic, and the re-attach image would need a second one
/// above the backup's first heartbeat ack. It fences, but does not
/// identify: two recoveries from one rolled-back base land on the same
/// counters with different areas, which the backup's ack tells apart by
/// its [`SyncPosition`] digest.
pub const RECOVERY_EPOCH_JUMP: u64 = 1 << 20;

/// A controller checkpoints once its WAL holds more records than this:
/// the bound on what recovery replays, and the only steady-state reason
/// to write a full image.
pub const CHECKPOINT_WAL_RECORDS: usize = 128;

/// A primary that holds more unacknowledged records than this for its
/// backup stops queueing them and owes it a full image instead.
pub const SYNC_BACKLOG_RECORDS: usize = 64;

/// Bytes of a replication digest (SHA-256, truncated).
pub const SYNC_DIGEST_LEN: usize = 16;

/// Where a controller stands in its area's replication log: how many
/// steps the log has taken, and a digest of what they were.
///
/// A primary's position is where its image stands, a backup's where its
/// replica stands. Every record that changes the area takes one step and
/// chains its bytes into the digest; an image restarts the chain from
/// its own bytes, at the sequence it is shipped at. Two controllers at
/// one position hold one area, so a backup acknowledges what it holds,
/// not only how far it got (Raft's log matching, MLS's confirmed
/// transcript hash).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncPosition {
    /// Steps taken: one per record that changed the area, one per image
    /// shipped, and the recovery fence's jump.
    pub seq: u64,
    /// The digest chain up to here.
    pub digest: [u8; SYNC_DIGEST_LEN],
}

impl SyncPosition {
    /// Where an image shipped at `seq` stands.
    pub fn image(seq: u64, image: &[u8]) -> SyncPosition {
        SyncPosition { seq, digest: truncated(&Sha256::digest(image)) }
    }

    /// One record further.
    pub fn after(self, record: &[u8]) -> SyncPosition {
        let mut h = Sha256::new();
        h.update(&self.digest);
        h.update(record);
        SyncPosition { seq: self.seq + 1, digest: truncated(&h.finalize()) }
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u64(self.seq).raw(&self.digest);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<SyncPosition, ProtocolError> {
        Ok(SyncPosition { seq: r.u64()?, digest: r.array()? })
    }
}

fn truncated(full: &[u8; 32]) -> [u8; SYNC_DIGEST_LEN] {
    full.first_chunk().copied().unwrap_or_default()
}

/// The seed of the generator a record's tree operation draws its keys
/// from. Drawn by the live handler that builds the record; every fold
/// of the record — live, recovery, backup — expands it the same way.
/// Key material: compared in constant time, wiped on drop, never
/// printed.
#[derive(Clone)]
pub struct Seed([u8; 32]);

impl Seed {
    /// Draws a fresh seed.
    pub fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Seed {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Seed(bytes)
    }

    /// Wraps seed bytes read back from a record.
    pub fn from_bytes(bytes: [u8; 32]) -> Seed {
        Seed(bytes)
    }

    /// The generator this seed stands for.
    pub(crate) fn rng(&self) -> Drbg {
        Drbg::from_seed_bytes(&self.0)
    }
}

impl Drop for Seed {
    fn drop(&mut self) {
        ct::zeroize(&mut self.0);
    }
}

impl PartialEq for Seed {
    fn eq(&self, other: &Seed) -> bool {
        ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for Seed {}

impl std::fmt::Debug for Seed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Seed(..)")
    }
}

// ---------------------------------------------------------------------
// Area-controller WAL
// ---------------------------------------------------------------------

const AC_WAL_JOIN: u8 = 1;
const AC_WAL_LEAVE: u8 = 2;
const AC_WAL_EVICT: u8 = 3;
const AC_WAL_EPOCH: u8 = 4;
const AC_WAL_FLUSH: u8 = 6;
const AC_WAL_ROTATE: u8 = 7;
const AC_WAL_ENROL: u8 = 8;
const AC_WAL_PARENT: u8 = 9;

/// One durable membership, hierarchy or role delta, logged by an area
/// controller before the change is acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcWalRecord {
    /// A member was admitted (join or rejoin step 7).
    Join {
        /// Client id.
        client: u64,
        /// The member's node address (raw index).
        node: u32,
        /// Encoded member public key.
        pubkey: Vec<u8>,
        /// Device identity from the ticket, if presented.
        device: Option<[u8; 6]>,
        /// Membership expiry, microseconds of virtual time.
        valid_until_us: u64,
        /// Seed of the keys the tree join draws.
        seed: Seed,
    },
    /// A member left voluntarily.
    Leave {
        /// Client id.
        client: u64,
    },
    /// A member was evicted (failure detector or expiry).
    Evict {
        /// Client id.
        client: u64,
    },
    /// A key-update flush: every departed client's leaf is rekeyed out
    /// of the tree in one batch and the rekey epoch advances.
    Flush {
        /// Seed of the keys the batched leave draws.
        seed: Seed,
    },
    /// A freshness rotation of the area key; the rekey epoch advances.
    Rotate {
        /// Seed of the new area key.
        seed: Seed,
    },
    /// The area changed hands within the controller pair: this node
    /// took it over at `epoch`, or stepped down under the peer that
    /// holds `epoch` and adopted that epoch as its own.
    Epoch {
        /// The takeover epoch this node holds from now on.
        epoch: u64,
        /// `None`: this node runs the area. `Some`: it stands by, and
        /// the area it ran gives way to a blank tree drawn from this
        /// seed until the winner's image arrives.
        step_down: Option<Seed>,
    },
    /// A child area's controller enrolled in (or re-enrolled into) the tree.
    Enrol {
        /// The child area.
        child_area: u32,
        /// The child controller's node address (raw index).
        node: u32,
        /// Seed of the keys the tree leave and join draw.
        seed: Seed,
    },
    /// The parent link was repointed (area-join ack, neighbour's takeover).
    Parent {
        /// The parent controller's node address (raw index).
        node: u32,
        /// The parent's area.
        area: u32,
        /// The parent area's multicast group (raw index).
        group: u32,
    },
}

impl AcWalRecord {
    /// Whether the record changes the area itself — membership, tree,
    /// hierarchy, rekey epoch — rather than this node's role: the
    /// records a primary ships to its backup, each one step of the
    /// replication sequence.
    pub fn changes_area(&self) -> bool {
        match self {
            AcWalRecord::Join { .. }
            | AcWalRecord::Leave { .. }
            | AcWalRecord::Evict { .. }
            | AcWalRecord::Flush { .. }
            | AcWalRecord::Rotate { .. }
            | AcWalRecord::Enrol { .. }
            | AcWalRecord::Parent { .. } => true,
            AcWalRecord::Epoch { .. } => false,
        }
    }

    /// Serializes the record for [`mykil_net::StableStore::wal_commit`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            AcWalRecord::Join {
                client,
                node,
                pubkey,
                device,
                valid_until_us,
                seed,
            } => {
                w.u8(AC_WAL_JOIN).u64(*client).u32(*node).bytes(pubkey);
                match device {
                    Some(d) => {
                        w.u8(1).raw(d);
                    }
                    None => {
                        w.u8(0);
                    }
                }
                w.u64(*valid_until_us).raw(&seed.0);
            }
            AcWalRecord::Leave { client } => {
                w.u8(AC_WAL_LEAVE).u64(*client);
            }
            AcWalRecord::Evict { client } => {
                w.u8(AC_WAL_EVICT).u64(*client);
            }
            AcWalRecord::Flush { seed } => {
                w.u8(AC_WAL_FLUSH).raw(&seed.0);
            }
            AcWalRecord::Rotate { seed } => {
                w.u8(AC_WAL_ROTATE).raw(&seed.0);
            }
            AcWalRecord::Epoch { epoch, step_down } => {
                w.u8(AC_WAL_EPOCH).u64(*epoch);
                match step_down {
                    Some(seed) => {
                        w.u8(1).raw(&seed.0);
                    }
                    None => {
                        w.u8(0);
                    }
                }
            }
            AcWalRecord::Enrol { child_area, node, seed } => {
                w.u8(AC_WAL_ENROL).u32(*child_area).u32(*node).raw(&seed.0);
            }
            AcWalRecord::Parent { node, area, group } => {
                w.u8(AC_WAL_PARENT).u32(*node).u32(*area).u32(*group);
            }
        }
        w.into_bytes()
    }

    /// Parses a record read back by recovery; `None` on any malformed
    /// input (storage corruption surfaces as an unparseable record, not
    /// a panic).
    pub fn from_bytes(bytes: &[u8]) -> Option<AcWalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8().ok()? {
            AC_WAL_JOIN => {
                let client = r.u64().ok()?;
                let node = r.u32().ok()?;
                let pubkey = r.bytes().ok()?.to_vec();
                let device = if r.u8().ok()? == 1 {
                    Some(r.array::<6>().ok()?)
                } else {
                    None
                };
                let valid_until_us = r.u64().ok()?;
                AcWalRecord::Join {
                    client,
                    node,
                    pubkey,
                    device,
                    valid_until_us,
                    seed: Seed(r.array().ok()?),
                }
            }
            AC_WAL_LEAVE => AcWalRecord::Leave {
                client: r.u64().ok()?,
            },
            AC_WAL_EVICT => AcWalRecord::Evict {
                client: r.u64().ok()?,
            },
            AC_WAL_FLUSH => AcWalRecord::Flush {
                seed: Seed(r.array().ok()?),
            },
            AC_WAL_ROTATE => AcWalRecord::Rotate {
                seed: Seed(r.array().ok()?),
            },
            AC_WAL_EPOCH => AcWalRecord::Epoch {
                epoch: r.u64().ok()?,
                step_down: match r.u8().ok()? {
                    0 => None,
                    1 => Some(Seed(r.array().ok()?)),
                    _ => return None,
                },
            },
            AC_WAL_ENROL => AcWalRecord::Enrol {
                child_area: r.u32().ok()?,
                node: r.u32().ok()?,
                seed: Seed(r.array().ok()?),
            },
            AC_WAL_PARENT => AcWalRecord::Parent {
                node: r.u32().ok()?,
                area: r.u32().ok()?,
                group: r.u32().ok()?,
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(rec)
    }
}

// ---------------------------------------------------------------------
// Area-controller checkpoint
// ---------------------------------------------------------------------

/// Full-state image an area controller writes at compaction points.
///
/// The outer frame of [`AcDurable::encode`](crate::area::AcDurable::encode).
/// The membership/tree/hierarchy payload is the area image in the
/// format a primary ships to its backup on (re)attach; a backup
/// checkpoints its live replica of the primary's area the same way.
/// Everything else is the role state that the image deliberately
/// leaves out: the role, the takeover epoch that fences it, and the
/// replication position. Who the counterpart is needs no field: the
/// controller pair is fixed at deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcCheckpoint {
    /// Role at checkpoint time.
    pub primary: bool,
    /// Fencing epoch.
    pub takeover_epoch: u64,
    /// Where the image stands in the replication log.
    pub position: SyncPosition,
    /// The area image: the area a primary runs, a backup's replica of
    /// it (the blank area it was deployed with, before the first sync).
    pub snapshot: Vec<u8>,
}

impl AcCheckpoint {
    /// Serializes the checkpoint for
    /// [`mykil_net::StableStore::checkpoint`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(u8::from(!self.primary)).u64(self.takeover_epoch);
        self.position.write(&mut w);
        w.bytes(&self.snapshot);
        w.into_bytes()
    }

    /// Parses a checkpoint read back by recovery; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<AcCheckpoint> {
        let mut r = Reader::new(bytes);
        let primary = match r.u8().ok()? {
            0 => true,
            1 => false,
            _ => return None,
        };
        let cp = AcCheckpoint {
            primary,
            takeover_epoch: r.u64().ok()?,
            position: SyncPosition::read(&mut r).ok()?,
            snapshot: r.bytes().ok()?.to_vec(),
        };
        r.finish().ok()?;
        Some(cp)
    }
}

// ---------------------------------------------------------------------
// Registration-server WAL and checkpoint
// ---------------------------------------------------------------------

const RS_WAL_CLIENT: u8 = 1;
const RS_WAL_UPSERT: u8 = 2;

/// One durable registration-server delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsWalRecord {
    /// A client id was handed out in join step 4/5. Logged before the
    /// reply so a recovered RS never re-issues the same id.
    ClientAssigned {
        /// The id assigned.
        client: u64,
    },
    /// A takeover notification updated the AC directory.
    DirectoryUpsert {
        /// Area whose entry changed.
        area: u32,
        /// The new controller's node address (raw index).
        node: u32,
        /// The new controller's encoded public key.
        pubkey: Vec<u8>,
    },
}

impl RsWalRecord {
    /// Serializes the record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            RsWalRecord::ClientAssigned { client } => {
                w.u8(RS_WAL_CLIENT).u64(*client);
            }
            RsWalRecord::DirectoryUpsert { area, node, pubkey } => {
                w.u8(RS_WAL_UPSERT).u32(*area).u32(*node).bytes(pubkey);
            }
        }
        w.into_bytes()
    }

    /// Parses a record; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<RsWalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8().ok()? {
            RS_WAL_CLIENT => RsWalRecord::ClientAssigned {
                client: r.u64().ok()?,
            },
            RS_WAL_UPSERT => RsWalRecord::DirectoryUpsert {
                area: r.u32().ok()?,
                node: r.u32().ok()?,
                pubkey: r.bytes().ok()?.to_vec(),
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(rec)
    }
}

/// Registration-server checkpoint: id allocators plus the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsCheckpoint {
    /// Next client id to hand out.
    pub next_client: u64,
    /// Next area for round-robin placement.
    pub next_area: u64,
    /// Current AC directory (reflects all applied takeovers).
    pub directory: AcDirectory,
}

impl RsCheckpoint {
    /// Serializes the checkpoint.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.next_client).u64(self.next_area);
        self.directory.write(&mut w);
        w.into_bytes()
    }

    /// Parses a checkpoint; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<RsCheckpoint> {
        let mut r = Reader::new(bytes);
        let next_client = r.u64().ok()?;
        let next_area = r.u64().ok()?;
        let directory = AcDirectory::read(&mut r).ok()?;
        r.finish().ok()?;
        Some(RsCheckpoint {
            next_client,
            next_area,
            directory,
        })
    }
}

// ---------------------------------------------------------------------
// Replay of stable storage (recovery's fold, without a node)
// ---------------------------------------------------------------------

/// Replays an area controller's stable storage (as returned by
/// [`mykil_net::StableStore::load`]) without a node around it: recovery's
/// own fold ([`AcDurable`]'s, the one `on_restarted` and the durability
/// invariant run over a controller's deployed state), over a lone
/// primary of an empty area. `None` only when the checkpoint exists but
/// does not parse; an unparseable WAL record ends the replay early
/// (torn-tail handling).
///
/// Every key comes from the checkpoint or from a record's seed (only the
/// empty area assumed without a checkpoint draws its root from a fixed
/// one), and liveness clocks start at zero.
pub fn replay_ac(checkpoint: Option<&[u8]>, wal: &[Vec<u8>]) -> Option<AcDurable> {
    let blank = AreaImage::blank(TreeConfig::default(), None, &mut Drbg::from_seed(0));
    let base = AcDurable::deployed(Role::Primary, blank);
    let restored = AcDurable::restore(base, checkpoint, wal, Time::ZERO);
    (!restored.counters.contains(&BAD_CHECKPOINT)).then_some(restored.state)
}

/// Folds the registration server's WAL suffix over `state` — its
/// decoded checkpoint, or the state it was deployed with when stable
/// storage holds no usable one. This is the fold crash recovery runs
/// and the durability invariant checks. Returns the resulting state
/// and how many records were folded: an unparseable record ends the
/// replay early (a torn tail), so a count below `wal.len()` says one
/// was met.
pub fn replay_rs(mut state: RsCheckpoint, wal: &[Vec<u8>]) -> (RsCheckpoint, usize) {
    let mut folded = 0;
    for raw in wal {
        let Some(rec) = RsWalRecord::from_bytes(raw) else {
            break;
        };
        match rec {
            RsWalRecord::ClientAssigned { client } => {
                state.next_client = state.next_client.max(client + 1);
            }
            RsWalRecord::DirectoryUpsert { area, node, pubkey } => {
                state.directory.upsert(crate::directory::AcInfo {
                    area: crate::identity::AreaId(area),
                    node,
                    pubkey,
                });
            }
        }
        folded += 1;
    }
    (state, folded)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ac_wal_records_round_trip() {
        let records = vec![
            AcWalRecord::Join {
                client: 42,
                node: 7,
                pubkey: vec![1, 2, 3],
                device: Some([9; 6]),
                valid_until_us: 1_000_000,
                seed: Seed([1; 32]),
            },
            AcWalRecord::Join {
                client: 43,
                node: 8,
                pubkey: vec![4],
                device: None,
                valid_until_us: 0,
                seed: Seed([2; 32]),
            },
            AcWalRecord::Leave { client: 42 },
            AcWalRecord::Evict { client: 43 },
            AcWalRecord::Flush { seed: Seed([3; 32]) },
            AcWalRecord::Rotate { seed: Seed([4; 32]) },
            AcWalRecord::Epoch { epoch: 3, step_down: None },
            AcWalRecord::Epoch { epoch: 4, step_down: Some(Seed([5; 32])) },
            AcWalRecord::Enrol { child_area: 3, node: 6, seed: Seed([6; 32]) },
            AcWalRecord::Parent { node: 4, area: 1, group: 2 },
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            assert_eq!(AcWalRecord::from_bytes(&bytes), Some(rec));
        }
    }

    #[test]
    fn ac_wal_rejects_garbage() {
        assert_eq!(AcWalRecord::from_bytes(&[]), None);
        assert_eq!(AcWalRecord::from_bytes(&[0xFF, 1, 2]), None);
        // Trailing bytes after a valid record are corruption.
        let mut bytes = AcWalRecord::Leave { client: 1 }.to_bytes();
        bytes.push(0);
        assert_eq!(AcWalRecord::from_bytes(&bytes), None);
        // A seed is all or nothing.
        let bytes = AcWalRecord::Flush { seed: Seed([7; 32]) }.to_bytes();
        assert_eq!(AcWalRecord::from_bytes(&bytes[..bytes.len() - 1]), None);
        let step_down = AcWalRecord::Epoch { epoch: 2, step_down: Some(Seed([7; 32])) };
        let mut bytes = step_down.to_bytes();
        assert_eq!(AcWalRecord::from_bytes(&bytes[..bytes.len() - 1]), None);
        // A role flag is 0 (takes over) or 1 (steps down, seed follows).
        bytes[9] = 2;
        assert_eq!(AcWalRecord::from_bytes(&bytes), None);
    }

    #[test]
    fn seeds_are_not_printed() {
        let shown = format!("{:?}", AcWalRecord::Rotate { seed: Seed([0xAB; 32]) });
        assert_eq!(shown, "Rotate { seed: Seed(..) }");
    }

    #[test]
    fn ac_checkpoint_round_trips_both_roles() {
        let primary = AcCheckpoint {
            primary: true,
            takeover_epoch: 2,
            position: SyncPosition::image(17, &[4, 5]),
            snapshot: vec![1, 2, 3],
        };
        assert_eq!(
            AcCheckpoint::from_bytes(&primary.to_bytes()),
            Some(primary)
        );
        let backup = AcCheckpoint {
            primary: false,
            takeover_epoch: 2,
            position: SyncPosition::default().after(&[6]),
            snapshot: Vec::new(),
        };
        assert_eq!(AcCheckpoint::from_bytes(&backup.to_bytes()), Some(backup));
    }

    #[test]
    fn rs_formats_round_trip() {
        let records = vec![
            RsWalRecord::ClientAssigned { client: 12 },
            RsWalRecord::DirectoryUpsert {
                area: 1,
                node: 9,
                pubkey: vec![7, 7],
            },
        ];
        for rec in records {
            assert_eq!(RsWalRecord::from_bytes(&rec.to_bytes()), Some(rec));
        }
        let cp = RsCheckpoint {
            next_client: 5,
            next_area: 2,
            directory: AcDirectory::default(),
        };
        assert_eq!(RsCheckpoint::from_bytes(&cp.to_bytes()), Some(cp));
    }

    /// Bytes of a public key that parses (256-bit odd modulus, e = 3).
    pub(crate) fn pubkey(tag: u8) -> Vec<u8> {
        let mut n = vec![0xFF; 32];
        n[1] = tag;
        let mut w = Writer::new();
        w.bytes(&n).bytes(&[3]);
        w.into_bytes()
    }

    fn join(client: u64) -> Vec<u8> {
        AcWalRecord::Join {
            client,
            node: 10 + client as u32,
            pubkey: pubkey(client as u8),
            device: None,
            valid_until_us: 0,
            seed: Seed([client as u8; 32]),
        }
        .to_bytes()
    }

    fn clients(state: &AcDurable) -> Vec<u64> {
        state.tree().members().map(|m| m.0).collect()
    }

    #[test]
    fn replay_ac_applies_wal_over_checkpoint() {
        // No checkpoint: pure WAL replay over an empty area.
        let wal = vec![
            join(1),
            join(2),
            AcWalRecord::Evict { client: 1 }.to_bytes(),
            AcWalRecord::Leave { client: 2 }.to_bytes(),
        ];
        let state = replay_ac(None, &wal).unwrap();
        assert_eq!(state.role(), Role::Primary);
        assert!(state.member_ids().is_empty());
        // Both rows are gone; both leaves wait for the next flush.
        assert_eq!(clients(&state), vec![1, 2]);
        assert_eq!(state.departed().count(), 2);
    }

    #[test]
    fn replay_ac_readmission_clears_eviction() {
        let wal = vec![join(1), AcWalRecord::Evict { client: 1 }.to_bytes(), join(1)];
        let state = replay_ac(None, &wal).unwrap();
        assert_eq!(state.member_ids(), BTreeSet::from([1]));
        assert_eq!(clients(&state), vec![1]);
        assert_eq!(state.departed().count(), 0);
    }

    #[test]
    fn replay_ac_folds_a_backups_log_into_the_primarys_area() {
        // A backup's checkpoint holds its replica of the primary's
        // area — here one adopted inside a batch window, with member
        // 32's leaf still in the tree. The records the primary ships
        // next land in the backup's own WAL; a promotion after them
        // makes the area this node's, keys and all.
        let mut primary = replay_ac(
            None,
            &[join(31), join(32), AcWalRecord::Leave { client: 32 }.to_bytes()],
        )
        .unwrap();
        primary.image.epoch = 7;
        let cp = AcCheckpoint {
            primary: false,
            takeover_epoch: 1,
            position: primary.position,
            snapshot: primary.image.encode(),
        };
        let standby = replay_ac(Some(&cp.to_bytes()), &[]).unwrap();
        assert_eq!(standby.role(), Role::Backup);
        assert_eq!(standby.departed().map(|m| m.0).collect::<Vec<_>>(), vec![32]);
        // A backup's checkpoint round-trips.
        assert_eq!(standby.encode(), cp.to_bytes());

        let shipped = [join(33), AcWalRecord::Flush { seed: Seed([9; 32]) }.to_bytes()];
        let promoted = AcWalRecord::Epoch { epoch: 2, step_down: None }.to_bytes();
        let wal = [shipped.as_slice(), &[promoted]].concat();
        let state = replay_ac(Some(&cp.to_bytes()), &wal).unwrap();
        assert_eq!(state.role(), Role::Primary);
        assert_eq!(state.takeover_epoch(), 2);
        assert_eq!(state.position.seq, 5);
        assert_eq!(state.member_ids(), BTreeSet::from([31, 33]));
        assert_eq!(state.epoch(), 8);
        assert_eq!(state.departed().count(), 0);

        // The primary folding the same records stands on the same keys,
        // at the same position.
        let cp_primary = primary.encode();
        let ahead = replay_ac(Some(&cp_primary), &shipped).unwrap();
        assert_eq!(ahead.position, state.position);
        assert_eq!(ahead.image.encode(), state.image.encode());
    }

    #[test]
    fn replay_ac_stops_at_first_bad_record() {
        let wal = vec![
            join(1),
            vec![0xFF, 0xFF],
            AcWalRecord::Evict { client: 1 }.to_bytes(),
        ];
        let state = replay_ac(None, &wal).unwrap();
        // The eviction after the bad record must not apply.
        assert_eq!(state.member_ids(), BTreeSet::from([1]));
        // A record with a short seed is a bad record like any other.
        let flush = AcWalRecord::Flush { seed: Seed([8; 32]) }.to_bytes();
        let wal = vec![join(1), flush[..flush.len() - 1].to_vec(), join(2)];
        let state = replay_ac(None, &wal).unwrap();
        assert_eq!((state.member_ids(), state.epoch()), (BTreeSet::from([1]), 0));
        // A checkpoint that does not parse replays to nothing at all.
        assert!(replay_ac(Some(&[0xFF]), &wal).is_none());
    }

    #[test]
    fn replay_rs_tracks_allocator_high_water_mark() {
        let cp = RsCheckpoint {
            next_client: 5,
            next_area: 1,
            directory: AcDirectory::default(),
        };
        let wal = vec![
            RsWalRecord::ClientAssigned { client: 5 }.to_bytes(),
            RsWalRecord::ClientAssigned { client: 6 }.to_bytes(),
        ];
        let (view, folded) = replay_rs(cp, &wal);
        assert_eq!(view.next_client, 7);
        assert_eq!(view.next_area, 1);
        assert_eq!(folded, 2);
    }
}
