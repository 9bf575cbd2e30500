//! Top-level wire messages.
//!
//! One tag byte plus fields. Encrypted payloads (`ct`) are opaque here:
//! the join/rejoin steps encode their inner fields with
//! [`crate::wire`] and encrypt with the recipient's RSA key (hybrid
//! envelopes, per the paper's one-time-key workaround); `sig` fields are
//! RSA signatures over the ciphertext bytes, mirroring the
//! `{...}_Pub_x; Sig_Prv_y` notation of Figures 3 and 7.
//!
//! A note on MACs: each figure lists an explicit "MAC" field inside the
//! encrypted payload. In this implementation that MAC is provided by
//! the hybrid envelope's encrypt-then-MAC construction
//! ([`mykil_crypto::envelope`]), which authenticates exactly the fields
//! the figures enumerate.
//!
//! A note on delivery: most messages are fire-and-forget (loss is
//! handled by protocol-level retries or the epoch-gap
//! [`Msg::KeyRefreshRequest`] machinery), but the control-plane
//! unicasts that would otherwise stall recovery ride the simulator's
//! reliable channel (`Context::send_reliable` — retransmission with
//! exponential backoff plus receiver-side dedup):
//! [`Msg::AreaJoinReq`]/[`Msg::AreaJoinAck`] (parent switch and
//! post-takeover re-enrollment), [`Msg::Demote`], the unicast
//! [`Msg::Takeover`] announcement to the registration server, and
//! [`Msg::LeaveRequest`]. [`Msg::StateSync`] is fire-and-forget too: the
//! backup's [`Msg::HeartbeatAck`] names the position it holds, and the
//! primary re-ships from there.

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
// `Msg` dispatch lists every variant, so a new wire message does not
// compile until each role triages it.
#![cfg_attr(
    not(test),
    warn(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use crate::durable::SyncPosition;
use crate::error::ProtocolError;
use crate::identity::{AreaId, ClientId};
use crate::wire::{Reader, Writer};

/// Why a rejoin was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejoinDenyReason {
    /// Ticket failed to verify or expired.
    BadTicket,
    /// Previous AC reports the client is still an active member
    /// (cohort-sharing suspected).
    StillMemberElsewhere,
    /// Previous AC unreachable and policy is deny (Section IV-B
    /// option 1).
    PartitionedStrict,
    /// Device id does not match the ticket (option 2 NIC check).
    DeviceMismatch,
    /// The controller does not know this client at all — sent in reply
    /// to a `KeyRefreshRequest` from a node outside the member list
    /// (evicted during a partition or lost in a failover). The session
    /// is dead; the client must rejoin or re-register, not refresh.
    NotMember,
}

impl RejoinDenyReason {
    fn to_u8(self) -> u8 {
        match self {
            RejoinDenyReason::BadTicket => 0,
            RejoinDenyReason::StillMemberElsewhere => 1,
            RejoinDenyReason::PartitionedStrict => 2,
            RejoinDenyReason::DeviceMismatch => 3,
            RejoinDenyReason::NotMember => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => RejoinDenyReason::BadTicket,
            1 => RejoinDenyReason::StillMemberElsewhere,
            2 => RejoinDenyReason::PartitionedStrict,
            3 => RejoinDenyReason::DeviceMismatch,
            4 => RejoinDenyReason::NotMember,
            _ => return Err(ProtocolError::Malformed("deny reason")),
        })
    }
}

/// Every message exchanged in the Mykil protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Join step 1, client → registration server (Figure 3).
    Join1 { ct: Vec<u8> },
    /// Join step 2, RS → client.
    Join2 { ct: Vec<u8> },
    /// Join step 3, client → RS.
    Join3 { ct: Vec<u8> },
    /// Join step 4, RS → area controller (signed).
    Join4 { ct: Vec<u8>, sig: Vec<u8> },
    /// Join step 5, RS → client (signed).
    Join5 { ct: Vec<u8>, sig: Vec<u8> },
    /// Join step 6, client → AC.
    Join6 { ct: Vec<u8> },
    /// Join step 7, AC → client (welcome payload with ticket and keys).
    Join7 { ct: Vec<u8> },

    /// Rejoin step 1, client → new AC (Figure 7).
    Rejoin1 { ct: Vec<u8> },
    /// Rejoin step 2, new AC → client.
    Rejoin2 { ct: Vec<u8> },
    /// Rejoin step 3, client → new AC.
    Rejoin3 { ct: Vec<u8> },
    /// Rejoin step 4, new AC → previous AC (signed).
    Rejoin4 { ct: Vec<u8>, sig: Vec<u8> },
    /// Rejoin step 5, previous AC → new AC (signed).
    Rejoin5 { ct: Vec<u8>, sig: Vec<u8> },
    /// Rejoin step 6, new AC → client (signed welcome).
    Rejoin6 { ct: Vec<u8>, sig: Vec<u8> },
    /// Rejoin refused.
    RejoinDenied { reason: RejoinDenyReason },

    /// Area-join request: an AC asks another AC to become its parent
    /// (Section IV-C, signed).
    AreaJoinReq { ct: Vec<u8>, sig: Vec<u8> },
    /// Area-join acknowledgement (signed).
    AreaJoinAck { ct: Vec<u8>, sig: Vec<u8> },

    /// Multicast rekey message, signed by the AC (Section III-E).
    KeyUpdate {
        /// The area being rekeyed.
        area: AreaId,
        /// Monotonic rekey epoch within the area.
        epoch: u64,
        /// Serialized key changes (see `area::encode_key_update`).
        body: Vec<u8>,
        /// AC signature over area ‖ epoch ‖ body.
        sig: Vec<u8>,
    },
    /// Unicast key delivery to one member (hybrid-encrypted).
    KeyUnicast { ct: Vec<u8> },
    /// A member asks its AC to re-send its current key path (recovery
    /// after missed key-update multicasts; loss is possible because the
    /// multicast transport, unlike the paper's TCP, is unreliable).
    KeyRefreshRequest {
        /// The requesting member.
        client: ClientId,
    },
    /// A member announces a voluntary departure (Section III-D);
    /// hybrid-encrypted to the AC.
    LeaveRequest { ct: Vec<u8> },

    /// Multicast application data within an area: RC4 ciphertext under a
    /// random key `K_r`, with `K_r` sealed under the area key
    /// (Section III / Figure 2).
    Data {
        /// The original sender.
        origin: ClientId,
        /// Sender-assigned sequence number (dedup across forwarding).
        seq: u64,
        /// `K_r` sealed under the local area key.
        wrapped_key: Vec<u8>,
        /// The data encrypted under `K_r`.
        payload: Vec<u8>,
    },

    /// AC's idle-period alive multicast (`T_idle`, Section IV-A). It
    /// carries the current rekey epoch so receivers that missed a
    /// key-update multicast detect it within one idle period.
    AcAlive { area: AreaId, epoch: u64 },
    /// Member's alive unicast to its AC (`T_active`).
    MemberAlive { client: ClientId },

    /// Primary → its peer, liveness probe. Carries the sender's
    /// takeover epoch, so that of two primaries after a partition heal
    /// or a restart the one with the higher claim learns of the other
    /// and fences it (split-brain fencing, see `area::replication`).
    Heartbeat { takeover_epoch: u64 },
    /// Backup → primary response: the responder's takeover epoch (a
    /// later takeover claims above it) and the replication position its
    /// replica stands at — the one acknowledgement of replication: the
    /// primary trims what the backup holds, re-ships what it lacks, and
    /// owes an image for an area it never held.
    HeartbeatAck { takeover_epoch: u64, position: SyncPosition },
    /// Primary → backup state synchronization: a [`SyncBody`] sealed
    /// under the replication key.
    StateSync { ct: Vec<u8> },
    /// A controller announces it took the area over from the other
    /// node of its pair (signed).
    Takeover {
        /// The area whose controller failed.
        area: AreaId,
        /// Signature by the new controller's key over the area id.
        sig: Vec<u8>,
        /// The new controller's public key (members verify against the
        /// standby key received at join time).
        pubkey: Vec<u8>,
    },
    /// The primary with the higher `(takeover epoch, node)` → its peer,
    /// which also claims the area: "this epoch supersedes you; adopt it
    /// and step down to backup" (signed by the sender's key, which the
    /// peer verifies against its own deployment record).
    Demote {
        /// The contested area.
        area: AreaId,
        /// The superseding takeover epoch.
        takeover_epoch: u64,
        /// Signature over area ‖ takeover_epoch by the sender's key.
        sig: Vec<u8>,
    },
}

macro_rules! ct_only {
    ($w:expr, $tag:expr, $ct:expr) => {{
        $w.u8($tag).bytes($ct);
    }};
}

macro_rules! ct_sig {
    ($w:expr, $tag:expr, $ct:expr, $sig:expr) => {{
        $w.u8($tag).bytes($ct).bytes($sig);
    }};
}

impl Msg {
    /// Serializes to bytes for the simulator.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Msg::Join1 { ct } => ct_only!(w, 1, ct),
            Msg::Join2 { ct } => ct_only!(w, 2, ct),
            Msg::Join3 { ct } => ct_only!(w, 3, ct),
            Msg::Join4 { ct, sig } => ct_sig!(w, 4, ct, sig),
            Msg::Join5 { ct, sig } => ct_sig!(w, 5, ct, sig),
            Msg::Join6 { ct } => ct_only!(w, 6, ct),
            Msg::Join7 { ct } => ct_only!(w, 7, ct),
            Msg::Rejoin1 { ct } => ct_only!(w, 10, ct),
            Msg::Rejoin2 { ct } => ct_only!(w, 11, ct),
            Msg::Rejoin3 { ct } => ct_only!(w, 12, ct),
            Msg::Rejoin4 { ct, sig } => ct_sig!(w, 13, ct, sig),
            Msg::Rejoin5 { ct, sig } => ct_sig!(w, 14, ct, sig),
            Msg::Rejoin6 { ct, sig } => ct_sig!(w, 15, ct, sig),
            Msg::RejoinDenied { reason } => {
                w.u8(16).u8(reason.to_u8());
            }
            Msg::AreaJoinReq { ct, sig } => ct_sig!(w, 20, ct, sig),
            Msg::AreaJoinAck { ct, sig } => ct_sig!(w, 21, ct, sig),
            Msg::KeyUpdate {
                area,
                epoch,
                body,
                sig,
            } => {
                w.u8(30).u32(area.0).u64(*epoch).bytes(body).bytes(sig);
            }
            Msg::KeyUnicast { ct } => ct_only!(w, 31, ct),
            Msg::KeyRefreshRequest { client } => {
                w.u8(32).u64(client.0);
            }
            Msg::LeaveRequest { ct } => ct_only!(w, 33, ct),
            Msg::Data {
                origin,
                seq,
                wrapped_key,
                payload,
            } => {
                w.u8(40)
                    .u64(origin.0)
                    .u64(*seq)
                    .bytes(wrapped_key)
                    .bytes(payload);
            }
            Msg::AcAlive { area, epoch } => {
                w.u8(50).u32(area.0).u64(*epoch);
            }
            Msg::MemberAlive { client } => {
                w.u8(51).u64(client.0);
            }
            Msg::Heartbeat { takeover_epoch } => {
                w.u8(60).u64(*takeover_epoch);
            }
            Msg::HeartbeatAck { takeover_epoch, position } => {
                w.u8(61).u64(*takeover_epoch);
                position.write(&mut w);
            }
            Msg::StateSync { ct } => ct_only!(w, 62, ct),
            Msg::Takeover { area, sig, pubkey } => {
                w.u8(63).u32(area.0).bytes(sig).bytes(pubkey);
            }
            Msg::Demote {
                area,
                takeover_epoch,
                sig,
            } => {
                w.u8(64).u32(area.0).u64(*takeover_epoch).bytes(sig);
            }
        }
        w.into_bytes()
    }

    /// Parses bytes received from the simulator.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] for unknown tags or truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Msg, ProtocolError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let msg = match tag {
            1 => Msg::Join1 { ct: r.bytes()?.to_vec() },
            2 => Msg::Join2 { ct: r.bytes()?.to_vec() },
            3 => Msg::Join3 { ct: r.bytes()?.to_vec() },
            4 => Msg::Join4 { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            5 => Msg::Join5 { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            6 => Msg::Join6 { ct: r.bytes()?.to_vec() },
            7 => Msg::Join7 { ct: r.bytes()?.to_vec() },
            10 => Msg::Rejoin1 { ct: r.bytes()?.to_vec() },
            11 => Msg::Rejoin2 { ct: r.bytes()?.to_vec() },
            12 => Msg::Rejoin3 { ct: r.bytes()?.to_vec() },
            13 => Msg::Rejoin4 { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            14 => Msg::Rejoin5 { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            15 => Msg::Rejoin6 { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            16 => Msg::RejoinDenied {
                reason: RejoinDenyReason::from_u8(r.u8()?)?,
            },
            20 => Msg::AreaJoinReq { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            21 => Msg::AreaJoinAck { ct: r.bytes()?.to_vec(), sig: r.bytes()?.to_vec() },
            30 => Msg::KeyUpdate {
                area: AreaId(r.u32()?),
                epoch: r.u64()?,
                body: r.bytes()?.to_vec(),
                sig: r.bytes()?.to_vec(),
            },
            31 => Msg::KeyUnicast { ct: r.bytes()?.to_vec() },
            32 => Msg::KeyRefreshRequest { client: ClientId(r.u64()?) },
            33 => Msg::LeaveRequest { ct: r.bytes()?.to_vec() },
            40 => Msg::Data {
                origin: ClientId(r.u64()?),
                seq: r.u64()?,
                wrapped_key: r.bytes()?.to_vec(),
                payload: r.bytes()?.to_vec(),
            },
            50 => Msg::AcAlive {
                area: AreaId(r.u32()?),
                epoch: r.u64()?,
            },
            51 => Msg::MemberAlive { client: ClientId(r.u64()?) },
            60 => Msg::Heartbeat { takeover_epoch: r.u64()? },
            61 => Msg::HeartbeatAck {
                takeover_epoch: r.u64()?,
                position: SyncPosition::read(&mut r)?,
            },
            62 => Msg::StateSync { ct: r.bytes()?.to_vec() },
            63 => Msg::Takeover {
                area: AreaId(r.u32()?),
                sig: r.bytes()?.to_vec(),
                pubkey: r.bytes()?.to_vec(),
            },
            64 => Msg::Demote {
                area: AreaId(r.u32()?),
                takeover_epoch: r.u64()?,
                sig: r.bytes()?.to_vec(),
            },
            _ => return Err(ProtocolError::Malformed("unknown message tag")),
        };
        r.finish()?;
        Ok(msg)
    }

    /// The accounting kind used for simulator traffic statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Join1 { .. }
            | Msg::Join2 { .. }
            | Msg::Join3 { .. }
            | Msg::Join4 { .. }
            | Msg::Join5 { .. }
            | Msg::Join6 { .. }
            | Msg::Join7 { .. } => "join",
            Msg::LeaveRequest { .. } => "leave",
            Msg::Rejoin1 { .. }
            | Msg::Rejoin2 { .. }
            | Msg::Rejoin3 { .. }
            | Msg::Rejoin4 { .. }
            | Msg::Rejoin5 { .. }
            | Msg::Rejoin6 { .. }
            | Msg::RejoinDenied { .. } => "rejoin",
            Msg::AreaJoinReq { .. } | Msg::AreaJoinAck { .. } => "area-join",
            Msg::KeyUpdate { .. } => "key-update",
            Msg::KeyUnicast { .. } | Msg::KeyRefreshRequest { .. } => "key-unicast",
            Msg::Data { .. } => "data",
            Msg::AcAlive { .. } | Msg::MemberAlive { .. } => "alive",
            Msg::Heartbeat { .. } | Msg::HeartbeatAck { .. } | Msg::StateSync { .. } => {
                "replication"
            }
            Msg::Takeover { .. } | Msg::Demote { .. } => "takeover",
        }
    }
}

const SYNC_IMAGE: u8 = 0;
const SYNC_RECORDS: u8 = 1;

/// What a [`Msg::StateSync`] carries under the replication key: the
/// replication sequence it brings the backup to, and either the full
/// area image or the WAL records — as the primary committed them, seeds
/// included — that end at that sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncBody<'a> {
    /// The whole area, as `AreaImage::encode` writes it.
    Image {
        /// The sequence this image stands at.
        seq: u64,
        /// The encoded image.
        image: &'a [u8],
    },
    /// Consecutive records, oldest first.
    Records {
        /// The sequence of the last record.
        seq: u64,
        /// Each record as `AcWalRecord::to_bytes` wrote it.
        records: Vec<&'a [u8]>,
    },
}

impl<'a> SyncBody<'a> {
    /// Serializes the body (the plaintext to seal).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            SyncBody::Image { seq, image } => {
                w.u64(*seq).u8(SYNC_IMAGE).bytes(image);
            }
            SyncBody::Records { seq, records } => {
                // More records than the prefix can say would fail to parse;
                // the backlog bound keeps a batch far below that.
                let count = u32::try_from(records.len()).unwrap_or(u32::MAX);
                w.u64(*seq).u8(SYNC_RECORDS).u32(count);
                for rec in records {
                    w.bytes(rec);
                }
            }
        }
        w.into_bytes()
    }

    /// Parses an opened body; `None` on any malformed input.
    pub fn from_bytes(bytes: &'a [u8]) -> Option<SyncBody<'a>> {
        crate::wire::parse(bytes, |r| {
            let seq = r.u64()?;
            match r.u8()? {
                SYNC_IMAGE => Ok(SyncBody::Image { seq, image: r.bytes()? }),
                SYNC_RECORDS => {
                    let count = r.u32()? as usize;
                    // Every record costs at least its length prefix: a
                    // count past that is a lie and must not size a Vec.
                    if count > r.remaining() / 4 {
                        return Err(ProtocolError::Malformed("record count exceeds input"));
                    }
                    let mut records = Vec::with_capacity(count);
                    for _ in 0..count {
                        records.push(r.bytes()?);
                    }
                    Ok(SyncBody::Records { seq, records })
                }
                _ => Err(ProtocolError::Malformed("unknown sync body kind")),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let bytes = msg.to_bytes();
        let back = Msg::from_bytes(&bytes).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn sync_bodies_round_trip_and_reject_lying_counts() {
        let image = SyncBody::Image { seq: 7, image: &[1, 2, 3] };
        assert_eq!(SyncBody::from_bytes(&image.to_bytes()), Some(image));
        let records = SyncBody::Records { seq: 9, records: vec![&[4, 5], &[], &[6]] };
        let bytes = records.to_bytes();
        assert_eq!(SyncBody::from_bytes(&bytes), Some(records));
        // Truncation, trailing bytes, an unknown kind, a count no input
        // could hold.
        assert_eq!(SyncBody::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(SyncBody::from_bytes(&[bytes.as_slice(), &[0]].concat()), None);
        assert_eq!(SyncBody::from_bytes(&[0, 0, 0, 0, 0, 0, 0, 1, 2]), None);
        let mut lying = vec![0, 0, 0, 0, 0, 0, 0, 1, SYNC_RECORDS];
        lying.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(SyncBody::from_bytes(&lying), None);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Msg::Join1 { ct: vec![1, 2, 3] });
        round_trip(Msg::Join2 { ct: vec![] });
        round_trip(Msg::Join3 { ct: vec![9; 100] });
        round_trip(Msg::Join4 { ct: vec![1], sig: vec![2; 64] });
        round_trip(Msg::Join5 { ct: vec![3; 500], sig: vec![4; 64] });
        round_trip(Msg::Join6 { ct: vec![5] });
        round_trip(Msg::Join7 { ct: vec![6; 300] });
        round_trip(Msg::Rejoin1 { ct: vec![7] });
        round_trip(Msg::Rejoin2 { ct: vec![8] });
        round_trip(Msg::Rejoin3 { ct: vec![9] });
        round_trip(Msg::Rejoin4 { ct: vec![1], sig: vec![2] });
        round_trip(Msg::Rejoin5 { ct: vec![3], sig: vec![4] });
        round_trip(Msg::Rejoin6 { ct: vec![5], sig: vec![6] });
        round_trip(Msg::RejoinDenied { reason: RejoinDenyReason::BadTicket });
        round_trip(Msg::RejoinDenied { reason: RejoinDenyReason::DeviceMismatch });
        round_trip(Msg::AreaJoinReq { ct: vec![1], sig: vec![2] });
        round_trip(Msg::AreaJoinAck { ct: vec![3], sig: vec![4] });
        round_trip(Msg::KeyUpdate {
            area: AreaId(3),
            epoch: 17,
            body: vec![0xab; 200],
            sig: vec![0xcd; 64],
        });
        round_trip(Msg::KeyUnicast { ct: vec![0xee; 90] });
        round_trip(Msg::KeyRefreshRequest { client: ClientId(5) });
        round_trip(Msg::LeaveRequest { ct: vec![1, 2, 3] });
        round_trip(Msg::Data {
            origin: ClientId(12),
            seq: 99,
            wrapped_key: vec![1; 44],
            payload: vec![2; 1000],
        });
        round_trip(Msg::AcAlive { area: AreaId(1), epoch: 9 });
        round_trip(Msg::MemberAlive { client: ClientId(2) });
        round_trip(Msg::Heartbeat { takeover_epoch: 2 });
        round_trip(Msg::HeartbeatAck {
            takeover_epoch: 3,
            position: SyncPosition { seq: 9, digest: [7; 16] },
        });
        round_trip(Msg::StateSync { ct: vec![1, 2] });
        round_trip(Msg::Takeover {
            area: AreaId(2),
            sig: vec![1; 64],
            pubkey: vec![2; 100],
        });
        round_trip(Msg::Demote {
            area: AreaId(2),
            takeover_epoch: 4,
            sig: vec![3; 64],
        });
    }

    #[test]
    fn garbage_rejected() {
        assert!(Msg::from_bytes(&[]).is_err());
        assert!(Msg::from_bytes(&[255]).is_err());
        assert!(Msg::from_bytes(&[1, 0, 0]).is_err()); // truncated len
        // Trailing garbage after a valid message.
        let mut bytes = Msg::Heartbeat { takeover_epoch: 0 }.to_bytes();
        bytes.push(0);
        assert!(Msg::from_bytes(&bytes).is_err());
    }

    #[test]
    fn kinds_cover_accounting_categories() {
        assert_eq!(Msg::Join1 { ct: vec![] }.kind(), "join");
        assert_eq!(Msg::Rejoin1 { ct: vec![] }.kind(), "rejoin");
        assert_eq!(
            Msg::KeyUpdate {
                area: AreaId(0),
                epoch: 0,
                body: vec![],
                sig: vec![]
            }
            .kind(),
            "key-update"
        );
        assert_eq!(
            Msg::Data {
                origin: ClientId(0),
                seq: 0,
                wrapped_key: vec![],
                payload: vec![]
            }
            .kind(),
            "data"
        );
        assert_eq!(
            Msg::AcAlive { area: AreaId(0), epoch: 0 }.kind(),
            "alive"
        );
        assert_eq!(
            Msg::Heartbeat { takeover_epoch: 0 }.kind(),
            "replication"
        );
    }
}
