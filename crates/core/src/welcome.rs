//! The "welcome" payload an area controller sends a newly admitted
//! member — the encrypted body of join step 7 and rejoin step 6.
//!
//! Per Figure 3 it carries the auxiliary keys on the member's path and
//! the ticket; this implementation also carries the addressing details
//! a member needs in the simulated network (multicast group, AC and
//! backup addresses) that a real deployment would get from IP multicast
//! configuration.

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

use crate::error::ProtocolError;
use crate::identity::{AreaId, ClientId};
use crate::rekey::{decode_path, encode_path};
use crate::wire::{Reader, Writer};
use mykil_crypto::keys::SymmetricKey;

/// Everything a member learns upon admission to an area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// Echo of the client's challenge nonce plus one (`Nonce_CA + 1`);
    /// zero in rejoin step 6, where the signature authenticates the AC.
    pub nonce_echo: u64,
    /// The member's group-wide identity.
    pub client: ClientId,
    /// The area joined.
    pub area: AreaId,
    /// Simulator multicast group of the area.
    pub group_raw: u32,
    /// The area controller's address.
    pub ac_node: u32,
    /// The pair's other controller, standing by (`u32::MAX` when
    /// unreplicated).
    pub backup_node: u32,
    /// The standby controller's public key (empty when unreplicated).
    pub backup_pubkey: Vec<u8>,
    /// The member's sealed ticket.
    pub ticket: Vec<u8>,
    /// Auxiliary keys on the member's path, leaf first.
    pub path: Vec<(u32, SymmetricKey)>,
    /// Current rekey epoch of the area.
    pub epoch: u64,
    /// When the membership (and ticket) expires, in microseconds of
    /// virtual time — the client knows its subscription period
    /// (Section III-B: the authorization carries "the time period the
    /// client wants to stay as a member").
    pub valid_until_us: u64,
}

impl Welcome {
    /// Serializes the welcome payload (it is then hybrid-encrypted to
    /// the member).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.nonce_echo)
            .u64(self.client.0)
            .u32(self.area.0)
            .u32(self.group_raw)
            .u32(self.ac_node)
            .u32(self.backup_node)
            .bytes(&self.backup_pubkey)
            .bytes(&self.ticket)
            .bytes(&encode_path(&self.path))
            .u64(self.epoch)
            .u64(self.valid_until_us);
        w.into_bytes()
    }

    /// Parses a welcome payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Welcome, ProtocolError> {
        let mut r = Reader::new(bytes);
        let welcome = Welcome {
            nonce_echo: r.u64()?,
            client: ClientId(r.u64()?),
            area: AreaId(r.u32()?),
            group_raw: r.u32()?,
            ac_node: r.u32()?,
            backup_node: r.u32()?,
            backup_pubkey: r.bytes()?.to_vec(),
            ticket: r.bytes()?.to_vec(),
            path: decode_path(r.bytes()?)?,
            epoch: r.u64()?,
            valid_until_us: r.u64()?,
        };
        r.finish()?;
        Ok(welcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Welcome {
        Welcome {
            nonce_echo: 99,
            client: ClientId(7),
            area: AreaId(2),
            group_raw: 3,
            ac_node: 11,
            backup_node: 12,
            backup_pubkey: vec![5; 30],
            ticket: vec![9; 80],
            path: vec![
                (14, SymmetricKey::from_label("leaf")),
                (3, SymmetricKey::from_label("aux")),
                (0, SymmetricKey::from_label("area")),
            ],
            epoch: 4,
            valid_until_us: 1_000_000,
        }
    }

    #[test]
    fn round_trip() {
        let w = sample();
        assert_eq!(Welcome::from_bytes(&w.to_bytes()).unwrap(), w);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(Welcome::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn unreplicated_form() {
        let mut w = sample();
        w.backup_node = u32::MAX;
        w.backup_pubkey = Vec::new();
        let back = Welcome::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(back.backup_node, u32::MAX);
        assert!(back.backup_pubkey.is_empty());
    }
}
