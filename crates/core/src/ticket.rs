//! Tickets: the "ski pass" that makes Mykil mobility cheap.
//!
//! Section IV-B of the paper: a member receives a ticket at join time
//! (step 7). To move to another area it presents the ticket to the new
//! area's controller instead of re-running the full registration. The
//! ticket embeds join time, validity period, the member's identity, the
//! MAC address of its NIC, its public key, and the id of the last area
//! controller — all sealed under `K_shared`, a symmetric key shared by
//! every area controller, so no client can read or forge one ("all ski
//! resorts scan the same bar code").

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
use crate::identity::{AreaId, ClientId, DeviceId};
use crate::wire::{Reader, Writer};
use mykil_crypto::envelope::EnvelopeKey;
use mykil_net::Time;
use rand::RngCore;

/// The plaintext contents of a ticket (visible only to area
/// controllers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ticket {
    /// When the member first joined the group.
    pub join_time: Time,
    /// Expiry instant — after this the member must re-register.
    pub valid_until: Time,
    /// The member's group-wide identity.
    pub client: ClientId,
    /// The NIC address the ticket is bound to (Section IV-B option 2).
    pub device: DeviceId,
    /// The member's RSA public key (encoded).
    pub public_key: Vec<u8>,
    /// The area the member last belonged to.
    pub last_area: AreaId,
    /// Simulator address of that area's controller.
    pub last_ac: u32,
}

/// A ticket sealed under `K_shared`: opaque bytes to everyone but ACs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedTicket(pub Vec<u8>);

impl Ticket {
    /// Whether the ticket is still within its validity period.
    pub fn is_valid_at(&self, now: Time) -> bool {
        now <= self.valid_until
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.join_time.as_micros())
            .u64(self.valid_until.as_micros())
            .u64(self.client.0)
            .raw(self.device.as_bytes())
            .bytes(&self.public_key)
            .u32(self.last_area.0)
            .u32(self.last_ac);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Ticket, ProtocolError> {
        let mut r = Reader::new(bytes);
        let ticket = Ticket {
            join_time: Time::from_micros(r.u64()?),
            valid_until: Time::from_micros(r.u64()?),
            client: ClientId(r.u64()?),
            device: DeviceId(r.array::<6>()?),
            public_key: r.bytes()?.to_vec(),
            last_area: AreaId(r.u32()?),
            last_ac: r.u32()?,
        };
        r.finish()?;
        Ok(ticket)
    }

    /// Seals the ticket under `K_shared` (encrypt-then-MAC), producing
    /// the opaque blob handed to the member.
    pub fn seal<R: RngCore + ?Sized>(&self, k_shared: &EnvelopeKey, rng: &mut R) -> SealedTicket {
        SealedTicket(k_shared.seal(&self.to_bytes(), rng))
    }
}

impl SealedTicket {
    /// Opens and authenticates a sealed ticket. Only holders of
    /// `K_shared` (area controllers) can do this.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidTicket`] when the MAC fails (forged or
    /// corrupted) or the contents do not parse.
    pub fn open(&self, k_shared: &EnvelopeKey) -> Result<Ticket, ProtocolError> {
        let plain = k_shared
            .open(&self.0)
            .map_err(|_| ProtocolError::InvalidTicket("seal verification failed"))?;
        Ticket::from_bytes(&plain).map_err(|_| ProtocolError::InvalidTicket("malformed contents"))
    }

    /// Size on the wire.
    pub fn wire_len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;
    use mykil_crypto::keys::SymmetricKey;

    fn sample() -> Ticket {
        Ticket {
            join_time: Time::from_secs(100),
            valid_until: Time::from_secs(100 + 86_400),
            client: ClientId(42),
            device: DeviceId::from_seed(42),
            public_key: vec![7u8; 100],
            last_area: AreaId(3),
            last_ac: 17,
        }
    }

    fn k_shared() -> EnvelopeKey {
        EnvelopeKey::new(&SymmetricKey::from_label("k-shared-test"))
    }

    #[test]
    fn seal_open_round_trip() {
        let mut rng = Drbg::from_seed(1);
        let t = sample();
        let sealed = t.seal(&k_shared(), &mut rng);
        let opened = sealed.open(&k_shared()).unwrap();
        assert_eq!(opened, t);
    }

    #[test]
    fn wrong_shared_key_rejected() {
        let mut rng = Drbg::from_seed(2);
        let sealed = sample().seal(&k_shared(), &mut rng);
        let other = EnvelopeKey::new(&SymmetricKey::from_label("not-k-shared"));
        assert!(matches!(
            sealed.open(&other),
            Err(ProtocolError::InvalidTicket(_))
        ));
    }

    #[test]
    fn tampering_anywhere_is_detected() {
        let mut rng = Drbg::from_seed(3);
        let sealed = sample().seal(&k_shared(), &mut rng);
        for i in (0..sealed.0.len()).step_by(7) {
            let mut bad = sealed.clone();
            bad.0[i] ^= 0x40;
            assert!(bad.open(&k_shared()).is_err(), "byte {i} flip accepted");
        }
    }

    #[test]
    fn clients_cannot_read_their_ticket() {
        // The sealed blob must not contain the plaintext fields.
        let mut rng = Drbg::from_seed(4);
        let t = sample();
        let sealed = t.seal(&k_shared(), &mut rng);
        let plain = t.to_bytes();
        // No 8-byte window of the plaintext appears in the sealed blob.
        for window in plain.windows(8) {
            assert!(
                !sealed.0.windows(8).any(|w| w == window),
                "plaintext leaked into sealed ticket"
            );
        }
    }

    #[test]
    fn validity_window() {
        let t = sample();
        assert!(!t.is_valid_at(Time::from_secs(100 + 86_400 + 1)));
        assert!(t.is_valid_at(Time::from_secs(100 + 86_400)));
        assert!(t.is_valid_at(Time::from_secs(500)));
    }

    #[test]
    fn sealing_is_randomized() {
        let mut rng = Drbg::from_seed(5);
        let a = sample().seal(&k_shared(), &mut rng);
        let b = sample().seal(&k_shared(), &mut rng);
        assert_ne!(a, b, "two seals of the same ticket must differ");
        assert_eq!(a.open(&k_shared()).unwrap(), b.open(&k_shared()).unwrap());
    }
}
