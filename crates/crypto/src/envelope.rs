//! Authenticated symmetric envelopes and the hybrid RSA envelope.
//!
//! Two constructions used throughout the Mykil protocol:
//!
//! - [`seal`]/[`open`] — encrypt-then-MAC under a 128-bit
//!   [`SymmetricKey`]: ChaCha20 (keyed by a derived sub-key, random
//!   nonce) followed by HMAC-SHA256 truncated to 16 bytes. Every
//!   `E_K(...)` in the paper's figures (area-key updates, auxiliary-key
//!   distribution, random data keys) is one of these envelopes. A key
//!   used more than once is held as an [`EnvelopeKey`].
//! - [`HybridCiphertext`] — the Section V-D workaround: an RSA block can
//!   hold only ~200 bytes, so the sender wraps a fresh one-time
//!   symmetric key under RSA and seals the actual payload under that
//!   key. Mykil uses this for step 7 of the join protocol and step 6 of
//!   the rejoin protocol, where the auxiliary-key path does not fit in
//!   one block.

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

use crate::hmac::{HmacSha256, Tag};
use crate::keys::SymmetricKey;
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::{chacha::ChaCha20, CryptoError, SYMMETRIC_KEY_LEN};
use rand::RngCore;

/// Truncated MAC length for symmetric envelopes (16 bytes, matching the
/// paper's 128-bit security level for symmetric material).
pub const ENVELOPE_MAC_LEN: usize = 16;

/// Nonce length prepended to each envelope.
pub const ENVELOPE_NONCE_LEN: usize = 12;

/// Fixed per-message overhead of [`seal`] in bytes.
pub const ENVELOPE_OVERHEAD: usize = ENVELOPE_NONCE_LEN + ENVELOPE_MAC_LEN;

/// A [`SymmetricKey`] prepared for envelopes: the derived cipher
/// sub-key and the keyed MAC context of the derived MAC sub-key.
///
/// This is the one implementation of sealing and opening; the free
/// [`seal`] / [`open`] functions prepare a key, use it once and drop
/// it. Preparing costs eight SHA-256 compressions (two to key the
/// derivation, two per sub-key, two to key the MAC); a 16-byte key
/// envelope then costs two. Whoever holds a key across calls — a
/// member's protecting keys, `K_shared` for tickets, a replication key
/// — holds one of these. 80 bytes, wiped on drop by its two fields.
#[derive(Debug, Clone)]
pub struct EnvelopeKey {
    enc: SymmetricKey,
    mac: HmacSha256,
}

impl EnvelopeKey {
    /// Derives the envelope sub-keys of `key`.
    pub fn new(key: &SymmetricKey) -> Self {
        let kdf = HmacSha256::new(key.as_bytes());
        let mac_key = SymmetricKey::derive_with(&kdf, b"mykil-envelope-mac");
        EnvelopeKey {
            enc: SymmetricKey::derive_with(&kdf, b"mykil-envelope-enc"),
            mac: HmacSha256::new(mac_key.as_bytes()),
        }
    }

    fn cipher(&self, nonce: &[u8; ENVELOPE_NONCE_LEN]) -> ChaCha20 {
        let mut k32 = [0u8; 32];
        #[expect(
            clippy::disallowed_methods,
            reason = "compile-time halves of a [u8; 32]"
        )]
        k32[..SYMMETRIC_KEY_LEN].copy_from_slice(self.enc.as_bytes());
        #[expect(
            clippy::disallowed_methods,
            reason = "compile-time halves of a [u8; 32]"
        )]
        k32[SYMMETRIC_KEY_LEN..].copy_from_slice(self.enc.as_bytes());
        ChaCha20::new(&k32, nonce, 0)
    }

    /// Seals `plaintext`: `nonce || ciphertext || mac`.
    pub fn seal<R: RngCore + ?Sized>(&self, plaintext: &[u8], rng: &mut R) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + ENVELOPE_OVERHEAD);
        self.seal_into(plaintext, rng, &mut out);
        out
    }

    /// [`seal`](Self::seal), appending the envelope to `out` instead of
    /// allocating.
    ///
    /// Encryption and MAC computation run in place on the appended
    /// bytes, so a caller that reuses `out` across messages (the rekey
    /// hot path seals one 44-byte envelope per key copy) performs no
    /// per-envelope allocations once the buffer has warmed up.
    pub fn seal_into<R: RngCore + ?Sized>(
        &self,
        plaintext: &[u8],
        rng: &mut R,
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.reserve(plaintext.len() + ENVELOPE_OVERHEAD);
        let mut nonce = [0u8; ENVELOPE_NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        let body_start = start + ENVELOPE_NONCE_LEN;
        #[expect(
            clippy::indexing_slicing,
            reason = "body_start <= out.len() by the appends above"
        )]
        self.cipher(&nonce).apply_keystream(&mut out[body_start..]);
        // `nonce || body` is contiguous in `out`.
        #[expect(clippy::indexing_slicing, reason = "start was out.len() at entry")]
        let tag = self.mac.tag(&out[start..]).truncate::<ENVELOPE_MAC_LEN>();
        out.extend_from_slice(&tag.into_bytes());
    }

    /// Opens an envelope produced by [`seal`](Self::seal).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EnvelopeError`] on truncation and
    /// [`CryptoError::VerificationFailed`] when the MAC does not match
    /// (wrong key or tampering).
    pub fn open(&self, envelope: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let (nonce, body) = self.verify(envelope)?;
        let mut plain = body.to_vec();
        self.cipher(&nonce).apply_keystream(&mut plain);
        Ok(plain)
    }

    /// Opens an envelope whose plaintext must be exactly `N` bytes,
    /// without allocating (the rekey apply path opens 16-byte key
    /// envelopes by the thousand).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EnvelopeError`] when the envelope length
    /// does not match an `N`-byte plaintext, and
    /// [`CryptoError::VerificationFailed`] when the MAC does not match.
    pub fn open_fixed<const N: usize>(&self, envelope: &[u8]) -> Result<[u8; N], CryptoError> {
        if envelope.len() != N + ENVELOPE_OVERHEAD {
            return Err(CryptoError::EnvelopeError("envelope length mismatch"));
        }
        let (nonce, body) = self.verify(envelope)?;
        let mut plain: [u8; N] = body
            .try_into()
            .map_err(|_| CryptoError::EnvelopeError("envelope length mismatch"))?;
        self.cipher(&nonce).apply_keystream(&mut plain);
        Ok(plain)
    }

    /// Checks the MAC and splits an envelope into `(nonce, ciphertext)`.
    fn verify<'a>(
        &self,
        envelope: &'a [u8],
    ) -> Result<([u8; ENVELOPE_NONCE_LEN], &'a [u8]), CryptoError> {
        const TRUNCATED: CryptoError = CryptoError::EnvelopeError("envelope truncated");
        let body_len = envelope
            .len()
            .checked_sub(ENVELOPE_OVERHEAD)
            .ok_or(TRUNCATED)?;
        // `nonce || body` is what the MAC covers, and it is contiguous.
        let (signed, tag) = envelope
            .split_at_checked(ENVELOPE_NONCE_LEN + body_len)
            .ok_or(TRUNCATED)?;
        let expected = self.mac.tag(signed).truncate::<ENVELOPE_MAC_LEN>();
        if !expected.ct_eq(tag) {
            return Err(CryptoError::VerificationFailed);
        }
        let (nonce, body) = signed
            .split_first_chunk::<ENVELOPE_NONCE_LEN>()
            .ok_or(TRUNCATED)?;
        Ok((*nonce, body))
    }
}

/// Seals `plaintext` under `key`: `nonce || ciphertext || mac`.
pub fn seal<R: RngCore + ?Sized>(key: &SymmetricKey, plaintext: &[u8], rng: &mut R) -> Vec<u8> {
    EnvelopeKey::new(key).seal(plaintext, rng)
}

/// [`seal`], appending the envelope to `out` instead of allocating.
pub fn seal_into<R: RngCore + ?Sized>(
    key: &SymmetricKey,
    plaintext: &[u8],
    rng: &mut R,
    out: &mut Vec<u8>,
) {
    EnvelopeKey::new(key).seal_into(plaintext, rng, out);
}

/// Opens an envelope produced by [`seal`].
///
/// # Errors
///
/// As [`EnvelopeKey::open`].
pub fn open(key: &SymmetricKey, envelope: &[u8]) -> Result<Vec<u8>, CryptoError> {
    EnvelopeKey::new(key).open(envelope)
}

/// Opens an envelope whose plaintext must be exactly `N` bytes,
/// without allocating.
///
/// # Errors
///
/// As [`EnvelopeKey::open_fixed`].
pub fn open_fixed<const N: usize>(
    key: &SymmetricKey,
    envelope: &[u8],
) -> Result<[u8; N], CryptoError> {
    EnvelopeKey::new(key).open_fixed(envelope)
}

/// A hybrid RSA + symmetric ciphertext (the paper's one-time-key
/// workaround for the RSA block-size limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridCiphertext {
    /// RSA-OAEP encryption of the one-time symmetric key.
    wrapped_key: Vec<u8>,
    /// Symmetric envelope of the payload under the one-time key.
    sealed_payload: Vec<u8>,
}

impl HybridCiphertext {
    /// Encrypts `plaintext` of any length to `recipient`.
    ///
    /// # Errors
    ///
    /// Propagates RSA errors (practically impossible for ≥768-bit keys,
    /// since only a 16-byte key is RSA-encrypted).
    pub fn encrypt<R: RngCore + ?Sized>(
        recipient: &RsaPublicKey,
        plaintext: &[u8],
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        let one_time = SymmetricKey::random(rng);
        let wrapped_key = recipient.encrypt(one_time.as_bytes(), rng)?;
        let sealed_payload = seal(&one_time, plaintext, rng);
        Ok(HybridCiphertext {
            wrapped_key,
            sealed_payload,
        })
    }

    /// Decrypts with the recipient's key pair.
    ///
    /// # Errors
    ///
    /// Returns padding/MAC errors when the wrong key is used or the
    /// ciphertext was modified.
    pub fn decrypt(&self, pair: &RsaKeyPair) -> Result<Vec<u8>, CryptoError> {
        let key_bytes = pair.decrypt(&self.wrapped_key)?;
        let key_arr: [u8; SYMMETRIC_KEY_LEN] = key_bytes
            .as_slice()
            .try_into()
            .map_err(|_| CryptoError::EnvelopeError("wrapped key has wrong length"))?;
        open(&SymmetricKey::from_bytes(key_arr), &self.sealed_payload)
    }

    /// Total size on the wire.
    pub fn wire_len(&self) -> usize {
        self.wrapped_key.len() + self.sealed_payload.len()
    }

    /// Serializes as `len(wrapped) || wrapped || payload`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len() + 4);
        // A wrapped key is one RSA block (≤ modulus size); a value that
        // does not fit the prefix cannot be constructed, and try_from
        // keeps the impossible case loud instead of truncating.
        let klen = u32::try_from(self.wrapped_key.len())
            .expect("RSA-wrapped key length fits a u32 prefix");
        out.extend_from_slice(&klen.to_be_bytes());
        out.extend_from_slice(&self.wrapped_key);
        out.extend_from_slice(&self.sealed_payload);
        out
    }

    /// Parses the [`Self::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EnvelopeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (len_bytes, rest) = bytes
            .split_at_checked(4)
            .ok_or(CryptoError::EnvelopeError("hybrid ciphertext truncated"))?;
        let len_arr: [u8; 4] = len_bytes
            .try_into()
            .map_err(|_| CryptoError::EnvelopeError("hybrid ciphertext truncated"))?;
        let klen = u32::from_be_bytes(len_arr) as usize;
        if rest.len() < klen + ENVELOPE_OVERHEAD {
            return Err(CryptoError::EnvelopeError("hybrid ciphertext truncated"));
        }
        let (wrapped, sealed) = rest
            .split_at_checked(klen)
            .ok_or(CryptoError::EnvelopeError("hybrid ciphertext truncated"))?;
        Ok(HybridCiphertext {
            wrapped_key: wrapped.to_vec(),
            sealed_payload: sealed.to_vec(),
        })
    }
}

/// Computes the paper-style MAC over a set of message fields
/// (used by protocol implementations to MAC "the first N pieces of
/// information" as each figure specifies).
pub fn mac_fields(key: &SymmetricKey, fields: &[&[u8]]) -> Tag<32> {
    let mut mac = HmacSha256::new(key.as_bytes()).start();
    for f in fields {
        // Fields come from already-parsed frames (each capped well
        // below 4 GiB); try_from keeps the impossible overflow loud
        // instead of silently colliding two different field splits.
        let flen = u32::try_from(f.len()).expect("MAC field length fits a u32 prefix");
        mac.update(&flen.to_be_bytes());
        mac.update(f);
    }
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    fn key() -> SymmetricKey {
        SymmetricKey::from_label("test-key")
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Three envelopes recorded from the free functions at commit
    /// `6ddafa1`, before `EnvelopeKey` existed: a held key must put the
    /// same bytes on the wire, and so must the functions built on it.
    #[test]
    fn envelope_key_output_is_byte_identical_to_the_recorded_envelopes() {
        const RECORDED: [&str; 3] = [
            "dff379edb6d86f1ba5f97aecf93004fcd7d2bc7d9c31c6111d99b25c",
            "4ce0032301f3df50531152d5dfef14f4978984e9ff8657d0e12c280d1189bc4e82020d3ae15c698945bb3454",
            "f8aa489be37ba513d8d3fc03795cc04fd7aa91907e6f18c6192e99fecbfef927174fdfe63f037fd33c385835\
             a2da042befc91c3d7185642b5aa28e6e1886385eaef31e5799766ecec68b605db438ac0a227984ffec7619a1\
             4718769ff0b60d022ffb1e5386ed37cc22149eacd7e2db33ce7bb70d71502be9ba0665eeafa319fe",
        ];
        let key = SymmetricKey::from_label("golden-envelope");
        let held = EnvelopeKey::new(&key);
        let long: Vec<u8> = (0..100u32).map(|i| (i * 7 + 3) as u8).collect();
        let messages = [&b""[..], &[0xa5u8; 16][..], &long[..]];
        let (mut rng_held, mut rng_free) = (Drbg::from_seed(0x65_6e76), Drbg::from_seed(0x65_6e76));
        for (msg, want) in messages.into_iter().zip(RECORDED) {
            let env = held.seal(msg, &mut rng_held);
            assert_eq!(hex(&env), want);
            assert_eq!(seal(&key, msg, &mut rng_free), env);
            assert_eq!(held.open(&env).unwrap(), msg);
            assert_eq!(open(&key, &env).unwrap(), msg);
        }
    }

    #[test]
    fn seal_open_round_trip() {
        let mut rng = Drbg::from_seed(1);
        for len in [0usize, 1, 16, 100, 5000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let env = seal(&key(), &msg, &mut rng);
            assert_eq!(env.len(), len + ENVELOPE_OVERHEAD);
            assert_eq!(open(&key(), &env).unwrap(), msg, "len={len}");
        }
    }

    #[test]
    fn seal_into_appends_and_matches_open() {
        let mut rng = Drbg::from_seed(11);
        let mut buf = vec![0xEE; 7]; // pre-existing bytes must survive
        seal_into(&key(), b"sixteen byte key", &mut rng, &mut buf);
        assert_eq!(&buf[..7], &[0xEE; 7]);
        let env = &buf[7..];
        assert_eq!(env.len(), 16 + ENVELOPE_OVERHEAD);
        assert_eq!(open(&key(), env).unwrap(), b"sixteen byte key");
        assert_eq!(open_fixed::<16>(&key(), env).unwrap(), *b"sixteen byte key");
    }

    #[test]
    fn open_fixed_rejects_wrong_length_and_tampering() {
        let mut rng = Drbg::from_seed(12);
        let env = seal(&key(), &[0x42; 16], &mut rng);
        assert_eq!(open_fixed::<16>(&key(), &env).unwrap(), [0x42; 16]);
        // Length mismatch: a 17-byte plaintext cannot be a key envelope.
        assert_eq!(
            open_fixed::<16>(&key(), &seal(&key(), &[0x42; 17], &mut rng)),
            Err(CryptoError::EnvelopeError("envelope length mismatch"))
        );
        // Tampering still caught by the MAC.
        let mut bad = env.clone();
        bad[ENVELOPE_NONCE_LEN] ^= 1;
        assert_eq!(
            open_fixed::<16>(&key(), &bad),
            Err(CryptoError::VerificationFailed)
        );
        // Wrong key.
        assert_eq!(
            open_fixed::<16>(&SymmetricKey::from_label("other"), &env),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = Drbg::from_seed(2);
        let env = seal(&key(), b"area key update", &mut rng);
        let other = SymmetricKey::from_label("other");
        assert_eq!(
            open(&other, &env),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn tampering_rejected_everywhere() {
        let mut rng = Drbg::from_seed(3);
        let env = seal(&key(), b"auxiliary keys", &mut rng);
        for i in 0..env.len() {
            let mut bad = env.clone();
            bad[i] ^= 0x01;
            assert!(open(&key(), &bad).is_err(), "byte {i} flip accepted");
        }
    }

    #[test]
    fn truncated_envelope_rejected() {
        let mut rng = Drbg::from_seed(4);
        let env = seal(&key(), b"x", &mut rng);
        assert!(open(&key(), &env[..ENVELOPE_OVERHEAD - 1]).is_err());
        assert!(open(&key(), &[]).is_err());
    }

    #[test]
    fn envelopes_are_randomized() {
        let mut rng = Drbg::from_seed(5);
        let a = seal(&key(), b"same", &mut rng);
        let b = seal(&key(), b"same", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn hybrid_round_trip_large_payload() {
        let pair = crate::rsa::test_keys::pair768();
        let mut rng = Drbg::from_seed(6);
        // Larger than any RSA block: the aux-key path scenario.
        let payload: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let ct = HybridCiphertext::encrypt(pair.public(), &payload, &mut rng).unwrap();
        assert_eq!(ct.decrypt(pair).unwrap(), payload);
    }

    #[test]
    fn hybrid_wrong_recipient_fails() {
        let pair = crate::rsa::test_keys::pair768();
        let other = crate::rsa::test_keys::pair768_b();
        let mut rng = Drbg::from_seed(7);
        let ct = HybridCiphertext::encrypt(pair.public(), b"ticket", &mut rng).unwrap();
        assert!(ct.decrypt(other).is_err());
    }

    #[test]
    fn hybrid_bytes_round_trip() {
        let pair = crate::rsa::test_keys::pair768();
        let mut rng = Drbg::from_seed(8);
        let ct = HybridCiphertext::encrypt(pair.public(), b"payload", &mut rng).unwrap();
        let back = HybridCiphertext::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(ct, back);
        assert!(HybridCiphertext::from_bytes(&[1, 2]).is_err());
        assert!(HybridCiphertext::from_bytes(&[0, 0, 1, 0, 5]).is_err());
    }

    #[test]
    fn mac_fields_sensitive_to_boundaries() {
        let k = key();
        // ("ab","c") must differ from ("a","bc") — length prefixes matter.
        let t1 = mac_fields(&k, &[b"ab", b"c"]);
        let t2 = mac_fields(&k, &[b"a", b"bc"]);
        assert!(!t1.ct_eq(&t2.into_bytes()));
        assert!(t1.ct_eq(&mac_fields(&k, &[b"ab", b"c"]).into_bytes()));
    }
}
