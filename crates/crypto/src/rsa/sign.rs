//! RSASSA signatures: SHA-256 hash-then-sign with PKCS#1 v1.5 layout.
//!
//! Mykil signs key-update multicasts and the registration-server /
//! area-controller handshake messages (`Sig_Prv_rs`, `Sig_Prv_ac` in
//! Figures 3 and 7) with exactly this construction.

use super::{RsaKeyPair, RsaPublicKey};
use crate::bignum::{limb_byte, BigUint};
use crate::sha256::{Sha256, DIGEST_LEN};

/// DER prefix of the `DigestInfo` structure for SHA-256
/// (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
    0x05, 0x00, 0x04, 0x20,
];

/// The EMSA-PKCS1-v1_5 encoded message for `digest` in a `k`-byte
/// block, byte by byte, or `None` when the block is too small to hold
/// it: `0x00 0x01 PS(0xff…, ≥ 8 bytes) 0x00 DigestInfo digest`.
fn emsa_bytes(
    digest: &[u8; DIGEST_LEN],
    k: usize,
) -> Option<impl DoubleEndedIterator<Item = u8> + '_> {
    let ps_len = k.checked_sub(SHA256_DIGEST_INFO.len() + DIGEST_LEN + 3)?;
    if ps_len < 8 {
        return None;
    }
    Some(
        [0x00, 0x01]
            .into_iter()
            .chain(std::iter::repeat_n(0xff, ps_len))
            .chain([0x00])
            .chain(SHA256_DIGEST_INFO)
            .chain(digest.iter().copied()),
    )
}

impl RsaKeyPair {
    /// Signs `message`, returning a `block_len()`-byte signature.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is too small to hold the encoded digest
    /// (under 62 bytes; the protocol's smallest key is 768 bits).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        self.sign_digest(&Sha256::digest(message))
    }

    /// [`sign`](Self::sign) for a caller that hashed the message itself
    /// — a signed frame streams its fields into one [`Sha256`] instead
    /// of concatenating them first.
    ///
    /// # Panics
    ///
    /// As [`sign`](Self::sign).
    pub fn sign_digest(&self, digest: &[u8; DIGEST_LEN]) -> Vec<u8> {
        let k = self.public().block_len();
        let em: Vec<u8> = emsa_bytes(digest, k)
            .expect("modulus holds an encoded SHA-256 digest")
            .collect();
        let m_int = BigUint::from_bytes_be(&em);
        let s_int = self
            .raw_private_op(&m_int)
            .expect("encoded message below modulus");
        s_int
            .to_bytes_be_padded(k)
            .expect("signature fits block length")
    }
}

impl RsaPublicKey {
    /// Verifies a signature produced by [`RsaKeyPair::sign`].
    ///
    /// Returns `false` for any malformed, truncated, or forged input;
    /// never panics on attacker-controlled bytes.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        self.verify_digest(&Sha256::digest(message), signature)
    }

    /// [`verify`](Self::verify) against the digest of the message, the
    /// mirror of [`RsaKeyPair::sign_digest`].
    pub fn verify_digest(&self, digest: &[u8; DIGEST_LEN], signature: &[u8]) -> bool {
        let k = self.block_len();
        if signature.len() != k {
            return false;
        }
        let Some(expected) = emsa_bytes(digest, k) else {
            return false;
        };
        let Ok(em) = self.public_op(signature) else {
            return false;
        };
        // Compare against the one valid encoding in full, with no early
        // exit, which avoids the classic BER-parsing forgery pitfalls:
        // nothing of `em` is parsed. Walked from the low byte up, as the
        // limbs lie; `em < n` leaves nothing above byte `k`.
        expected
            .rev()
            .enumerate()
            .fold(0, |diff, (i, b)| diff | (b ^ limb_byte(&em, i)))
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_keys::{pair768, pair768_b};
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let pair = pair768();
        let sig = pair.sign(b"key update #42");
        assert_eq!(sig.len(), pair.public().block_len());
        assert!(pair.public().verify(b"key update #42", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let pair = pair768();
        assert_eq!(pair.sign(b"m"), pair.sign(b"m"));
    }

    #[test]
    fn tampered_message_rejected() {
        let pair = pair768();
        let sig = pair.sign(b"original");
        assert!(!pair.public().verify(b"0riginal", &sig));
        assert!(!pair.public().verify(b"", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let pair = pair768();
        let mut sig = pair.sign(b"msg");
        sig[0] ^= 1;
        assert!(!pair.public().verify(b"msg", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = pair768().sign(b"msg");
        assert!(!pair768_b().public().verify(b"msg", &sig));
    }

    #[test]
    fn garbage_inputs_do_not_panic() {
        let pk = pair768().public();
        assert!(!pk.verify(b"msg", &[]));
        assert!(!pk.verify(b"msg", &[0u8; 5]));
        assert!(!pk.verify(b"msg", &vec![0xffu8; pk.block_len()]));
        assert!(!pk.verify(b"msg", &vec![0u8; pk.block_len() + 1]));
    }

    #[test]
    fn digest_variants_match_the_message_variants() {
        let pair = pair768();
        let digest = Sha256::digest(b"area || epoch || body");
        let sig = pair.sign(b"area || epoch || body");
        assert_eq!(pair.sign_digest(&digest), sig);
        assert!(pair.public().verify_digest(&digest, &sig));
        assert!(!pair.public().verify_digest(&Sha256::digest(b"other"), &sig));
    }

    #[test]
    fn a_modulus_too_small_for_the_encoding_verifies_nothing() {
        // 256 bits is a legal public key but cannot hold the 62-byte
        // encoding; this used to underflow a length instead.
        let mut rng = crate::drbg::Drbg::from_seed(5);
        let tiny = RsaKeyPair::generate(256, &mut rng).unwrap();
        assert!(!tiny.public().verify(b"msg", &[0x01; 32]));
    }

    /// The private operation on an arbitrary `k`-byte block: what a
    /// forger who somehow held the key — or found a root — could present.
    fn raw_sign(pair: &RsaKeyPair, block: &[u8]) -> Vec<u8> {
        pair.raw_private_op(&BigUint::from_bytes_be(block))
            .unwrap()
            .to_bytes_be_padded(block.len())
            .unwrap()
    }

    /// Under a small exponent a verifier that *parses* the block — skips
    /// the padding, reads a DigestInfo, ignores what follows — accepts
    /// forged cube (or 17th) roots (Bleichenbacher, CRYPTO 2006 rump
    /// session). This one compares all `k` bytes, so even blocks signed
    /// with the real private key are refused unless they are the one
    /// valid encoding.
    #[test]
    fn only_the_one_valid_encoding_verifies() {
        let pair = pair768();
        let k = pair.public().block_len();
        let digest = Sha256::digest(b"key update");
        let good: Vec<u8> = emsa_bytes(&digest, k).unwrap().collect();
        assert!(pair.public().verify_digest(&digest, &raw_sign(pair, &good)));

        // (a) Padding shortened, the freed bytes left as garbage after
        // the digest: the lax parser's forgery.
        let t_len = 1 + SHA256_DIGEST_INFO.len() + DIGEST_LEN;
        let mut short_ps = vec![0x00, 0x01];
        short_ps.resize(2 + 8, 0xff);
        short_ps.extend_from_slice(&good[k - t_len..]);
        short_ps.resize(k, 0xA5);
        // (b) Block type 2 (the encryption padding) in place of type 1.
        let mut type_two = good.clone();
        type_two[1] = 0x02;
        // (c) A DigestInfo naming another hash (SHA-512's OID byte).
        let mut wrong_oid = good.clone();
        wrong_oid[k - DIGEST_LEN - 5] = 0x03;
        for (what, block) in [
            ("short padding", &short_ps),
            ("block type", &type_two),
            ("digest info", &wrong_oid),
        ] {
            assert_ne!(block, &good, "{what}");
            let forged = raw_sign(pair, block);
            assert!(!pair.public().verify_digest(&digest, &forged), "{what}");
        }
    }

    #[test]
    fn a_signature_not_below_the_modulus_is_rejected() {
        // (d) `s + n` opens to the same block as `s`; only the range
        // check tells them apart. Some message's signature leaves room
        // for the sum in `k` bytes.
        let pair = pair768();
        let n = pair.public().modulus();
        let k = pair.public().block_len();
        let (msg, wide) = (0u32..)
            .find_map(|i| {
                let msg = i.to_be_bytes();
                let s = BigUint::from_bytes_be(&pair.sign(&msg));
                Some((msg, (&s + n).to_bytes_be_padded(k).ok()?))
            })
            .unwrap();
        assert!(pair.public().verify(&msg, &pair.sign(&msg)));
        assert!(!pair.public().verify(&msg, &wide));
        assert!(!pair.public().verify(&msg, &n.to_bytes_be()));
    }

    #[test]
    fn a_signature_of_another_length_is_rejected() {
        // Same number, one byte wider; and one byte short.
        let pair = pair768();
        let sig = pair.sign(b"msg");
        let wider = [&[0x00][..], &sig].concat();
        assert!(!pair.public().verify(b"msg", &wider));
        assert!(!pair.public().verify(b"msg", &sig[1..]));
        assert!(!pair.public().verify(b"msg", &sig[..sig.len() - 1]));
    }

    #[test]
    fn emsa_layout() {
        let digest = Sha256::digest(b"x");
        let em: Vec<u8> = emsa_bytes(&digest, 96).unwrap().collect();
        assert_eq!(em.len(), 96);
        assert_eq!(&em[..2], &[0x00, 0x01]);
        assert_eq!(em[96 - DIGEST_LEN - SHA256_DIGEST_INFO.len() - 1], 0x00);
        assert_eq!(&em[96 - DIGEST_LEN..], &digest);
    }
}
