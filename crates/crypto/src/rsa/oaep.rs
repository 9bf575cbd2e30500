//! RSAES-OAEP encryption (RFC 8017 §7.1 with MGF1-SHA256).
//!
//! A single RSA block holds at most `k - 2·hLen - 2` plaintext bytes
//! (190 bytes for a 2048-bit key with SHA-256). The paper hit the same
//! wall with OpenSSL's 215-byte limit and worked around it by wrapping a
//! one-time symmetric key; [`crate::envelope::HybridCiphertext`]
//! implements that workaround.

use super::{RsaKeyPair, RsaPublicKey};
use crate::bignum::{limbs_to_be, BigUint};
use crate::sha256::{Sha256, DIGEST_LEN};
use crate::CryptoError;
use rand::RngCore;

/// XORs the MGF1-SHA256 mask of `seed` into `out`.
fn mgf1_xor(seed: &[u8], out: &mut [u8]) {
    for (counter, chunk) in (0u32..).zip(out.chunks_mut(DIGEST_LEN)) {
        let mut h = Sha256::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        for (b, m) in chunk.iter_mut().zip(h.finalize()) {
            *b ^= m;
        }
    }
}

/// Label hash for an empty label (OAEP default).
fn empty_label_hash() -> [u8; DIGEST_LEN] {
    Sha256::digest(b"")
}

impl RsaPublicKey {
    /// Maximum plaintext bytes that fit in one encrypted block.
    pub fn max_plaintext_len(&self) -> usize {
        self.block_len().saturating_sub(2 * DIGEST_LEN + 2)
    }

    /// Encrypts `msg` under OAEP, producing one `block_len()`-byte
    /// ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] when `msg` exceeds
    /// [`Self::max_plaintext_len`] — the situation the paper resolves
    /// with a hybrid one-time key (Section V-D).
    pub fn encrypt<R: RngCore + ?Sized>(
        &self,
        msg: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.block_len();
        let max = self.max_plaintext_len();
        // A modulus under 66 bytes has no room for the padding at all.
        if msg.len() > max || k < 2 * DIGEST_LEN + 2 {
            return Err(CryptoError::MessageTooLong {
                len: msg.len(),
                max,
            });
        }
        // EM = 0x00 || maskedSeed || maskedDB, built and masked in place;
        // DB = lHash || 0x00… || 0x01 || msg.
        let mut em = vec![0u8; k];
        let (seed, db) = em[1..].split_at_mut(DIGEST_LEN);
        db[..DIGEST_LEN].copy_from_slice(&empty_label_hash());
        let msg_at = db.len() - msg.len();
        db[msg_at - 1] = 0x01;
        db[msg_at..].copy_from_slice(msg);
        rng.fill_bytes(seed);
        mgf1_xor(seed, db);
        mgf1_xor(db, seed);

        let c = self.public_op(&em)?;
        limbs_to_be(&mut em, &c);
        Ok(em)
    }
}

impl RsaKeyPair {
    /// Decrypts an OAEP ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidCiphertextLength`] for a wrong-sized
    /// input and [`CryptoError::PaddingError`] when the OAEP structure
    /// fails to verify (wrong key, corrupted ciphertext).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public().block_len();
        if ciphertext.len() != k {
            return Err(CryptoError::InvalidCiphertextLength {
                len: ciphertext.len(),
                expected: k,
            });
        }
        let c_int = BigUint::from_bytes_be(ciphertext);
        let m_int = self.raw_private_op(&c_int)?;
        let mut em = m_int.to_bytes_be_padded(k)?;

        if em[0] != 0x00 {
            return Err(CryptoError::PaddingError);
        }
        let (seed, db) = em[1..].split_at_mut(DIGEST_LEN);
        mgf1_xor(db, seed);
        mgf1_xor(seed, db);

        if !crate::ct::ct_eq(&db[..DIGEST_LEN], &empty_label_hash()) {
            return Err(CryptoError::PaddingError);
        }
        // Skip zero padding, expect a 0x01 separator, rest is the message.
        let rest = &db[DIGEST_LEN..];
        let sep = rest
            .iter()
            .position(|&b| b != 0)
            .ok_or(CryptoError::PaddingError)?;
        if rest[sep] != 0x01 {
            return Err(CryptoError::PaddingError);
        }
        Ok(rest[sep + 1..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_keys::{pair768, pair768_b};
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn round_trip_various_lengths() {
        let pair = pair768();
        let mut rng = Drbg::from_seed(20);
        let max = pair.public().max_plaintext_len();
        for len in [0usize, 1, 16, max / 2, max] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = pair.public().encrypt(&msg, &mut rng).unwrap();
            assert_eq!(ct.len(), pair.public().block_len());
            assert_eq!(pair.decrypt(&ct).unwrap(), msg, "len={len}");
        }
    }

    #[test]
    fn oversize_message_rejected_like_openssl() {
        // Mirrors the paper's Section V-D observation: the aux-key path
        // does not fit one block.
        let pair = pair768();
        let mut rng = Drbg::from_seed(21);
        let max = pair.public().max_plaintext_len();
        let msg = vec![0u8; max + 1];
        match pair.public().encrypt(&msg, &mut rng) {
            Err(CryptoError::MessageTooLong { len, max: m }) => {
                assert_eq!(len, max + 1);
                assert_eq!(m, max);
            }
            other => panic!("expected MessageTooLong, got {other:?}"),
        }
    }

    #[test]
    fn randomized_encryption() {
        let pair = pair768();
        let mut rng = Drbg::from_seed(22);
        let c1 = pair.public().encrypt(b"same message", &mut rng).unwrap();
        let c2 = pair.public().encrypt(b"same message", &mut rng).unwrap();
        assert_ne!(c1, c2, "OAEP must be randomized");
        assert_eq!(pair.decrypt(&c1).unwrap(), b"same message");
        assert_eq!(pair.decrypt(&c2).unwrap(), b"same message");
    }

    #[test]
    fn wrong_key_fails_padding() {
        let mut rng = Drbg::from_seed(23);
        let ct = pair768().public().encrypt(b"secret", &mut rng).unwrap();
        assert!(matches!(
            pair768_b().decrypt(&ct),
            Err(CryptoError::PaddingError)
        ));
    }

    #[test]
    fn corrupted_ciphertext_fails() {
        let pair = pair768();
        let mut rng = Drbg::from_seed(24);
        let mut ct = pair.public().encrypt(b"secret", &mut rng).unwrap();
        ct[10] ^= 0x80;
        assert!(pair.decrypt(&ct).is_err());
    }

    #[test]
    fn wrong_length_ciphertext_rejected() {
        let pair = pair768();
        assert!(matches!(
            pair.decrypt(&[0u8; 10]),
            Err(CryptoError::InvalidCiphertextLength { len: 10, .. })
        ));
    }

    #[test]
    fn a_ciphertext_of_another_length_or_not_below_the_modulus_is_rejected() {
        let pair = pair768();
        let n = pair.public().modulus();
        let k = pair.public().block_len();
        let mut rng = Drbg::from_seed(25);
        // Some ciphertext leaves room for `c + n`, which opens to the
        // same block as `c`, in `k` bytes.
        let (ct, wide) = std::iter::repeat_with(|| pair.public().encrypt(b"secret", &mut rng))
            .find_map(|ct| {
                let ct = ct.unwrap();
                let wide = &BigUint::from_bytes_be(&ct) + n;
                let wide = wide.to_bytes_be_padded(k).ok()?;
                Some((ct, wide))
            })
            .unwrap();
        assert_eq!(pair.decrypt(&ct).unwrap(), b"secret");
        assert!(matches!(
            pair.decrypt(&wide),
            Err(CryptoError::InvalidParameter(_))
        ));
        // The same number one byte wider, and one byte short.
        for other in [[&[0x00][..], &ct].concat(), ct[1..].to_vec()] {
            assert!(matches!(
                pair.decrypt(&other),
                Err(CryptoError::InvalidCiphertextLength { expected, .. }) if expected == k
            ));
        }
    }

    #[test]
    fn a_short_message_is_not_its_seventeenth_power() {
        // Textbook RSA under a small exponent leaks any `m` with
        // `m^e < n` to an integer root. The OAEP block is `k − 1` random
        // looking bytes however short the message, so `m^e` always
        // wraps: the ciphertext is not the plain power, and the plain
        // power does not open.
        let pair = pair768();
        let k = pair.public().block_len();
        let mut rng = Drbg::from_seed(26);
        let power = BigUint::from(2_u64)
            .modpow(pair.public().exponent(), pair.public().modulus())
            .unwrap()
            .to_bytes_be_padded(k)
            .unwrap();
        assert_eq!(power[..k - 3], vec![0u8; k - 3], "2^17 is far below n");
        assert_ne!(pair.public().encrypt(&[2], &mut rng).unwrap(), power);
        assert!(matches!(
            pair.decrypt(&power),
            Err(CryptoError::PaddingError)
        ));
    }

    #[test]
    fn mgf1_deterministic_and_sized() {
        let mgf1 = |seed: &[u8], len: usize| {
            let mut out = vec![0u8; len];
            mgf1_xor(seed, &mut out);
            out
        };
        let m1 = mgf1(b"seed", 100);
        assert_eq!(m1, mgf1(b"seed", 100));
        assert_ne!(mgf1(b"seed2", 100), m1);
        // Block `i` is SHA-256(seed || i), the last one cut short.
        assert_eq!(m1[..32], Sha256::digest(b"seed\0\0\0\0"));
        assert_eq!(m1[96..], Sha256::digest(b"seed\0\0\0\x03")[..4]);
        // XOR twice is the identity.
        let mut twice = m1.clone();
        mgf1_xor(b"seed", &mut twice);
        assert_eq!(twice, [0u8; 100]);
        assert_eq!(mgf1(b"x", 0).len(), 0);
    }

    #[test]
    fn max_plaintext_matches_paper_shape() {
        // For a 2048-bit key the paper reports 215 usable bytes (SHA-1
        // OAEP); with SHA-256 the same formula k - 2*hLen - 2 gives 190.
        // At our 768-bit test size: 96 - 64 - 2 = 30.
        let k = pair768().public().block_len();
        assert_eq!(k, 96);
        assert_eq!(
            pair768().public().max_plaintext_len(),
            k - 2 * DIGEST_LEN - 2
        );
        assert_eq!(pair768().public().max_plaintext_len(), 30);
    }
}
