//! RSA public-key cryptography (RFC 8017 style, from scratch).
//!
//! The paper's join and rejoin protocols (Figures 3 and 7) encrypt every
//! handshake message with RSA public keys and sign several of them with
//! RSA private keys; the prototype used OpenSSL's `RSA_public_encrypt` /
//! `RSA_sign` with 2048-bit keys. This module provides the same four
//! operations:
//!
//! - [`RsaPublicKey::encrypt`] — OAEP-style encryption (MGF1-SHA256),
//!   including the single-block plaintext limit the paper discusses in
//!   Section V-D (215 bytes with their SHA-1 padding; 190 bytes here with
//!   SHA-256 — either way the auxiliary-key path does not fit, forcing
//!   the hybrid one-time-key workaround that Mykil implements)
//! - [`RsaKeyPair::decrypt`] — CRT-accelerated decryption
//! - [`RsaKeyPair::sign`] / [`RsaPublicKey::verify`] — hash-then-sign
//!   signatures (PKCS#1 v1.5 layout with a SHA-256 DigestInfo)
//!
//! # Example
//!
//! ```
//! use mykil_crypto::drbg::Drbg;
//! use mykil_crypto::rsa::RsaKeyPair;
//!
//! let mut rng = Drbg::from_seed(42);
//! let pair = RsaKeyPair::generate(512, &mut rng)?;
//! let sig = pair.sign(b"key update");
//! assert!(pair.public().verify(b"key update", &sig));
//! # Ok::<(), mykil_crypto::CryptoError>(())
//! ```

mod keygen;
mod serialize;
mod oaep;
mod sign;

use crate::bignum::{BigUint, MontgomeryCtx};
use crate::CryptoError;

/// The conventional RSA public exponent, 65537.
pub const PUBLIC_EXPONENT: u32 = 65_537;

/// An RSA public key `(n, e)`.
///
/// The modulus lives inside its Montgomery context, built once by
/// [`from_components`](Self::from_components) and reused by every
/// [`encrypt`](Self::encrypt) and [`verify`](Self::verify).
#[derive(Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: MontgomeryCtx,
    e: BigUint,
}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", self.modulus())
            .field("e", &self.e)
            .finish()
    }
}

impl RsaPublicKey {
    /// Constructs a public key from raw components.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] for a modulus that is
    /// even or smaller than 256 bits, or an even/unit exponent.
    pub fn from_components(n: BigUint, e: BigUint) -> Result<Self, CryptoError> {
        if n.bit_len() < 256 {
            return Err(CryptoError::InvalidParameter("modulus below 256 bits"));
        }
        if e.is_even() || e.is_one() || e.is_zero() {
            return Err(CryptoError::InvalidParameter("bad public exponent"));
        }
        Ok(RsaPublicKey {
            n: MontgomeryCtx::new(n)?,
            e,
        })
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        self.n.modulus()
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes (the RSA block length `k`).
    pub fn block_len(&self) -> usize {
        self.bits().div_ceil(8)
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.modulus().bit_len()
    }

    /// Raw RSA public operation `m^e mod n` on a padded block.
    pub(crate) fn raw_public_op(&self, block: &BigUint) -> Result<BigUint, CryptoError> {
        if block >= self.modulus() {
            return Err(CryptoError::InvalidParameter("block exceeds modulus"));
        }
        Ok(self.n.pow(block, &self.e))
    }

    /// Serializes to `len(n) || n || len(e) || e` for wire transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.modulus().to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(n.len() + e.len() + 8);
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the format produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] on truncated or
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let err = || CryptoError::InvalidParameter("malformed public key encoding");
        let take = |bytes: &mut &[u8]| -> Result<Vec<u8>, CryptoError> {
            if bytes.len() < 4 {
                return Err(err());
            }
            let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
            *bytes = &bytes[4..];
            if bytes.len() < len {
                return Err(err());
            }
            let out = bytes[..len].to_vec();
            *bytes = &bytes[len..];
            Ok(out)
        };
        let mut cursor = bytes;
        let n = BigUint::from_bytes_be(&take(&mut cursor)?);
        let e = BigUint::from_bytes_be(&take(&mut cursor)?);
        if !cursor.is_empty() {
            return Err(err());
        }
        Self::from_components(n, e)
    }

    /// A short stable fingerprint (first 8 bytes of SHA-256 of the
    /// encoding) used for logging and key directories.
    pub fn fingerprint(&self) -> u64 {
        let digest = crate::sha256::Sha256::digest(&self.to_bytes());
        u64::from_be_bytes(digest[..8].try_into().unwrap())
    }
}

/// An RSA key pair with CRT parameters for fast private operations.
///
/// The primes live inside their Montgomery contexts, built once by
/// [`from_parts`](Self::from_parts) and wiped with the rest on drop.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    p: MontgomeryCtx,
    q: MontgomeryCtx,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Private components must never be printed.
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl Drop for RsaKeyPair {
    fn drop(&mut self) {
        // The public half is public by definition; every CRT component
        // reveals the factorization and must be wiped.
        self.d.zeroize();
        self.p.zeroize();
        self.q.zeroize();
        self.d_p.zeroize();
        self.d_q.zeroize();
        self.q_inv.zeroize();
    }
}

impl RsaKeyPair {
    /// The one constructor: key generation and deserialization both end
    /// here, so the CRT contexts are built in exactly one place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `p` or `q` is even
    /// or `<= 1`. Consistency of the components with each other is the
    /// caller's business (see [`from_bytes`](Self::from_bytes)).
    pub(crate) fn from_parts(
        public: RsaPublicKey,
        d: BigUint,
        p: BigUint,
        q: BigUint,
        d_p: BigUint,
        d_q: BigUint,
        q_inv: BigUint,
    ) -> Result<Self, CryptoError> {
        Ok(RsaKeyPair {
            public,
            d,
            p: MontgomeryCtx::new(p)?,
            q: MontgomeryCtx::new(q)?,
            d_p,
            d_q,
            q_inv,
        })
    }

    /// The public half of the pair.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA private operation `c^d mod n` using the CRT.
    pub(crate) fn raw_private_op(&self, block: &BigUint) -> Result<BigUint, CryptoError> {
        if block >= self.public.modulus() {
            return Err(CryptoError::InvalidParameter("block exceeds modulus"));
        }
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // CRT: m_p = c^d_p mod p ; m_q = c^d_q mod q
        let m_p = self.p.pow(block, &self.d_p);
        let m_q = self.q.pow(block, &self.d_q);
        // h = q_inv * (m_p - m_q) mod p
        let diff = if m_p >= m_q {
            &m_p - &m_q
        } else {
            // m_p - m_q mod p, computed as p - ((m_q - m_p) mod p)
            let r = (&m_q - &m_p).rem(p)?;
            if r.is_zero() {
                r
            } else {
                p - &r
            }
        };
        let h = (&self.q_inv * &diff).rem(p)?;
        // m = m_q + h * q
        Ok(&m_q + &(&h * q))
    }

    /// Slow non-CRT private operation, kept for cross-checking in tests.
    #[doc(hidden)]
    pub fn raw_private_op_no_crt(&self, block: &BigUint) -> Result<BigUint, CryptoError> {
        Ok(self.public.n.pow(block, &self.d))
    }
}

#[cfg(test)]
pub(crate) mod test_keys {
    use super::*;
    use crate::drbg::Drbg;
    use std::sync::OnceLock;

    /// Shared 768-bit test key (RSA keygen is the slow part of the suite;
    /// 768 bits leaves 30 bytes of OAEP plaintext room, enough for a
    /// wrapped one-time symmetric key).
    pub fn pair768() -> &'static RsaKeyPair {
        static PAIR: OnceLock<RsaKeyPair> = OnceLock::new();
        PAIR.get_or_init(|| {
            let mut rng = Drbg::from_seed(0xA11CE);
            RsaKeyPair::generate(768, &mut rng).expect("test keygen")
        })
    }

    /// A second, distinct 768-bit test key.
    pub fn pair768_b() -> &'static RsaKeyPair {
        static PAIR: OnceLock<RsaKeyPair> = OnceLock::new();
        PAIR.get_or_init(|| {
            let mut rng = Drbg::from_seed(0xB0B);
            RsaKeyPair::generate(768, &mut rng).expect("test keygen")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::test_keys::{pair768, pair768_b};
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn public_key_round_trips_through_bytes() {
        let pk = pair768().public().clone();
        let bytes = pk.to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(pk, back);
        assert_eq!(pk.fingerprint(), back.fingerprint());
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 10, 1]).is_err());
        let mut ok = pair768().public().to_bytes();
        ok.push(0); // trailing garbage
        assert!(RsaPublicKey::from_bytes(&ok).is_err());
    }

    #[test]
    fn from_components_validation() {
        let pk = pair768().public();
        assert!(RsaPublicKey::from_components(
            BigUint::from(15_u64),
            BigUint::from(3_u64)
        )
        .is_err());
        assert!(
            RsaPublicKey::from_components(pk.modulus().clone(), BigUint::from(4_u64)).is_err()
        );
        assert!(
            RsaPublicKey::from_components(pk.modulus().clone(), BigUint::from(65_537_u64))
                .is_ok()
        );
    }

    #[test]
    fn raw_ops_invert() {
        let pair = pair768();
        let mut rng = Drbg::from_seed(77);
        let m = BigUint::random_below(pair.public().modulus(), &mut rng);
        let c = pair.public().raw_public_op(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(pair.raw_private_op(&c).unwrap(), m);
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let mut keygen = Drbg::from_seed(0xC27);
        let pair1024 = RsaKeyPair::generate(1024, &mut keygen).unwrap();
        let pair2048 = RsaKeyPair::generate(2048, &mut keygen).unwrap();
        let mut rng = Drbg::from_seed(78);
        for pair in [pair768(), &pair1024, &pair2048] {
            for _ in 0..4 {
                let c = BigUint::random_below(pair.public().modulus(), &mut rng);
                assert_eq!(
                    pair.raw_private_op(&c).unwrap(),
                    pair.raw_private_op_no_crt(&c).unwrap(),
                    "bits={}",
                    pair.public().bits()
                );
            }
        }
    }

    /// Byte identity with the 32-bit-limb implementation: the constants
    /// were recorded at the commit before the limb width changed. A seed
    /// must keep yielding the same key pair (same random draws, same
    /// Miller–Rabin witnesses), the same signature and the same raw
    /// private-operation result.
    #[test]
    fn golden_keys_and_signatures_survive_the_limb_width_change() {
        let hex = |bytes: &[u8]| -> String {
            let digest = crate::sha256::Sha256::digest(bytes);
            digest.iter().map(|b| format!("{b:02x}")).collect()
        };
        for (bits, seed, block_len, fingerprint, sig_sha256, raw_sha256) in [
            (
                768usize,
                0xA11CE_u64,
                90usize,
                0xbed3_4e52_d29f_65ad_u64,
                "71f1a2c7ec6878f1811013472a6f651e0998cd9760cfbf3ddbd6e7033e3f0178",
                "ee5a6ba38c2d7fd6e86431068fb43057353be3d2bc618a5c11dd76fcc0cef971",
            ),
            (
                2048,
                0x2048,
                250,
                0x3543_506b_1644_9117,
                "e6ec9b7adc54bfd26d501b4a86f25759a2339fc6f201b06dfba91032c7d11b87",
                "6cca2c1230ebdb521690bc3cb16a46142be14ba11551ae1f3b5c695b1a533ebf",
            ),
        ] {
            let pair = RsaKeyPair::generate(bits, &mut Drbg::from_seed(seed)).unwrap();
            assert_eq!(pair.public().fingerprint(), fingerprint, "bits={bits}");
            assert_eq!(hex(&pair.sign(b"golden")), sig_sha256, "bits={bits}");
            let block = BigUint::from_bytes_be(&vec![0x5a; block_len]);
            let raw = pair
                .raw_private_op(&block)
                .unwrap()
                .to_bytes_be_padded(pair.public().block_len())
                .unwrap();
            assert_eq!(hex(&raw), raw_sha256, "bits={bits}");
        }
    }

    #[test]
    fn distinct_pairs_have_distinct_moduli() {
        assert_ne!(pair768().public().modulus(), pair768_b().public().modulus());
    }

    #[test]
    fn block_exceeding_modulus_rejected() {
        let pair = pair768();
        let too_big = pair.public().modulus().clone();
        assert!(pair.public().raw_public_op(&too_big).is_err());
        assert!(pair.raw_private_op(&too_big).is_err());
    }

    #[test]
    fn debug_hides_private_parts() {
        let s = format!("{:?}", pair768());
        assert!(s.contains("public"));
        assert!(!s.contains("d_p"));
    }
}
