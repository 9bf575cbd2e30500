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

/// The public exponent of every key this crate generates: 17, a ladder
/// of four squarings and one product where 65537 takes sixteen and one
/// (DESIGN.md, "Why e = 17"). A peer's key carries its own `e` in its
/// encoding and works whatever odd value that is.
pub const PUBLIC_EXPONENT: u32 = 17;

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

    /// Raw RSA public operation `block^e mod n` on a big-endian block of
    /// at most [`block_len`](Self::block_len) bytes: the little-endian
    /// limbs of the result, which a verify compares in place
    /// ([`limb_byte`](crate::bignum::limb_byte)) and a seal writes out
    /// ([`limbs_to_be`](crate::bignum::limbs_to_be)) — the one
    /// allocation of either, with no `BigUint` on the way.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameter`] unless `block < n`.
    pub(crate) fn public_op(&self, block: &[u8]) -> Result<Vec<u64>, CryptoError> {
        self.n
            .pow_binary_be(block, &self.e)
            .ok_or(CryptoError::InvalidParameter("block exceeds modulus"))
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

    fn sha256_hex(bytes: &[u8]) -> String {
        let digest = crate::sha256::Sha256::digest(bytes);
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

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
        let c = BigUint::from_limbs(pair.public().public_op(&m.to_bytes_be()).unwrap());
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

    /// Byte identity across kernel changes: a seed must keep yielding
    /// the same key pair (same random draws, same Miller–Rabin
    /// witnesses), the same signature and the same raw private-operation
    /// result. First recorded at the commit before the limb width
    /// changed; re-recorded at the commit that follows `b9ddcd0`, where
    /// `PUBLIC_EXPONENT` became 17 and the exponent screen moved ahead
    /// of Miller–Rabin, so every seed yields different primes. What
    /// `b9ddcd0` generated lives on in
    /// [`keys_recorded_under_e_65537_still_work`].
    #[test]
    fn golden_keys_and_signatures_survive_the_limb_width_change() {
        for (bits, seed, block_len, fingerprint, sig_sha256, raw_sha256) in [
            (
                768usize,
                0xA11CE_u64,
                90usize,
                0xac09_968c_f842_9443_u64,
                "523fa5473f83fb71be27f4d8e1cfc792a5cec6e5f62e33abb5b8b5bde44f0d30",
                "b1c8502976e0faf509f796a4e53e56b8f2cc6b86b988a14fe3df10d2240a114a",
            ),
            (
                2048,
                0x2048,
                250,
                0x345c_cfee_3509_0ca2,
                "21f00fad33b6d5498807ff8cf5cecc417572dd0f916160f7a3524f5ff538b22c",
                "9e175024b4118a05a829729a0eacd441135cfe4e5e7b850416776ab478c45d2d",
            ),
        ] {
            let pair = RsaKeyPair::generate(bits, &mut Drbg::from_seed(seed)).unwrap();
            assert_eq!(pair.public().exponent().to_u64(), Some(17), "bits={bits}");
            assert_eq!(pair.public().fingerprint(), fingerprint, "bits={bits}");
            assert_eq!(sha256_hex(&pair.sign(b"golden")), sig_sha256, "bits={bits}");
            let block = BigUint::from_bytes_be(&vec![0x5a; block_len]);
            let raw = pair
                .raw_private_op(&block)
                .unwrap()
                .to_bytes_be_padded(pair.public().block_len())
                .unwrap();
            assert_eq!(sha256_hex(&raw), raw_sha256, "bits={bits}");
        }
    }

    /// The 768-bit pair of seed `0xA11CE` as `b9ddcd0` generated and
    /// serialized it (`RsaKeyPair::to_bytes`), `e = 65537`.
    const PAIR_E65537: &str = concat!(
        "4d4b523100000060b4bb10afca2d6e6264033001df7704988b32b7a7dae7fce1",
        "e783ee5c77ce88f7ffa244bf4c770820da44c0649494bedce27ecc553e9b207b",
        "4eae8f7f3b3fef2e39975c64c37c0ec571b81843887596a94eabc91290fb8365",
        "a9aba3d174eb6d190000000301000100000060b2be0fd2cbf202a9ec9ffa6adf",
        "c7a613f81740ec11e43e866da25dabb611de04e81e643f8e306b2992b54c522d",
        "60af21bc7b27b49adf0155f579094f37cb0dfb96e1372d254094eac4be8e55f2",
        "0befc452bb159912b772ebdc9ea1c7210b080100000030d1053d291c5770741f",
        "73f9546f0ffa4cdc00fe878da5cd602418fa1823dd370185313599a0dcc87477",
        "bea809a66a7af100000030dd5a126d879d1f5b551610ab13df4c4074290c5997",
        "3a70ffd697044e25f6561cafc2d660f45a1c4fbc479c456cfc84a900000030bc",
        "1b9ee334a26c8dd510a63e9a852299b11523fc123a390e60ee2985382189b350",
        "8eecd209b7289fc87448fe064aa5c100000030714ab399d9ca428d557c48a5b7",
        "3317ecf9473529f9ac10bff10e3446e7493083d835a9d1cfdefb149872327a9a",
        "3098990000003027cf95c7f88e535132edf604680066083182cbe639b4ec3ce1",
        "6c6d27526e15e7058b7b94489d296f9ce8a142ae0e43ff"
    );
    /// Its signature over `b"golden"`, made at `b9ddcd0`.
    const SIG_E65537: &str = concat!(
        "99ab43cce5a6a92d4654aeda6fe783bf33909033830266fa355efd05feea01ea",
        "6b0b925ef1c566960ebf8d33734e0bd923f8573126e5a635badef3887d37a164",
        "3e224d16434cca22ba211afb85a583bc38fe10db5f15afe4cd01d2f3c4d04254"
    );

    /// The complement of the golden test: nothing about a key depends on
    /// [`PUBLIC_EXPONENT`] once it exists, because `e` travels in the
    /// encoding. A peer's key and signature from before the constant
    /// changed go through the same `public_op` as our own.
    #[test]
    fn keys_recorded_under_e_65537_still_work() {
        let pair_bytes = unhex(PAIR_E65537);
        // After the magic, a key pair's encoding opens with its public
        // key's: len(n) ‖ n ‖ len(e) ‖ e.
        let public = RsaPublicKey::from_bytes(&pair_bytes[4..4 + 4 + 96 + 4 + 3]).unwrap();
        assert_eq!(public.exponent().to_u64(), Some(65_537));
        assert_eq!(public.fingerprint(), 0xbed3_4e52_d29f_65ad);
        let sig = unhex(SIG_E65537);
        assert!(public.verify(b"golden", &sig));
        assert!(!public.verify(b"g0lden", &sig));

        let pair = RsaKeyPair::from_bytes(&pair_bytes).unwrap();
        assert_eq!(pair.public(), &public);
        assert_eq!(pair.sign(b"golden"), sig);
        let mut rng = Drbg::from_seed(0x65537);
        let msg = [0xC3u8; 200];
        let ct = crate::envelope::HybridCiphertext::encrypt(&public, &msg, &mut rng).unwrap();
        assert_eq!(ct.decrypt(&pair).unwrap(), msg);
        // ... and not under a key of our own exponent.
        assert!(ct.decrypt(pair768()).is_err());
    }

    #[test]
    fn distinct_pairs_have_distinct_moduli() {
        assert_ne!(pair768().public().modulus(), pair768_b().public().modulus());
    }

    #[test]
    fn block_exceeding_modulus_rejected() {
        let pair = pair768();
        let too_big = pair.public().modulus().clone();
        assert!(pair.public().public_op(&too_big.to_bytes_be()).is_err());
        assert!(pair.raw_private_op(&too_big).is_err());
        // One below the modulus is in range; a block wider than the
        // modulus is not, leading zeros or no.
        let below = &too_big - &BigUint::one();
        assert!(pair.public().public_op(&below.to_bytes_be()).is_ok());
        assert!(pair.public().public_op(&[0u8; 97]).is_err());
    }

    #[test]
    fn debug_hides_private_parts() {
        let s = format!("{:?}", pair768());
        assert!(s.contains("public"));
        assert!(!s.contains("d_p"));
    }
}
