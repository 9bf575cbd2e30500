//! RSA key generation.

use super::{RsaKeyPair, RsaPublicKey, PUBLIC_EXPONENT};
use crate::bignum::BigUint;
use crate::prime::generate_rsa_prime;
use crate::CryptoError;
use rand::RngCore;

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of `bits` bits and
    /// public exponent [`PUBLIC_EXPONENT`].
    ///
    /// The paper uses 2048-bit keys; tests in this workspace use 512–768
    /// bits to keep the suite fast (key generation is the only slow RSA
    /// operation). The paper's OpenSSL keys had e = 65537, and the P-III
    /// virtual-time constants (`mykil::crypto_cost`) price that build:
    /// they are deliberately not rescaled to this exponent.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `bits < 256` or
    /// `bits` is odd, and [`CryptoError::KeyGeneration`] when prime
    /// search fails (practically impossible with the default budget).
    pub fn generate<R: RngCore + ?Sized>(
        bits: usize,
        rng: &mut R,
    ) -> Result<RsaKeyPair, CryptoError> {
        if bits < 256 {
            return Err(CryptoError::InvalidParameter("modulus below 256 bits"));
        }
        if !bits.is_multiple_of(2) {
            return Err(CryptoError::InvalidParameter("modulus bits must be even"));
        }
        let e = BigUint::from(PUBLIC_EXPONENT);
        let one = BigUint::one();
        loop {
            let p = generate_rsa_prime(bits / 2, PUBLIC_EXPONENT.into(), rng)?;
            let q = generate_rsa_prime(bits / 2, PUBLIC_EXPONENT.into(), rng)?;
            if p == q {
                continue;
            }
            let n = &p * &q;
            // Forcing the two top bits of each prime guarantees full
            // modulus width, but keep the check as a safety net.
            if n.bit_len() != bits {
                continue;
            }
            let p1 = &p - &one;
            let q1 = &q - &one;
            let phi = &p1 * &q1;
            let d = e.mod_inverse(&phi)?;
            let d_p = d.rem(&p1)?;
            let d_q = d.rem(&q1)?;
            let q_inv = q.mod_inverse(&p)?;
            let public = RsaPublicKey::from_components(n, e)?;
            return RsaKeyPair::from_parts(public, d, p, q, d_p, d_q, q_inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;
    use crate::prime::is_probably_prime;

    #[test]
    fn generate_produces_working_pair() {
        let mut rng = Drbg::from_seed(11);
        let pair = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert_eq!(pair.public().bits(), 512);
        assert_eq!(pair.public().block_len(), 64);
        // e*d == 1 mod lcm is implied by the round trip:
        let m = BigUint::from(0x1234_5678_u64);
        let c = BigUint::from_limbs(pair.public().public_op(&m.to_bytes_be()).unwrap());
        assert_eq!(pair.raw_private_op(&c).unwrap(), m);
    }

    #[test]
    fn factors_are_prime_and_distinct() {
        let mut rng = Drbg::from_seed(12);
        let pair = RsaKeyPair::generate(512, &mut rng).unwrap();
        let (p, q) = (pair.p.modulus(), pair.q.modulus());
        assert!(is_probably_prime(p, 10, &mut rng));
        assert!(is_probably_prime(q, 10, &mut rng));
        assert_ne!(p, q);
        assert_eq!(p * q, *pair.public().modulus());
    }

    #[test]
    fn rejects_bad_sizes() {
        let mut rng = Drbg::from_seed(13);
        assert!(RsaKeyPair::generate(128, &mut rng).is_err());
        assert!(RsaKeyPair::generate(513, &mut rng).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = Drbg::from_seed(14);
        let mut r2 = Drbg::from_seed(14);
        let a = RsaKeyPair::generate(512, &mut r1).unwrap();
        let b = RsaKeyPair::generate(512, &mut r2).unwrap();
        assert_eq!(a.public(), b.public());
    }
}
