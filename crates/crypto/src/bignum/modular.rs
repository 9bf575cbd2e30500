//! High-level modular arithmetic: `modpow`, `gcd`, and modular inverses.

use super::{BigUint, MontgomeryCtx};
use crate::CryptoError;

impl BigUint {
    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses Montgomery form for odd moduli and a plain square-and-multiply
    /// with trial division otherwise. This is the generic entry: it builds
    /// a [`MontgomeryCtx`] per call. Anything that exponentiates under one
    /// modulus more than once (RSA keys, Miller–Rabin) holds a context
    /// and calls [`MontgomeryCtx::pow`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        if modulus.is_zero() {
            return Err(CryptoError::InvalidParameter("zero modulus"));
        }
        if modulus.is_one() {
            return Ok(BigUint::zero());
        }
        if modulus.is_odd() {
            return Ok(MontgomeryCtx::new(modulus.clone())?.pow(self, exp));
        }
        // Generic ladder for even moduli (only hit in tests/tools).
        let mut base = self.rem(modulus)?;
        let mut acc = BigUint::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = (&acc * &base).rem(modulus)?;
            }
            base = base.square().rem(modulus)?;
        }
        Ok(acc)
    }

    /// Greatest common divisor by the Euclidean algorithm.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b).expect("nonzero divisor");
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: finds `x` with `self·x ≡ 1 (mod modulus)`.
    ///
    /// Implemented with the extended Euclidean algorithm over signed
    /// cofactors tracked as (sign, magnitude) pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when no inverse exists
    /// (i.e. `gcd(self, modulus) != 1`) or the modulus is zero or one.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        if modulus.is_zero() || modulus.is_one() {
            return Err(CryptoError::InvalidParameter(
                "inverse undefined for modulus zero or one",
            ));
        }
        let a = self.rem(modulus)?;
        if a.is_zero() {
            return Err(CryptoError::InvalidParameter("zero has no inverse"));
        }
        // Invariants: old_r = old_s*a (mod m), r = s*a (mod m).
        let mut old_r = a;
        let mut r = modulus.clone();
        let mut old_s = Signed::positive(BigUint::one());
        let mut s = Signed::positive(BigUint::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r)?;
            old_r = std::mem::replace(&mut r, rem);
            let qs = s.mul_mag(&q);
            let next = old_s.sub(&qs);
            old_s = std::mem::replace(&mut s, next);
        }
        if !old_r.is_one() {
            return Err(CryptoError::InvalidParameter("values are not coprime"));
        }
        old_s.reduce(modulus)
    }
}

/// Minimal signed big integer for the extended Euclid cofactors.
#[derive(Debug, Clone)]
struct Signed {
    negative: bool,
    mag: BigUint,
}

impl Signed {
    fn positive(mag: BigUint) -> Self {
        Signed {
            negative: false,
            mag,
        }
    }

    fn mul_mag(&self, q: &BigUint) -> Signed {
        Signed {
            negative: self.negative && !q.is_zero(),
            mag: &self.mag * q,
        }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.negative, other.negative) {
            // a - (-b) = a + b ; (-a) - b = -(a + b)
            (false, true) | (true, false) => Signed {
                negative: self.negative,
                mag: &self.mag + &other.mag,
            },
            // Same sign: compare magnitudes.
            (sn, _) => {
                if self.mag >= other.mag {
                    Signed {
                        negative: sn && self.mag != other.mag,
                        mag: &self.mag - &other.mag,
                    }
                } else {
                    Signed {
                        negative: !sn,
                        mag: &other.mag - &self.mag,
                    }
                }
            }
        }
    }

    /// Reduces to a canonical non-negative residue mod `m`.
    fn reduce(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        let r = self.mag.rem(m)?;
        if self.negative && !r.is_zero() {
            Ok(m - &r)
        } else {
            Ok(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modpow_matches_reference() {
        // 3^200 mod 50 == (3^20)^10 mod 50; brute force with u128 windows.
        let m = BigUint::from(1_000_003_u64);
        let mut expect = 1u64;
        for e in 0..40u64 {
            let got = BigUint::from(7_u64)
                .modpow(&BigUint::from(e), &m)
                .unwrap()
                .to_u64()
                .unwrap();
            assert_eq!(got, expect, "e={e}");
            expect = expect * 7 % 1_000_003;
        }
    }

    #[test]
    fn modpow_even_modulus() {
        let m = BigUint::from(1_000_000_u64);
        let got = BigUint::from(3_u64)
            .modpow(&BigUint::from(10_u64), &m)
            .unwrap();
        assert_eq!(got.to_u64(), Some(59_049));
        let got = BigUint::from(7_u64)
            .modpow(&BigUint::from(9_u64), &m)
            .unwrap();
        assert_eq!(got.to_u64(), Some(40_353_607 % 1_000_000));
    }

    #[test]
    fn modpow_modulus_one_and_zero() {
        let b = BigUint::from(9_u64);
        assert!(b
            .modpow(&BigUint::from(2_u64), &BigUint::one())
            .unwrap()
            .is_zero());
        assert!(b.modpow(&BigUint::from(2_u64), &BigUint::zero()).is_err());
    }

    #[test]
    fn gcd_cases() {
        let g = BigUint::from(48_u64).gcd(&BigUint::from(18_u64));
        assert_eq!(g.to_u64(), Some(6));
        let g = BigUint::from(17_u64).gcd(&BigUint::from(13_u64));
        assert!(g.is_one());
        let g = BigUint::zero().gcd(&BigUint::from(5_u64));
        assert_eq!(g.to_u64(), Some(5));
        let g = BigUint::from(5_u64).gcd(&BigUint::zero());
        assert_eq!(g.to_u64(), Some(5));
    }

    #[test]
    fn mod_inverse_small() {
        let inv = BigUint::from(3_u64)
            .mod_inverse(&BigUint::from(11_u64))
            .unwrap();
        assert_eq!(inv.to_u64(), Some(4)); // 3*4 = 12 ≡ 1 (mod 11)
    }

    #[test]
    fn mod_inverse_verifies() {
        let m = BigUint::from(1_000_000_007_u64);
        for v in [2u64, 3, 65_537, 999_999_999] {
            let a = BigUint::from(v);
            let inv = a.mod_inverse(&m).unwrap();
            let prod = (&a * &inv).rem(&m).unwrap();
            assert!(prod.is_one(), "v={v}");
        }
    }

    #[test]
    fn mod_inverse_not_coprime() {
        assert!(BigUint::from(6_u64)
            .mod_inverse(&BigUint::from(9_u64))
            .is_err());
        assert!(BigUint::from(4_u64)
            .mod_inverse(&BigUint::from(8_u64))
            .is_err());
    }

    #[test]
    fn mod_inverse_rejects_degenerate() {
        assert!(BigUint::from(5_u64).mod_inverse(&BigUint::zero()).is_err());
        assert!(BigUint::from(5_u64).mod_inverse(&BigUint::one()).is_err());
        assert!(BigUint::zero().mod_inverse(&BigUint::from(7_u64)).is_err());
    }

    #[test]
    fn rsa_style_inverse() {
        // e*d ≡ 1 mod phi with realistic small-prime RSA numbers.
        let p = BigUint::from(61_u64);
        let q = BigUint::from(53_u64);
        let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
        let e = BigUint::from(17_u64);
        let d = e.mod_inverse(&phi).unwrap();
        assert!((&e * &d).rem(&phi).unwrap().is_one());
    }
}
