//! Karatsuba multiplication for large operands.
//!
//! Schoolbook multiplication is `O(n²)`; Karatsuba splits each operand
//! and recurses on three half-size products, giving `O(n^1.585)`. The
//! crossover is around 32 limbs (2048 bits): RSA-4096 moduli and the
//! double-width dividends of `R² mod n` live above it, everything in an
//! RSA-2048 private operation below.

use super::limb::LIMB_BITS;
use super::BigUint;

/// Limb count above which Karatsuba beats schoolbook.
pub(crate) const KARATSUBA_THRESHOLD: usize = 32;

impl BigUint {
    /// Dispatching multiply: schoolbook for small operands, Karatsuba
    /// above the threshold.
    pub(crate) fn mul_dispatch(&self, other: &BigUint) -> BigUint {
        if self.limbs.len().min(other.limbs.len()) < KARATSUBA_THRESHOLD {
            self.mul_schoolbook(other)
        } else {
            self.mul_karatsuba(other)
        }
    }

    /// One Karatsuba step: split at half the larger operand.
    ///
    /// With `x = x1·B + x0` and `y = y1·B + y0` (B = 2^(64·split)):
    /// `x·y = z2·B² + (z1 − z2 − z0)·B + z0` where `z0 = x0·y0`,
    /// `z2 = x1·y1`, `z1 = (x0+x1)·(y0+y1)`.
    pub(crate) fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let split = self.limbs.len().max(other.limbs.len()) / 2;
        if split == 0 || self.limbs.len() <= split || other.limbs.len() <= split {
            return self.mul_schoolbook(other);
        }
        let (x0, x1) = self.split_at_limb(split);
        let (y0, y1) = other.split_at_limb(split);

        let z0 = x0.mul_dispatch(&y0);
        let z2 = x1.mul_dispatch(&y1);
        let z1 = (&x0 + &x1).mul_dispatch(&(&y0 + &y1));
        // z1 >= z0 + z2 always (all values non-negative).
        let middle = &(&z1 - &z0) - &z2;

        let mut out = z2.shl_bits(2 * LIMB_BITS * split);
        out.add_assign_ref(&middle.shl_bits(LIMB_BITS * split));
        out.add_assign_ref(&z0);
        out
    }

    /// Splits into (low `split` limbs, remaining high limbs).
    fn split_at_limb(&self, split: usize) -> (BigUint, BigUint) {
        let low = BigUint::from_limbs(self.limbs[..split.min(self.limbs.len())].to_vec());
        let high = if self.limbs.len() > split {
            BigUint::from_limbs(self.limbs[split..].to_vec())
        } else {
            BigUint::zero()
        };
        (low, high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    fn random_n_limbs(limbs: usize, rng: &mut Drbg) -> BigUint {
        BigUint::random_bits(limbs * LIMB_BITS, rng)
    }

    #[test]
    fn karatsuba_matches_schoolbook_across_sizes() {
        let mut rng = Drbg::from_seed(1);
        for (la, lb) in [
            (32usize, 32usize),
            (33, 33),
            (64, 64),
            (64, 32),
            (32, 64),
            (100, 37),
            (37, 100),
            (128, 128),
        ] {
            let a = random_n_limbs(la, &mut rng);
            let b = random_n_limbs(lb, &mut rng);
            assert_eq!(
                a.mul_karatsuba(&b),
                a.mul_schoolbook(&b),
                "la={la} lb={lb}"
            );
        }
    }

    #[test]
    fn karatsuba_handles_unbalanced_and_zero() {
        let mut rng = Drbg::from_seed(2);
        let big = random_n_limbs(80, &mut rng);
        let one = BigUint::one();
        assert_eq!(big.mul_karatsuba(&one), big);
        assert_eq!(big.mul_karatsuba(&BigUint::zero()), BigUint::zero());
        let tiny = BigUint::from(7_u64);
        assert_eq!(big.mul_karatsuba(&tiny), big.mul_schoolbook(&tiny));
    }

    #[test]
    fn dispatch_uses_karatsuba_above_threshold() {
        // Functional check: results identical either way at the seam.
        let mut rng = Drbg::from_seed(3);
        for limbs in [KARATSUBA_THRESHOLD - 1, KARATSUBA_THRESHOLD, KARATSUBA_THRESHOLD + 1] {
            let a = random_n_limbs(limbs, &mut rng);
            let b = random_n_limbs(limbs, &mut rng);
            assert_eq!(a.mul_dispatch(&b), a.mul_schoolbook(&b), "limbs={limbs}");
        }
    }

    #[test]
    fn rsa_sized_products() {
        // 2048-bit × 2048-bit, the keygen hot path.
        let mut rng = Drbg::from_seed(4);
        let a = BigUint::random_bits(2048, &mut rng);
        let b = BigUint::random_bits(2048, &mut rng);
        let prod = &a * &b;
        // Top bits set on both factors: the product has 4095 or 4096 bits.
        assert!(prod.bit_len() >= 4095);
        assert_eq!(prod, a.mul_schoolbook(&b));
        // (a*b) / a == b round trip through division.
        let (q, r) = prod.div_rem(&a).unwrap();
        assert_eq!(q, b);
        assert!(r.is_zero());
    }
}
