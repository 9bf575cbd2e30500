//! Multiplication for [`BigUint`]: schoolbook core with a dedicated
//! squaring path (squaring dominates modular exponentiation).

use super::limb::{mac, mul_wide, sqr_wide};
use super::BigUint;
use std::ops::Mul;

impl BigUint {
    /// Schoolbook multiplication into a fresh limb vector.
    pub(crate) fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        mul_wide(&mut out, &self.limbs, &other.limbs);
        BigUint::from_limbs(out)
    }

    /// Squares the value; same asymptotics as schoolbook multiply but with
    /// roughly half the limb products.
    pub fn square(&self) -> BigUint {
        let mut out = vec![0u64; 2 * self.limbs.len()];
        sqr_wide(&mut out, &self.limbs);
        BigUint::from_limbs(out)
    }

    /// Multiplies by a single `u32`.
    pub fn mul_u32(&self, m: u32) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0;
        for &l in &self.limbs {
            out.push(mac(0, l, m as u64, &mut carry));
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }
}

impl Mul for &BigUint {
    type Output = BigUint;

    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_dispatch(rhs)
    }
}

impl Mul for BigUint {
    type Output = BigUint;

    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_dispatch(&rhs)
    }
}

impl Mul<&BigUint> for BigUint {
    type Output = BigUint;

    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_dispatch(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_products() {
        let a = BigUint::from(123_456_789_u64);
        let b = BigUint::from(987_654_321_u64);
        assert_eq!((&a * &b).to_u64(), Some(123_456_789 * 987_654_321));
    }

    #[test]
    fn zero_and_one_identities() {
        let a = BigUint::from(0xfeed_f00d_u64);
        assert!((&a * &BigUint::zero()).is_zero());
        assert_eq!(&a * &BigUint::one(), a);
    }

    #[test]
    fn cross_limb_product() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = BigUint::from(u64::MAX);
        let sq = &a * &a;
        assert_eq!(sq, a.square());
        assert_eq!(sq.to_string(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn square_matches_mul_on_many_widths() {
        let mut x = BigUint::from(3_u64);
        for _ in 0..20 {
            x = &x * &BigUint::from(0x1_0000_0001_u64);
            x.add_u32_assign(0x9e37_79b9);
            assert_eq!(x.square(), &x * &x);
        }
    }

    #[test]
    fn mul_u32_matches_full_mul() {
        let a = BigUint::from_bytes_be(&[0xff; 12]);
        assert_eq!(a.mul_u32(0), BigUint::zero());
        assert_eq!(a.mul_u32(1), a);
        assert_eq!(a.mul_u32(0xdead), &a * &BigUint::from(0xdead_u32));
    }

    #[test]
    fn multiplication_commutes() {
        let a = BigUint::from_bytes_be(b"\x12\x34\x56\x78\x9a\xbc\xde\xf0\x01\x02");
        let b = BigUint::from_bytes_be(b"\xff\xee\xdd\xcc\xbb");
        assert_eq!(&a * &b, &b * &a);
    }
}
