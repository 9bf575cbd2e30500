//! Bit-shift operations for [`BigUint`].

use super::limb::LIMB_BITS;
use super::BigUint;
use std::ops::{Shl, Shr};

impl BigUint {
    /// Logical left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut out = Vec::with_capacity(limb_shift + self.limbs.len() + 1);
        out.resize(limb_shift, 0);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Logical right shift by `bits` (shifting everything out yields zero).
    pub fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % LIMB_BITS;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for (i, &l) in src.iter().enumerate() {
            let hi = src
                .get(i + 1)
                .map_or(0, |next| next << (LIMB_BITS - bit_shift));
            out.push((l >> bit_shift) | hi);
        }
        BigUint::from_limbs(out)
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;

    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;

    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shl_small() {
        let one = BigUint::one();
        assert_eq!(one.shl_bits(4).to_u64(), Some(16));
        assert_eq!(one.shl_bits(32).to_u64(), Some(1 << 32));
        assert_eq!(one.shl_bits(0), one);
    }

    #[test]
    fn shl_crosses_limbs() {
        // (2^31 + 1) << 33 = 2^64 + 2^33
        let n = BigUint::from(0x8000_0001_u64);
        let s = n.shl_bits(33);
        assert_eq!(s.to_string(), "10000000200000000");
        assert_eq!(s.shr_bits(33), n);
    }

    #[test]
    fn shr_to_zero() {
        let n = BigUint::from(0xffff_u64);
        assert!(n.shr_bits(16).is_zero());
        assert!(n.shr_bits(200).is_zero());
        assert!(BigUint::zero().shr_bits(1).is_zero());
    }

    #[test]
    fn shift_round_trip() {
        let n = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45]);
        for bits in [1, 7, 31, 32, 33, 63, 64, 65, 95, 128, 129] {
            assert_eq!(n.shl_bits(bits).shr_bits(bits), n, "bits={bits}");
        }
    }

    #[test]
    fn operator_sugar() {
        let n = BigUint::from(6_u64);
        assert_eq!((&n << 1).to_u64(), Some(12));
        assert_eq!((&n >> 1).to_u64(), Some(3));
    }

    #[test]
    fn shl_equals_mul_by_power_of_two() {
        let n = BigUint::from_bytes_be(&[9, 8, 7, 6, 5, 4, 3, 2, 1]);
        let p = BigUint::one().shl_bits(67);
        assert_eq!(n.shl_bits(67), &n * &p);
    }
}
