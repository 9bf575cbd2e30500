//! Addition and subtraction for [`BigUint`].
//!
//! `+` is total; `-` panics on underflow (documented below) and a
//! non-panicking [`BigUint::checked_sub`] is provided for callers that
//! need to handle the borrow case.

use super::limb::{adc, add_into, sub_from};
use super::BigUint;
use std::ops::{Add, Sub};

impl BigUint {
    /// Adds `other` into `self` in place.
    pub(crate) fn add_assign_ref(&mut self, other: &BigUint) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let carry = add_into(&mut self.limbs, &other.limbs);
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Subtracts `other` from `self`, returning `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        let borrow = sub_from(&mut limbs, &other.limbs);
        debug_assert_eq!(borrow, 0, "underflow despite ordering check");
        Some(BigUint::from_limbs(limbs))
    }

    /// Adds a single `u32` in place (used for incrementing nonces and
    /// building constants).
    pub fn add_u32_assign(&mut self, v: u32) {
        let mut carry = v as u64;
        for dst in self.limbs.iter_mut() {
            if carry == 0 {
                return;
            }
            *dst = adc(*dst, 0, &mut carry);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }
}

impl Add for &BigUint {
    type Output = BigUint;

    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;

    fn add(mut self, rhs: BigUint) -> BigUint {
        self.add_assign_ref(&rhs);
        self
    }
}

impl Add<&BigUint> for BigUint {
    type Output = BigUint;

    fn add(mut self, rhs: &BigUint) -> BigUint {
        self.add_assign_ref(rhs);
        self
    }
}

impl Sub for &BigUint {
    type Output = BigUint;

    /// # Panics
    ///
    /// Panics when `rhs > self`; use [`BigUint::checked_sub`] to handle
    /// underflow without panicking.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;

    /// # Panics
    ///
    /// Panics when `rhs > self`.
    fn sub(self, rhs: BigUint) -> BigUint {
        (&self) - (&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let sum = &a + &b;
        assert_eq!(sum.to_string(), "10000000000000000");
        assert_eq!(&sum - &b, a);
    }

    #[test]
    fn add_zero_is_identity() {
        let a = BigUint::from(0x1234_5678_9abc_def0_u64);
        assert_eq!(&a + &BigUint::zero(), a);
        assert_eq!(&BigUint::zero() + &a, a);
    }

    #[test]
    fn sub_to_zero() {
        let a = BigUint::from(42_u64);
        assert!((&a - &a).is_zero());
    }

    #[test]
    fn checked_sub_underflow() {
        let a = BigUint::from(1_u64);
        let b = BigUint::from(2_u64);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a), Some(BigUint::one()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = &BigUint::one() - &BigUint::from(2_u64);
    }

    #[test]
    fn sub_with_borrow_chain() {
        // 2^96 - 1 requires borrows across all limbs.
        let mut big = BigUint::zero();
        big.set_bit(96);
        let r = &big - &BigUint::one();
        assert_eq!(r.to_string(), "ffffffffffffffffffffffff");
        assert_eq!(&r + &BigUint::one(), big);
    }

    #[test]
    fn add_u32_assign_carries() {
        let mut n = BigUint::from(u32::MAX);
        n.add_u32_assign(1);
        assert_eq!(n.to_u64(), Some(1 << 32));
        let mut n = BigUint::from(u128::MAX);
        n.add_u32_assign(1);
        assert_eq!(n, BigUint::one().shl_bits(128));
        let mut z = BigUint::zero();
        z.add_u32_assign(0);
        assert!(z.is_zero());
    }
}
