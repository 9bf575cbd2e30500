//! Division with remainder — Knuth TAOCP Vol. 2, Algorithm 4.3.1 D.

use super::limb::{add_into, mac, sbb};
use super::BigUint;
use crate::CryptoError;

impl BigUint {
    /// Computes `(self / divisor, self % divisor)`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), CryptoError> {
        if divisor.is_zero() {
            return Err(CryptoError::InvalidParameter("division by zero"));
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if let [d] = divisor.limbs[..] {
            let (q, r) = self.div_rem_limb(d);
            return Ok((q, BigUint::from(r)));
        }
        Ok(self.div_rem_knuth(divisor))
    }

    /// Computes `self % modulus`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `modulus` is zero.
    pub fn rem(&self, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        Ok(self.div_rem(modulus)?.1)
    }

    /// Single-limb short division.
    fn div_rem_limb(&self, d: u64) -> (BigUint, u64) {
        debug_assert!(d != 0);
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for (qi, &limb) in q.iter_mut().zip(&self.limbs).rev() {
            let cur = (rem as u128) << 64 | limb as u128;
            *qi = (cur / d as u128) as u64;
            rem = (cur % d as u128) as u64;
        }
        (BigUint::from_limbs(q), rem)
    }

    /// `self % d` for a nonzero single-limb `d`, without building the
    /// quotient (trial division in `prime.rs`).
    pub(crate) fn rem_limb(&self, d: u64) -> u64 {
        debug_assert!(d != 0);
        self.limbs.iter().rev().fold(0u64, |rem, &limb| {
            (((rem as u128) << 64 | limb as u128) % d as u128) as u64
        })
    }

    /// Knuth Algorithm D for divisors of two or more limbs.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl_bits(shift);
        let vn = &v.limbs[..];
        let n = vn.len();
        // Working copy of the dividend with one extra high limb.
        let mut un = self.shl_bits(shift).limbs;
        let m = un.len() - n;
        un.push(0);
        let v_top = vn[n - 1] as u128;
        let v_next = vn[n - 2] as u128;

        let mut q = vec![0u64; m + 1];
        const BASE: u128 = 1 << 64;

        // D2-D7: main loop over quotient digits, most significant first.
        for j in (0..=m).rev() {
            // D3: estimate q_hat from the top two dividend limbs.
            let num = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
            let mut q_hat = num / v_top;
            let mut r_hat = num % v_top;
            while q_hat >= BASE || q_hat * v_next > (r_hat << 64 | un[j + n - 2] as u128) {
                q_hat -= 1;
                r_hat += v_top;
                if r_hat >= BASE {
                    break;
                }
            }
            let mut q_hat = q_hat as u64;

            // D4: multiply and subtract q_hat * v from the window.
            let window = &mut un[j..=j + n];
            let mut carry = 0;
            let mut borrow = 0;
            for (u, &vi) in window.iter_mut().zip(vn) {
                let p = mac(0, q_hat, vi, &mut carry);
                *u = sbb(*u, p, &mut borrow);
            }
            window[n] = sbb(window[n], carry, &mut borrow);

            // D5/D6: if we subtracted one v too many, add it back (the
            // carry out of the window cancels the borrow).
            if borrow != 0 {
                q_hat -= 1;
                add_into(window, vn);
            }
            q[j] = q_hat;
        }

        // D8: denormalize the remainder.
        un.truncate(n);
        let rem = BigUint::from_limbs(un).shr_bits(shift);
        (BigUint::from_limbs(q), rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &BigUint, b: &BigUint) {
        let (q, r) = a.div_rem(b).unwrap();
        assert!(r < *b, "remainder not reduced: {r} >= {b}");
        assert_eq!(&(&q * b) + &r, *a, "q*b + r != a for a={a} b={b}");
    }

    #[test]
    fn division_by_zero_errors() {
        let a = BigUint::from(5_u64);
        assert!(a.div_rem(&BigUint::zero()).is_err());
        assert!(a.rem(&BigUint::zero()).is_err());
    }

    #[test]
    fn small_cases() {
        let a = BigUint::from(100_u64);
        let b = BigUint::from(7_u64);
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q.to_u64(), Some(14));
        assert_eq!(r.to_u64(), Some(2));
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let a = BigUint::from(3_u64);
        let b = BigUint::from(10_u64);
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn exact_division() {
        let b = BigUint::from_bytes_be(&[0xab; 9]);
        let a = &b * &BigUint::from(123_456_u64);
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q.to_u64(), Some(123_456));
        assert!(r.is_zero());
    }

    #[test]
    fn single_limb_divisor_path() {
        let a = BigUint::from_bytes_be(&[0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10, 0xff]);
        check(&a, &BigUint::from(0xdead_u32));
        check(&a, &BigUint::from(1_u32));
        check(&a, &BigUint::from(u32::MAX));
    }

    #[test]
    fn knuth_d6_add_back_case() {
        // Hacker's Delight's "add-back is required" vector, carried from
        // 32-bit to 64-bit digits: the estimate from the top two limbs is
        // one too large and only the full multiply-subtract notices.
        let top = 1u64 << 63;
        let u = BigUint::from_limbs(vec![0, u64::MAX - 1, 0, top]);
        let v = BigUint::from_limbs(vec![u64::MAX, 0, top]);
        let (q, r) = u.div_rem(&v).unwrap();
        assert_eq!(q, BigUint::from(u64::MAX));
        assert_eq!(r, BigUint::from_limbs(vec![u64::MAX, u64::MAX, top - 1]));
        check(&u, &v);
        // The vector this test carried when digits were 32 bits wide.
        let b32 = BigUint::one().shl_bits(32);
        let v = &b32.shl_bits(32).shr_bits(1) + &BigUint::one();
        let u = BigUint::one().shl_bits(127);
        check(&u, &v);
    }

    #[test]
    fn wide_operands() {
        let a = BigUint::from_bytes_be(&[0x77; 64]);
        let b = BigUint::from_bytes_be(&[0x13; 24]);
        check(&a, &b);
        check(&b, &a);
        check(&a, &a);
    }

    #[test]
    fn rem_matches_div_rem() {
        let a = BigUint::from_bytes_be(&[0x42; 17]);
        let m = BigUint::from_bytes_be(&[9, 9, 9, 9, 9]);
        assert_eq!(a.rem(&m).unwrap(), a.div_rem(&m).unwrap().1);
    }
}
