//! Word-level kernels shared by every multi-limb routine: `u64` limbs
//! combined through `u128` intermediates. `add_sub`, `mul`, `div` and
//! `montgomery` are loops over these, so carry handling lives here once.

use std::cmp::Ordering;

/// Bits per limb.
pub(crate) const LIMB_BITS: usize = 64;

/// `a + b + *carry`: returns the low limb, leaves the high part in `carry`.
#[inline(always)]
pub(crate) fn adc(a: u64, b: u64, carry: &mut u64) -> u64 {
    let t = a as u128 + b as u128 + *carry as u128;
    *carry = (t >> 64) as u64;
    t as u64
}

/// `a - b - *borrow` (borrow is 0 or 1): returns the low limb, leaves the
/// outgoing borrow in `borrow`.
#[inline(always)]
pub(crate) fn sbb(a: u64, b: u64, borrow: &mut u64) -> u64 {
    let t = (a as u128).wrapping_sub(b as u128 + *borrow as u128);
    *borrow = (t >> 127) as u64;
    t as u64
}

/// `acc + a·b + *carry`: returns the low limb, leaves the high limb in
/// `carry`. Cannot overflow: `(2^64−1)² + 2·(2^64−1) = 2^128 − 1`.
#[inline(always)]
pub(crate) fn mac(acc: u64, a: u64, b: u64, carry: &mut u64) -> u64 {
    let t = a as u128 * b as u128 + acc as u128 + *carry as u128;
    *carry = (t >> 64) as u64;
    t as u64
}

/// `acc[..b.len()] += a · b`; returns the limb carried out of the top.
#[inline]
pub(crate) fn add_mul_row(acc: &mut [u64], b: &[u64], a: u64) -> u64 {
    let mut carry = 0;
    for (dst, &bj) in acc.iter_mut().zip(b) {
        *dst = mac(*dst, a, bj, &mut carry);
    }
    carry
}

/// `acc += b` for `acc.len() >= b.len()`; returns the carry out of `acc`.
pub(crate) fn add_into(acc: &mut [u64], b: &[u64]) -> u64 {
    let (low, high) = acc.split_at_mut(b.len());
    let mut carry = 0;
    for (dst, &bj) in low.iter_mut().zip(b) {
        *dst = adc(*dst, bj, &mut carry);
    }
    for dst in high {
        if carry == 0 {
            break;
        }
        *dst = adc(*dst, 0, &mut carry);
    }
    carry
}

/// `acc -= b` for `acc.len() >= b.len()`; returns the borrow out of `acc`.
pub(crate) fn sub_from(acc: &mut [u64], b: &[u64]) -> u64 {
    let (low, high) = acc.split_at_mut(b.len());
    let mut borrow = 0;
    for (dst, &bj) in low.iter_mut().zip(b) {
        *dst = sbb(*dst, bj, &mut borrow);
    }
    for dst in high {
        if borrow == 0 {
            break;
        }
        *dst = sbb(*dst, 0, &mut borrow);
    }
    borrow
}

/// Magnitude order of two equal-length limb slices.
pub(crate) fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev())
}

/// Schoolbook product `out[..a.len() + b.len()] = a · b`.
pub(crate) fn mul_wide(out: &mut [u64], a: &[u64], b: &[u64]) {
    out[..a.len() + b.len()].fill(0);
    for (i, &ai) in a.iter().enumerate() {
        // Row i reaches out[i + b.len()] first, so its carry is a store.
        out[i + b.len()] = add_mul_row(&mut out[i..i + b.len()], b, ai);
    }
}

/// Square `out[..2·a.len()] = a²`: each off-diagonal product once, then
/// doubled with the diagonal squares added in the same pass — roughly
/// half the limb products of [`mul_wide`].
pub(crate) fn sqr_wide(out: &mut [u64], a: &[u64]) {
    let n = a.len();
    out[..2 * n].fill(0);
    for i in 0..n {
        out[i + n] = add_mul_row(&mut out[2 * i + 1..i + n], &a[i + 1..], a[i]);
    }
    let mut carry = 0;
    let mut shifted_out = 0;
    for (pair, &ai) in out[..2 * n].chunks_exact_mut(2).zip(a) {
        let sq = ai as u128 * ai as u128;
        let (lo, hi) = (pair[0], pair[1]);
        pair[0] = adc((lo << 1) | shifted_out, sq as u64, &mut carry);
        pair[1] = adc((hi << 1) | (lo >> 63), (sq >> 64) as u64, &mut carry);
        shifted_out = hi >> 63;
    }
    debug_assert_eq!((carry, shifted_out), (0, 0), "a² fits 2n limbs");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carry_and_borrow_chains() {
        let mut c = 1;
        assert_eq!(adc(u64::MAX, 0, &mut c), 0);
        assert_eq!(c, 1);
        let mut b = 1;
        assert_eq!(sbb(0, 0, &mut b), u64::MAX);
        assert_eq!(b, 1);
        assert_eq!(sbb(5, 3, &mut b), 1);
        assert_eq!(b, 0);
        let mut c = u64::MAX;
        assert_eq!(mac(u64::MAX, u64::MAX, u64::MAX, &mut c), u64::MAX);
        assert_eq!(c, u64::MAX);
    }

    #[test]
    fn sqr_wide_matches_mul_wide() {
        let a = [u64::MAX, 0x0123_4567_89ab_cdef, 0, u64::MAX - 1, 7];
        for n in 0..=a.len() {
            let mut sq = [0u64; 10];
            let mut prod = [0u64; 10];
            sqr_wide(&mut sq, &a[..n]);
            mul_wide(&mut prod, &a[..n], &a[..n]);
            assert_eq!(sq, prod, "n={n}");
        }
    }

    #[test]
    fn slice_add_sub_round_trip() {
        let mut acc = [u64::MAX, u64::MAX, 0];
        assert_eq!(add_into(&mut acc, &[1]), 0);
        assert_eq!(acc, [0, 0, 1]);
        assert_eq!(sub_from(&mut acc, &[1]), 0);
        assert_eq!(acc, [u64::MAX, u64::MAX, 0]);
        assert_eq!(sub_from(&mut [0u64, 0], &[1]), 1);
        assert_eq!(cmp_limbs(&[1, 2], &[2, 1]), Ordering::Greater);
    }
}
