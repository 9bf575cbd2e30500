//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] stores numbers as little-endian `u64` limbs; every limb
//! product and carry chain goes through a `u128` intermediate (the
//! kernels in `limb.rs`), and there is no second limb width anywhere in
//! the module. The representation is always *normalized*: no
//! most-significant zero limbs, and zero is the empty limb vector.
//! Arithmetic is schoolbook (Karatsuba above 32 limbs) with a Knuth
//! Algorithm D division on 64-bit digits and Montgomery-form modular
//! exponentiation for odd moduli (the RSA case).
//!
//! Random values are still drawn one `next_u32` at a time, low word of a
//! limb first, so a seeded generator yields the same numbers it did when
//! limbs were 32 bits wide.
//!
//! `BigUint` operators allocate their result. The hot path does not:
//! [`MontgomeryCtx`] works on limb slices with a caller-owned
//! [`MontScratch`], and an RSA key builds its contexts once (see
//! `montgomery.rs` for who owns and who wipes what).
//!
//! The API covers exactly what RSA and Miller–Rabin need; it is not a
//! general-purpose bignum crate.
//!
//! # Example
//!
//! ```
//! use mykil_crypto::bignum::BigUint;
//!
//! let a = BigUint::from(0xdead_beef_u64);
//! let b = BigUint::from(48_879_u64);
//! let (q, r) = a.div_rem(&b)?;
//! assert_eq!(&q * &b + &r, a);
//! # Ok::<(), mykil_crypto::CryptoError>(())
//! ```

mod add_sub;
mod convert;
mod div;
mod karatsuba;
mod limb;
mod modular;
mod montgomery;
mod mul;
mod random;
mod shift;

pub(crate) use convert::{limb_byte, limbs_to_be};
pub use montgomery::{MontScratch, MontgomeryCtx};

use limb::LIMB_BITS;

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Stored as normalized little-endian `u64` limbs. Implements the
/// arithmetic operators for both owned values and references; operations
/// that can fail (division by zero, missing inverse) return
/// [`Result`](crate::CryptoError) instead of panicking.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs with no trailing (most-significant) zeros.
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The number zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The number one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Volatile-wipes the limbs and leaves the value zero. Used by key
    /// types whose components are private material.
    pub(crate) fn zeroize(&mut self) {
        crate::ct::zeroize_u64(&mut self.limbs);
        self.limbs.clear();
    }

    /// Builds a value from little-endian limbs, normalizing trailing zeros.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` when the value is exactly one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` when the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` when the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (zero has bit length 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * LIMB_BITS - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian order), `false` beyond the top bit.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the limb vector if necessary.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / LIMB_BITS;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % LIMB_BITS);
    }

    /// Number of limbs in the normalized representation.
    pub(crate) fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// Interprets the low 64 bits of the value.
    ///
    /// Returns `None` when the value does not fit in a `u64`.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs[..] {
            [] => Some(0),
            [v] => Some(v),
            _ => None,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        limb::cmp_limbs(&self.limbs, &other.limbs)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{self})")
    }
}

impl fmt::Display for BigUint {
    /// Hexadecimal rendering (no `0x` prefix); zero prints as `0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut iter = self.limbs.iter().rev();
        if let Some(top) = iter.next() {
            write!(f, "{top:x}")?;
        }
        for limb in iter {
            write!(f, "{limb:016x}")?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_properties() {
        let z = BigUint::zero();
        assert!(z.is_zero());
        assert!(z.is_even());
        assert!(!z.is_odd());
        assert_eq!(z.bit_len(), 0);
        assert_eq!(z.to_u64(), Some(0));
        assert_eq!(z, BigUint::default());
    }

    #[test]
    fn one_properties() {
        let o = BigUint::one();
        assert!(o.is_one());
        assert!(o.is_odd());
        assert_eq!(o.bit_len(), 1);
        assert_eq!(o.to_u64(), Some(1));
    }

    #[test]
    fn normalization_strips_high_zero_limbs() {
        let n = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(n.limb_len(), 1);
        assert_eq!(n.to_u64(), Some(5));
    }

    #[test]
    fn bit_access_round_trips() {
        let mut n = BigUint::zero();
        n.set_bit(0);
        n.set_bit(33);
        n.set_bit(95);
        assert!(n.bit(0));
        assert!(n.bit(33));
        assert!(n.bit(95));
        assert!(!n.bit(1));
        assert!(!n.bit(96));
        assert_eq!(n.bit_len(), 96);
    }

    #[test]
    fn ordering_by_magnitude() {
        let small = BigUint::from(7_u64);
        let big = BigUint::from(u64::MAX);
        let bigger = &big + &BigUint::one();
        assert!(small < big);
        assert!(big < bigger);
        assert_eq!(small.cmp(&small.clone()), Ordering::Equal);
    }

    #[test]
    fn display_hex() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from(0xdeadbeef_u64).to_string(), "deadbeef");
        assert_eq!(
            BigUint::from(0x1_0000_0001_u64).to_string(),
            "100000001"
        );
        assert_eq!(format!("{:?}", BigUint::from(255_u64)), "BigUint(0xff)");
    }

    #[test]
    fn to_u64_overflow() {
        let mut n = BigUint::zero();
        n.set_bit(64);
        assert_eq!(n.to_u64(), None);
    }
}
