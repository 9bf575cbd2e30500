//! Random [`BigUint`] generation from any [`rand::RngCore`].

use super::limb::LIMB_BITS;
use super::BigUint;
use rand::RngCore;

/// Draws the low `bits` bits of a value, one `next_u32` per 32-bit word
/// starting from the least significant: a limb is two draws, low word
/// first, and a top limb that needs only its low word takes only one.
/// (The draw order predates 64-bit limbs; seeded runs depend on it.)
fn random_limbs<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> Vec<u64> {
    let limbs = bits.div_ceil(LIMB_BITS);
    let mut v = vec![0u64; limbs];
    for word in 0..bits.div_ceil(32) {
        v[word / 2] |= (rng.next_u32() as u64) << (32 * (word % 2));
    }
    if let Some(top) = v.last_mut() {
        *top &= u64::MAX >> (limbs * LIMB_BITS - bits);
    }
    v
}

impl BigUint {
    /// Uniform random value with exactly `bits` significant bits
    /// (the top bit is always set, so the result has bit length `bits`).
    ///
    /// Returns zero when `bits == 0`.
    pub fn random_bits<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        if bits == 0 {
            return BigUint::zero();
        }
        let mut n = BigUint {
            limbs: random_limbs(bits, rng),
        };
        n.set_bit(bits - 1);
        n
    }

    /// Uniform random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    pub fn random_below<R: RngCore + ?Sized>(bound: &BigUint, rng: &mut R) -> BigUint {
        assert!(!bound.is_zero(), "random_below requires a nonzero bound");
        let bits = bound.bit_len();
        loop {
            let candidate = BigUint::from_limbs(random_limbs(bits, rng));
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Uniform random value in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics when `low >= high`.
    pub fn random_range<R: RngCore + ?Sized>(
        low: &BigUint,
        high: &BigUint,
        rng: &mut R,
    ) -> BigUint {
        assert!(low < high, "random_range requires low < high");
        let span = high - low;
        low + &BigUint::random_below(&span, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = Drbg::from_seed(1);
        for bits in [1usize, 2, 31, 32, 33, 63, 64, 65, 96, 127, 160, 512] {
            let n = BigUint::random_bits(bits, &mut rng);
            assert_eq!(n.bit_len(), bits, "bits={bits}");
        }
        assert!(BigUint::random_bits(0, &mut rng).is_zero());
    }

    #[test]
    fn draws_one_u32_per_word_low_word_first() {
        // The stream a seed produces must not depend on the limb width:
        // rebuild each value from the same draws taken 32 bits at a time.
        for bits in [1usize, 31, 32, 33, 64, 65, 96, 97, 160, 384, 1056] {
            let mut rng = Drbg::from_seed(9);
            let mut reference = Drbg::from_seed(9);
            let got = BigUint::random_bits(bits, &mut rng);
            let mut want = BigUint::zero();
            for word in 0..bits.div_ceil(32) {
                let w = BigUint::from(reference.next_u32());
                want = &want + &w.shl_bits(32 * word);
            }
            // Keep the low `bits` bits, force the top one.
            let mut want = want.rem(&BigUint::one().shl_bits(bits)).unwrap();
            want.set_bit(bits - 1);
            assert_eq!(got, want, "bits={bits}");
            // Both generators are now at the same position.
            assert_eq!(rng.next_u32(), reference.next_u32(), "bits={bits}");
        }
    }

    #[test]
    fn random_below_stays_in_range() {
        let mut rng = Drbg::from_seed(2);
        let bound = BigUint::from(1_000_u64);
        for _ in 0..200 {
            let v = BigUint::random_below(&bound, &mut rng);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_below_covers_small_domain() {
        let mut rng = Drbg::from_seed(3);
        let bound = BigUint::from(4_u64);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = BigUint::random_below(&bound, &mut rng).to_u64().unwrap();
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn random_range_bounds() {
        let mut rng = Drbg::from_seed(4);
        let low = BigUint::from(10_u64);
        let high = BigUint::from(20_u64);
        for _ in 0..100 {
            let v = BigUint::random_range(&low, &high, &mut rng);
            assert!(v >= low && v < high);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero bound")]
    fn random_below_zero_bound_panics() {
        let mut rng = Drbg::from_seed(5);
        let _ = BigUint::random_below(&BigUint::zero(), &mut rng);
    }
}
