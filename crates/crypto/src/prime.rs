//! Primality testing and prime generation for RSA key material.
//!
//! Candidates are screened by trial division against a table of small
//! primes, then subjected to Miller–Rabin with independently sampled
//! bases. Error probability after `t` rounds is at most `4^-t`; the
//! default of 20 rounds is far below any systems-level concern.

use crate::bignum::{BigUint, MontgomeryCtx};
use crate::CryptoError;
use rand::RngCore;

/// Default number of Miller–Rabin rounds.
pub const DEFAULT_MR_ROUNDS: usize = 20;

/// Small primes for fast trial-division screening.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];
const LARGEST_SMALL_PRIME: u64 = SMALL_PRIMES[SMALL_PRIMES.len() - 1];

/// Returns `true` when `n`, larger than every small prime, is divisible
/// by one of them.
///
/// Seven primes below 2^9 multiply to less than 2^63, so the table is
/// swept with one multi-limb remainder per seven primes and word-sized
/// remainders from there.
fn has_small_factor(n: &BigUint) -> bool {
    SMALL_PRIMES.chunks(7).any(|primes| {
        let r = n.rem_limb(primes.iter().product());
        primes.iter().any(|&p| r.is_multiple_of(p))
    })
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Deterministic answers for `n <= 281` via the small-prime table; above
/// it candidates are screened by trial division once, here, before any
/// random base is drawn.
pub fn is_probably_prime<R: RngCore + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    // Handle tiny numbers exactly.
    if let Some(v) = n.to_u64() {
        if v <= LARGEST_SMALL_PRIME {
            return SMALL_PRIMES.contains(&v);
        }
    }
    if has_small_factor(n) {
        return false;
    }

    // Write n-1 = d * 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }

    // One context and one scratch per candidate; every witness is raised,
    // squared and compared in Montgomery form.
    let ctx = MontgomeryCtx::new(n.clone()).expect("odd modulus > 1");
    let mut ws = ctx.scratch();
    let (mut one_m, mut minus_one_m) = (vec![0; ctx.limbs()], vec![0; ctx.limbs()]);
    ctx.to_mont(&mut one_m, &one, &mut ws);
    ctx.to_mont(&mut minus_one_m, &n_minus_1, &mut ws);
    let mut x = vec![0; ctx.limbs()];

    let two = BigUint::from(2_u32);
    let n_minus_2 = n - &two;
    'witness: for _ in 0..rounds {
        let a = BigUint::random_range(&two, &n_minus_2, rng);
        ctx.to_mont(&mut x, &a, &mut ws);
        ctx.pow_assign(&mut x, &d, &mut ws);
        if x == one_m || x == minus_one_m {
            continue;
        }
        for _ in 0..s - 1 {
            ctx.sqr_assign(&mut x, &mut ws);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random prime with exactly `bits` significant bits.
///
/// The two top bits are forced to one (standard RSA practice, so that the
/// product of two such primes has the full `2·bits` length), and the low
/// bit is forced to one.
///
/// # Errors
///
/// Returns [`CryptoError::KeyGeneration`] when `bits < 8` or no prime is
/// found within a very generous candidate budget.
pub fn generate_prime<R: RngCore + ?Sized>(
    bits: usize,
    rng: &mut R,
) -> Result<BigUint, CryptoError> {
    search_prime(bits, rng, |_| true)
}

/// Generates a prime `p` with `gcd(p - 1, e) == 1`, as required for an
/// RSA prime under the odd public exponent `e`.
///
/// A candidate is screened against `e` with one word division *before*
/// its trial divisions and Miller–Rabin rounds: under `e = 17` one
/// prime in sixteen fails, and it fails for the price of a remainder
/// instead of a finished prime search.
///
/// # Errors
///
/// As [`generate_prime`], and for `e = 0`, which no prime satisfies.
pub fn generate_rsa_prime<R: RngCore + ?Sized>(
    bits: usize,
    e: u64,
    rng: &mut R,
) -> Result<BigUint, CryptoError> {
    if e == 0 {
        return Err(CryptoError::KeyGeneration("public exponent is zero"));
    }
    // gcd(p − 1, e) = gcd((p − 1) mod e, e), and p mod e tells the former.
    search_prime(bits, rng, |candidate| {
        let p_minus_1 = candidate.rem_limb(e).checked_sub(1).unwrap_or(e - 1);
        gcd_u64(p_minus_1, e) == 1
    })
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Draws candidates until one passes `screen` and then Miller–Rabin.
fn search_prime<R: RngCore + ?Sized>(
    bits: usize,
    rng: &mut R,
    screen: impl Fn(&BigUint) -> bool,
) -> Result<BigUint, CryptoError> {
    if bits < 8 {
        return Err(CryptoError::KeyGeneration("prime size below 8 bits"));
    }
    // Expected number of candidates is O(bits·ln 2 / 2); budget 100x that.
    let budget = bits * 40 + 1000;
    for _ in 0..budget {
        let mut candidate = BigUint::random_bits(bits, rng);
        candidate.set_bit(0); // odd
        candidate.set_bit(bits - 2); // top-two bits set
        if screen(&candidate) && is_probably_prime(&candidate, DEFAULT_MR_ROUNDS, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::KeyGeneration(
        "exhausted candidate budget without finding a prime",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn small_numbers_classified_exactly() {
        let mut rng = Drbg::from_seed(1);
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 281];
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 25, 49, 91, 121, 169, 279];
        for p in primes {
            assert!(
                is_probably_prime(&BigUint::from(p), 10, &mut rng),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !is_probably_prime(&BigUint::from(c), 10, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn known_larger_primes() {
        let mut rng = Drbg::from_seed(2);
        // 2^31 - 1 is a Mersenne prime; 2^61 - 1 is too.
        let m31 = BigUint::from((1u64 << 31) - 1);
        let m61 = BigUint::from((1u64 << 61) - 1);
        assert!(is_probably_prime(&m31, 20, &mut rng));
        assert!(is_probably_prime(&m61, 20, &mut rng));
        // 2^32 + 1 = 641 * 6700417 is composite (Euler).
        let f5 = BigUint::from((1u64 << 32) + 1);
        assert!(!is_probably_prime(&f5, 20, &mut rng));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = Drbg::from_seed(3);
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(
                !is_probably_prime(&BigUint::from(c), 20, &mut rng),
                "carmichael {c} must be rejected"
            );
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = Drbg::from_seed(4);
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(bits, &mut rng).unwrap();
            assert_eq!(p.bit_len(), bits, "bits={bits}");
            assert!(p.is_odd());
            assert!(p.bit(bits - 2), "second-highest bit forced");
            assert!(is_probably_prime(&p, 10, &mut rng));
        }
    }

    #[test]
    fn rsa_prime_coprime_with_e() {
        let mut rng = Drbg::from_seed(5);
        // 3 turns away every other prime, 15 is composite, 65537 nearly
        // never bites: the screen must hold for all of them.
        for e in [3u64, 15, 17, 65_537] {
            for _ in 0..8 {
                let p = generate_rsa_prime(96, e, &mut rng).unwrap();
                assert!(is_probably_prime(&p, 10, &mut rng));
                let p1 = &p - &BigUint::one();
                assert!(p1.gcd(&BigUint::from(e)).is_one(), "e={e} p={p}");
            }
        }
    }

    #[test]
    fn the_exponent_screen_draws_no_witnesses() {
        // A candidate the screen turns away costs the generator its own
        // bits and nothing else: with a screen that refuses everything
        // the stream advances by exactly one candidate per try.
        let mut rng = Drbg::from_seed(8);
        assert!(search_prime(64, &mut rng, |_| false).is_err());
        let mut reference = Drbg::from_seed(8);
        for _ in 0..64 * 40 + 1000 {
            BigUint::random_bits(64, &mut reference);
        }
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn tiny_sizes_rejected() {
        let mut rng = Drbg::from_seed(6);
        assert!(generate_prime(4, &mut rng).is_err());
    }

    #[test]
    fn distinct_primes_across_calls() {
        let mut rng = Drbg::from_seed(7);
        let a = generate_prime(64, &mut rng).unwrap();
        let b = generate_prime(64, &mut rng).unwrap();
        assert_ne!(a, b);
    }
}
