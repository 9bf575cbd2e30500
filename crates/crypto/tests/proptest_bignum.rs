//! Property-based tests for the bignum substrate.
//!
//! These are the algebraic laws RSA correctness rests on; a bug in any
//! of them would silently corrupt every protocol handshake.
//!
//! Operands run from 0 to 2048 bits so that every limb-count regime is
//! hit: a single limb, widths that are an odd number of 32-bit words
//! (96, 160, 1056 — the top `u64` limb half filled), RSA-sized operands
//! with multi-digit Knuth D quotients, and products above the Karatsuba
//! threshold.

use mykil_crypto::bignum::{BigUint, MontgomeryCtx};
use proptest::prelude::*;

/// Strategy: a bit width in 0..=2048, weighted toward the limb seams.
fn width() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => 0usize..2049,
        2 => 0usize..193,
        1 => prop_oneof![
            Just(32usize), Just(63), Just(64), Just(65), Just(96), Just(128), Just(160),
            Just(384), Just(1024), Just(1056), Just(2047), Just(2048),
        ],
    ]
}

/// Strategy: a BigUint of exactly the drawn width (top bit set), filled
/// with random bits, all ones (longest carry chains) or only its low
/// word (zero limbs in the middle).
fn biguint() -> impl Strategy<Value = BigUint> {
    (
        width(),
        0u8..4,
        proptest::collection::vec(any::<u8>(), 256..257),
    )
        .prop_map(|(bits, shape, mut bytes)| {
            if bits == 0 {
                return BigUint::zero();
            }
            match shape {
                0 => bytes.fill(0xff),
                1 => bytes[..248].fill(0),
                _ => {}
            }
            let mut n = BigUint::from_bytes_be(&bytes).shr_bits(2048 - bits);
            n.set_bit(bits - 1);
            n
        })
}

/// Strategy: a nonzero BigUint.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|n| if n.is_zero() { BigUint::one() } else { n })
}

/// Strategy: an odd modulus greater than one.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|mut n| {
        n.set_bit(0);
        n.set_bit(1);
        n
    })
}

/// Strategy: an exponent of up to 320 bits (both ladders of `pow`).
fn exponent() -> impl Strategy<Value = BigUint> {
    (0usize..321, biguint()).prop_map(|(bits, n)| n.shr_bits(n.bit_len().saturating_sub(bits)))
}

/// Schoolbook product over little-endian bytes with `u32` columns:
/// shares no code, limb width or carry scheme with the crate's multiply.
fn reference_mul(a: &BigUint, b: &BigUint) -> BigUint {
    let (a, b) = (a.to_bytes_be(), b.to_bytes_be());
    let mut columns = vec![0u32; a.len() + b.len() + 1];
    for (i, &x) in a.iter().rev().enumerate() {
        let mut carry = 0u32;
        for (j, &y) in b.iter().rev().enumerate() {
            let t = columns[i + j] + x as u32 * y as u32 + carry;
            columns[i + j] = t & 0xff;
            carry = t >> 8;
        }
        columns[i + b.len()] += carry;
    }
    let bytes: Vec<u8> = columns.iter().rev().map(|&c| c as u8).collect();
    BigUint::from_bytes_be(&bytes)
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_round_trips(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn square_matches_self_mul(a in biguint()) {
        prop_assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn division_invariant(a in biguint(), b in biguint_nonzero()) {
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_identity_with_wide_quotients(q in biguint_nonzero(), b in biguint_nonzero(), r in biguint()) {
        // Build the dividend from a chosen quotient, so multi-digit
        // quotients over multi-limb divisors are the common case.
        let r = r.rem(&b).unwrap();
        let a = &(&q * &b) + &r;
        prop_assert_eq!(a.div_rem(&b).unwrap(), (q, r));
    }

    #[test]
    fn mul_matches_schoolbook_reference(a in biguint(), b in biguint()) {
        let want = reference_mul(&a, &b);
        prop_assert_eq!(&(&a * &b), &want);
        prop_assert_eq!(&(&b * &a), &want);
        prop_assert_eq!(a.square(), reference_mul(&a, &a));
    }

    #[test]
    fn montgomery_product_matches_mul_then_rem(a in biguint(), b in biguint(), n in odd_modulus()) {
        let ctx = MontgomeryCtx::new(n.clone()).unwrap();
        let mut ws = ctx.scratch();
        let (mut x, mut y) = (vec![0; ctx.limbs()], vec![0; ctx.limbs()]);
        ctx.to_mont(&mut x, &a, &mut ws);
        ctx.to_mont(&mut y, &b, &mut ws);
        prop_assert_eq!(ctx.from_mont(&x, &mut ws), a.rem(&n).unwrap());
        let mut sq = x.clone();
        ctx.sqr_assign(&mut sq, &mut ws);
        prop_assert_eq!(ctx.from_mont(&sq, &mut ws), a.square().rem(&n).unwrap());
        ctx.mul_assign(&mut x, &y, &mut ws);
        prop_assert_eq!(ctx.from_mont(&x, &mut ws), (&a * &b).rem(&n).unwrap());
    }

    #[test]
    fn pow_ladders_agree(a in biguint(), e in exponent(), n in odd_modulus()) {
        let ctx = MontgomeryCtx::new(n.clone()).unwrap();
        let windowed = ctx.pow_windowed(&a, &e);
        prop_assert_eq!(&ctx.pow_binary(&a, &e), &windowed);
        prop_assert_eq!(&ctx.pow(&a, &e), &windowed);
        prop_assert_eq!(&a.modpow(&e, &n).unwrap(), &windowed);
        // The even-modulus ladder (plain multiply + divide, no Montgomery
        // form): a^e mod 2n, reduced mod n, is a^e mod n.
        let even = a.modpow(&e, &n.shl_bits(1)).unwrap();
        prop_assert_eq!(&even.rem(&n).unwrap(), &windowed);
    }

    #[test]
    fn bytes_round_trip(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let n = BigUint::from_bytes_be(&data);
        let minimal = n.to_bytes_be();
        let skip = data.iter().take_while(|&&b| b == 0).count();
        prop_assert_eq!(&minimal[..], &data[skip..]);
        prop_assert_eq!(&BigUint::from_bytes_be(&minimal), &n);
        // Fixed-width form: left-padded to any length that fits, refused below.
        let padded = n.to_bytes_be_padded(data.len() + 3).unwrap();
        prop_assert_eq!(&padded[..skip + 3], &vec![0u8; skip + 3][..]);
        prop_assert_eq!(&padded[skip + 3..], &minimal[..]);
        prop_assert_eq!(minimal.len(), n.bit_len().div_ceil(8));
        if !minimal.is_empty() {
            prop_assert!(n.to_bytes_be_padded(minimal.len() - 1).is_err());
        }
    }

    #[test]
    fn shift_round_trip(a in biguint(), bits in 0usize..200) {
        prop_assert_eq!(a.shl_bits(bits).shr_bits(bits), a);
    }

    #[test]
    fn shl_is_mul_by_power(a in biguint(), bits in 0usize..200) {
        let p = BigUint::one().shl_bits(bits);
        prop_assert_eq!(a.shl_bits(bits), &a * &p);
    }

    #[test]
    fn modpow_product_law(
        a in biguint(),
        e1 in 0u64..200,
        e2 in 0u64..200,
        m in biguint_nonzero(),
    ) {
        // a^(e1+e2) == a^e1 * a^e2 (mod m), for m > 1
        prop_assume!(!m.is_one());
        let lhs = a.modpow(&BigUint::from(e1 + e2), &m).unwrap();
        let rhs = (&a.modpow(&BigUint::from(e1), &m).unwrap()
            * &a.modpow(&BigUint::from(e2), &m).unwrap())
            .rem(&m)
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_is_reduced(a in biguint(), e in 0u64..50, m in biguint_nonzero()) {
        let r = a.modpow(&BigUint::from(e), &m).unwrap();
        prop_assert!(r < m);
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).unwrap().is_zero());
        prop_assert!(b.rem(&g).unwrap().is_zero());
    }

    #[test]
    fn mod_inverse_is_inverse(a in biguint_nonzero(), m in biguint_nonzero()) {
        prop_assume!(!m.is_one());
        if let Ok(inv) = a.mod_inverse(&m) {
            let prod = (&a * &inv).rem(&m).unwrap();
            prop_assert!(prod.is_one());
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in biguint(), b in biguint()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}
