//! Montgomery-form modular arithmetic for odd moduli.
//!
//! RSA moduli are always odd, so [`MontgomeryCtx`] is the fast path for
//! every modular exponentiation in the crate. With `s` the limb count of
//! the modulus `n` and `R = 2^(64·s)`, a residue `a` is kept as the `s`
//! limbs of `a·R mod n`; a product is a double-width schoolbook product
//! (or the cheaper square) followed by one word-by-word Montgomery
//! reduction.
//!
//! # Who owns what
//!
//! - The **context** (`n`, `−n⁻¹ mod 2^64`, `R² mod n`) costs a
//!   double-width division to build and never changes, so whoever owns
//!   the modulus owns the context: [`RsaPublicKey`](crate::rsa::RsaPublicKey)
//!   carries the one for `n`, [`RsaKeyPair`](crate::rsa::RsaKeyPair)
//!   those for `p` and `q`, Miller–Rabin builds one per candidate.
//!   [`BigUint::modpow`] is the only entry that builds one per call.
//! - **Residues** are caller-owned `s`-limb slices, updated in place.
//! - **Scratch** — the double-width product and the window table of an
//!   exponentiation, one buffer — is a caller-owned [`MontScratch`]:
//!   allocated once per exponentiation (or once per prime candidate) and
//!   reused by every product in it, so a product allocates nothing.
//!
//! # What is wiped
//!
//! [`MontScratch`] volatile-wipes itself on drop, and
//! [`MontgomeryCtx::pow_windowed`] wipes its accumulator before
//! returning: both hold powers of the base under a private exponent.
//! The short-exponent ladder ([`MontgomeryCtx::pow_binary`], the RSA
//! public operation) uses no `MontScratch` and wipes nothing. A context
//! for a secret modulus (`p`, `q`) is wiped by its owner through
//! `zeroize`, like the primes were before the contexts absorbed them.

use super::convert::limbs_from_be;
use super::limb::{adc, add_mul_row, cmp_limbs, mul_wide, sbb, sqr_wide, LIMB_BITS};
use super::BigUint;
use crate::ct::zeroize_u64;
use crate::CryptoError;
use std::cmp::Ordering;

/// Window width of [`MontgomeryCtx::pow_assign`], in exponent bits.
const WINDOW: usize = 4;
/// Powers `base^1 ..= base^(2^WINDOW − 1)` kept in the table.
const TABLE_ENTRIES: usize = (1 << WINDOW) - 1;

/// Precomputed context for modular arithmetic modulo a fixed odd `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryCtx {
    /// The modulus; its limb count `s` defines `R = 2^(64·s)`.
    n: BigUint,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` padded to `s` limbs, used to convert into Montgomery form.
    r2: Vec<u64>,
}

/// Workspace of one context: `2s` limbs for the double-width product,
/// then the window table of an exponentiation. Wiped on drop.
pub struct MontScratch {
    buf: Vec<u64>,
}

impl Drop for MontScratch {
    fn drop(&mut self) {
        zeroize_u64(&mut self.buf);
    }
}

impl MontgomeryCtx {
    /// Builds a context for the odd modulus `n > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `n` is even or `<= 1`.
    pub fn new(n: BigUint) -> Result<Self, CryptoError> {
        if n.is_even() || n.is_one() {
            return Err(CryptoError::InvalidParameter(
                "montgomery modulus must be odd and greater than one",
            ));
        }
        let s = n.limb_len();
        // Newton iteration for the inverse of n mod 2^64: each round
        // doubles the number of correct low bits, starting from one.
        let n0 = n.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        // R^2 mod n via shifting.
        let mut r2 = BigUint::one().shl_bits(2 * LIMB_BITS * s).rem(&n)?.limbs;
        r2.resize(s, 0);
        Ok(MontgomeryCtx {
            n,
            n_prime: inv.wrapping_neg(),
            r2,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Limb count `s` of the modulus: the length of every residue slice.
    pub fn limbs(&self) -> usize {
        self.n.limb_len()
    }

    /// Volatile-wipes a context whose modulus is secret (an RSA prime).
    pub(crate) fn zeroize(&mut self) {
        self.n.zeroize();
        self.n_prime = 0;
        zeroize_u64(&mut self.r2);
        self.r2.clear();
    }

    /// Allocates the workspace every other method borrows.
    pub fn scratch(&self) -> MontScratch {
        MontScratch {
            buf: vec![0; (2 + TABLE_ENTRIES) * self.limbs()],
        }
    }

    /// Writes `a mod n` into `x` in Montgomery form.
    pub fn to_mont(&self, x: &mut [u64], a: &BigUint, ws: &mut MontScratch) {
        self.load_mont(x, a, &mut ws.buf[..2 * self.limbs()]);
    }

    /// Converts the residue `x` out of Montgomery form.
    pub fn from_mont(&self, x: &[u64], ws: &mut MontScratch) -> BigUint {
        self.unload_mont(x, &mut ws.buf[..2 * self.limbs()])
    }

    fn load_mont(&self, x: &mut [u64], a: &BigUint, t: &mut [u64]) {
        let reduced;
        let a = if *a < self.n {
            a
        } else {
            reduced = a.rem(&self.n).expect("modulus is nonzero");
            &reduced
        };
        x.fill(0);
        x[..a.limbs.len()].copy_from_slice(&a.limbs);
        self.mul_with(x, &self.r2, t);
    }

    fn unload_mont(&self, x: &[u64], t: &mut [u64]) -> BigUint {
        let mut out = x.to_vec();
        self.leave_mont(&mut out, t);
        BigUint::from_limbs(out)
    }

    /// Takes the residue `x` out of Montgomery form in place.
    fn leave_mont(&self, x: &mut [u64], t: &mut [u64]) {
        let s = self.limbs();
        t[..s].copy_from_slice(x);
        t[s..].fill(0);
        self.redc(x, t);
    }

    /// Montgomery product in place: `x = x·y·R⁻¹ mod n`.
    pub fn mul_assign(&self, x: &mut [u64], y: &[u64], ws: &mut MontScratch) {
        self.mul_with(x, y, &mut ws.buf[..2 * self.limbs()]);
    }

    /// Montgomery square in place: `x = x²·R⁻¹ mod n`.
    pub fn sqr_assign(&self, x: &mut [u64], ws: &mut MontScratch) {
        self.sqr_with(x, &mut ws.buf[..2 * self.limbs()]);
    }

    fn mul_with(&self, x: &mut [u64], y: &[u64], t: &mut [u64]) {
        mul_wide(t, x, y);
        self.redc(x, t);
    }

    fn sqr_with(&self, x: &mut [u64], t: &mut [u64]) {
        sqr_wide(t, x);
        self.redc(x, t);
    }

    /// Montgomery reduction: `x = t·R⁻¹ mod n` for the `2s`-limb
    /// `t < n·R`, which is clobbered.
    fn redc(&self, x: &mut [u64], t: &mut [u64]) {
        let n = &self.n.limbs[..];
        let s = n.len();
        // Each round makes the lowest live limb zero by adding a multiple
        // of n, then moves one limb up; `top` is the carry out of t[i+s].
        let mut top = 0;
        for i in 0..s {
            let m = t[i].wrapping_mul(self.n_prime);
            let carry = add_mul_row(&mut t[i..i + s], n, m);
            t[i + s] = adc(t[i + s], carry, &mut top);
        }
        let hi = &t[s..];
        if top != 0 || cmp_limbs(hi, n) != Ordering::Less {
            let mut borrow = 0;
            for ((dst, &h), &nj) in x.iter_mut().zip(hi).zip(n) {
                *dst = sbb(h, nj, &mut borrow);
            }
        } else {
            x.copy_from_slice(hi);
        }
    }

    /// Exponentiation in place on a residue in Montgomery form:
    /// `x = x^exp`, fixed 4-bit window over the exponent (~25% fewer
    /// products than the binary ladder at RSA private-exponent sizes).
    pub fn pow_assign(&self, x: &mut [u64], exp: &BigUint, ws: &mut MontScratch) {
        let s = self.limbs();
        let (t, table) = ws.buf.split_at_mut(2 * s);
        if exp.is_zero() {
            // 1 in Montgomery form is R mod n = redc(R²).
            x.fill(0);
            x[0] = 1;
            return self.mul_with(x, &self.r2, t);
        }
        // table[k-1] = x^k for k = 1..=15, in one buffer.
        table[..s].copy_from_slice(x);
        for k in 1..TABLE_ENTRIES {
            let (done, rest) = table.split_at_mut(k * s);
            rest[..s].copy_from_slice(&done[(k - 1) * s..]);
            self.mul_with(&mut rest[..s], &done[..s], t);
        }
        // Walk the exponent MSB-first in 4-bit digits; the top digit is
        // never zero, so it seeds the accumulator.
        let digit =
            |d: usize| (0..WINDOW).fold(0, |acc, b| acc | (exp.bit(d * WINDOW + b) as usize) << b);
        let digits = exp.bit_len().div_ceil(WINDOW);
        let entry = |k: usize| &table[(k - 1) * s..k * s];
        x.copy_from_slice(entry(digit(digits - 1)));
        for d in (0..digits - 1).rev() {
            for _ in 0..WINDOW {
                self.sqr_with(x, t);
            }
            match digit(d) {
                0 => {}
                k => self.mul_with(x, entry(k), t),
            }
        }
    }

    /// Modular exponentiation `base^exp mod n`.
    ///
    /// Uses the windowed ladder for large exponents (the RSA private-op
    /// case) and the plain ladder for short ones.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.bit_len() >= 64 {
            self.pow_windowed(base, exp)
        } else {
            self.pow_binary(base, exp)
        }
    }

    /// Left-to-right square-and-multiply: the short-exponent path and
    /// the reference the windowed path is cross-checked against in
    /// tests. The RSA public operation enters it through
    /// [`pow_binary_be`](Self::pow_binary_be).
    pub fn pow_binary(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let reduced;
        let base = if *base < self.n {
            base
        } else {
            reduced = base.rem(&self.n).expect("modulus is nonzero");
            &reduced
        };
        let mut buf = vec![0; self.ladder_limbs()];
        buf[..base.limbs.len()].copy_from_slice(&base.limbs);
        BigUint::from_limbs(self.ladder(buf, exp))
    }

    /// [`pow_binary`](Self::pow_binary) for a base that arrives as a
    /// big-endian block of at most `8·s` bytes, as an RSA signature or
    /// padded message does: the `s` little-endian limbs of
    /// `base^exp mod n`, or `None` unless `base < n`. The returned
    /// vector is the call's one allocation.
    pub(crate) fn pow_binary_be(&self, base: &[u8], exp: &BigUint) -> Option<Vec<u64>> {
        let s = self.limbs();
        if base.len() > 8 * s {
            return None;
        }
        let mut buf = vec![0; self.ladder_limbs()];
        limbs_from_be(&mut buf[..s], base);
        if cmp_limbs(&buf[..s], &self.n.limbs) != Ordering::Less {
            return None;
        }
        Some(self.ladder(buf, exp))
    }

    /// Limbs of the buffer [`ladder`](Self::ladder) works in:
    /// accumulator, base, base in Montgomery form, double-width product.
    fn ladder_limbs(&self) -> usize {
        5 * self.limbs()
    }

    /// The ladder itself, on one [`ladder_limbs`](Self::ladder_limbs)
    /// buffer whose low `s` limbs hold the base `< n` on entry and which
    /// comes back cut to the `s` limbs of the result.
    ///
    /// No [`MontScratch`]: no window table it would never read, and no
    /// wipe, because nothing here depends on a private key (a
    /// verification's inputs are all public; an encryption's base is the
    /// padded plaintext its caller already keeps in an ordinary `Vec`).
    fn ladder(&self, mut buf: Vec<u64>, exp: &BigUint) -> Vec<u64> {
        let s = self.limbs();
        let (x, rest) = buf.split_at_mut(s);
        let (base, rest) = rest.split_at_mut(s);
        let (base_m, t) = rest.split_at_mut(s);
        if exp.is_zero() {
            x.fill(0);
            x[0] = 1;
        } else {
            base.copy_from_slice(x);
            self.mul_with(x, &self.r2, t);
            base_m.copy_from_slice(x);
            let top = exp.bit_len() - 1;
            for i in (0..top).rev() {
                self.sqr_with(x, t);
                if exp.bit(i) {
                    // The last product of an odd exponent takes the
                    // plain base: (v·R)·base·R⁻¹ is out of Montgomery
                    // form with no reduction of its own.
                    self.mul_with(x, if i == 0 { base } else { base_m }, t);
                }
            }
            if top == 0 || exp.is_even() {
                self.leave_mont(x, t);
            }
        }
        buf.truncate(s);
        buf
    }

    /// Fixed 4-bit-window exponentiation in Montgomery form; scratch
    /// and accumulator are wiped (the exponent may be private).
    pub fn pow_windowed(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut ws = self.scratch();
        let mut x = vec![0; self.limbs()];
        self.to_mont(&mut x, base, &mut ws);
        self.pow_assign(&mut x, exp, &mut ws);
        let out = self.from_mont(&x, &mut ws);
        zeroize_u64(&mut x);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: u64) -> MontgomeryCtx {
        MontgomeryCtx::new(BigUint::from(n)).unwrap()
    }

    /// `a·b mod n` through one Montgomery product.
    fn mont_product(c: &MontgomeryCtx, a: &BigUint, b: &BigUint) -> BigUint {
        let mut ws = c.scratch();
        let (mut am, mut bm) = (vec![0; c.limbs()], vec![0; c.limbs()]);
        c.to_mont(&mut am, a, &mut ws);
        c.to_mont(&mut bm, b, &mut ws);
        c.mul_assign(&mut am, &bm, &mut ws);
        c.from_mont(&am, &mut ws)
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontgomeryCtx::new(BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(BigUint::one()).is_err());
        assert!(MontgomeryCtx::new(BigUint::from(10_u64)).is_err());
        assert!(MontgomeryCtx::new(BigUint::from(9_u64)).is_ok());
    }

    #[test]
    fn mont_round_trip() {
        let c = ctx(1_000_000_007);
        let mut ws = c.scratch();
        let mut xm = vec![0; c.limbs()];
        for v in [0u64, 1, 2, 999_999_999, 123_456_789] {
            let x = BigUint::from(v);
            c.to_mont(&mut xm, &x, &mut ws);
            assert_eq!(c.from_mont(&xm, &mut ws), x, "v={v}");
        }
        // Unreduced input is reduced on the way in.
        c.to_mont(&mut xm, &BigUint::from(2_000_000_015_u64), &mut ws);
        assert_eq!(c.from_mont(&xm, &mut ws).to_u64(), Some(1));
    }

    #[test]
    fn mont_mul_matches_plain() {
        let c = ctx(0xffff_ffff_ffff_fff1); // odd 64-bit modulus
        let a = BigUint::from(0x1234_5678_9abc_def0_u64);
        let b = BigUint::from(0x0fed_cba9_8765_4321_u64);
        let expected = (&a * &b).rem(c.modulus()).unwrap();
        assert_eq!(mont_product(&c, &a, &b), expected);
    }

    #[test]
    fn mont_square_matches_product_at_rsa_widths() {
        use crate::drbg::Drbg;
        let mut rng = Drbg::from_seed(7);
        // Odd word counts leave the top limb half filled.
        for bits in [65usize, 96, 160, 384, 1024, 1056] {
            let mut n = BigUint::random_bits(bits, &mut rng);
            n.set_bit(0);
            let c = MontgomeryCtx::new(n.clone()).unwrap();
            let mut ws = c.scratch();
            for _ in 0..4 {
                // Values just below n stress the final subtraction.
                let a = &n - &BigUint::random_bits(bits / 3, &mut rng);
                let mut sq = vec![0; c.limbs()];
                c.to_mont(&mut sq, &a, &mut ws);
                c.sqr_assign(&mut sq, &mut ws);
                let want = a.square().rem(&n).unwrap();
                assert_eq!(c.from_mont(&sq, &mut ws), want, "bits={bits}");
                assert_eq!(mont_product(&c, &a, &a), want, "bits={bits}");
            }
        }
    }

    #[test]
    fn scratch_is_reusable_and_context_wipes() {
        let mut c = ctx(0xffff_ffff_ffff_fff1);
        let mut ws = c.scratch();
        let mut x = vec![0; c.limbs()];
        for v in [3u64, 5, 7] {
            c.to_mont(&mut x, &BigUint::from(v), &mut ws);
            c.pow_assign(&mut x, &BigUint::from(u64::MAX), &mut ws);
            let want = c.pow_binary(&BigUint::from(v), &BigUint::from(u64::MAX));
            assert_eq!(c.from_mont(&x, &mut ws), want);
        }
        c.zeroize();
        assert!(c.modulus().is_zero() && c.r2.is_empty() && c.n_prime == 0);
    }

    #[test]
    fn pow_small_cases() {
        let c = ctx(97);
        // 5^96 mod 97 == 1 (Fermat)
        let r = c.pow(&BigUint::from(5_u64), &BigUint::from(96_u64));
        assert!(r.is_one());
        // base^0 == 1, on both ladders
        let r = c.pow(&BigUint::from(5_u64), &BigUint::zero());
        assert!(r.is_one());
        assert!(c
            .pow_windowed(&BigUint::from(5_u64), &BigUint::zero())
            .is_one());
        // base^1 == base
        let r = c.pow(&BigUint::from(5_u64), &BigUint::one());
        assert_eq!(r.to_u64(), Some(5));
    }

    #[test]
    fn pow_matches_u128_reference() {
        let modulus = 0xdead_beef_0000_0001_u64; // odd
        let c = ctx(modulus);
        let mut expected = 1u128;
        let base = 0x1357_9bdf_u64;
        for e in 0..64u64 {
            let got = c
                .pow(&BigUint::from(base), &BigUint::from(e))
                .to_u64()
                .unwrap();
            assert_eq!(got as u128, expected, "e={e}");
            expected = expected * base as u128 % modulus as u128;
        }
    }

    #[test]
    fn windowed_matches_binary_ladder() {
        use crate::drbg::Drbg;
        let mut rng = Drbg::from_seed(42);
        // Random odd moduli of assorted widths; exponents long enough to
        // hit the windowed path.
        for bits in [64usize, 96, 256, 512, 1056] {
            let mut n = BigUint::random_bits(bits, &mut rng);
            n.set_bit(0);
            if n.is_one() {
                continue;
            }
            let c = MontgomeryCtx::new(n).unwrap();
            for _ in 0..3 {
                let base = BigUint::random_bits(bits, &mut rng);
                let exp = BigUint::random_bits(bits.max(65), &mut rng);
                assert_eq!(
                    c.pow_windowed(&base, &exp),
                    c.pow_binary(&base, &exp),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn the_byte_entry_matches_the_ladder_and_checks_the_range() {
        use crate::drbg::Drbg;
        let mut rng = Drbg::from_seed(43);
        for bits in [65usize, 96, 768, 1056] {
            let mut n = BigUint::random_bits(bits, &mut rng);
            n.set_bit(0);
            let c = MontgomeryCtx::new(n.clone()).unwrap();
            let k = bits.div_ceil(8);
            // Odd, even, one and long exponents walk every arm.
            for exp in [1u64, 2, 3, 6, 17, 65_537, u64::MAX] {
                let exp = BigUint::from(exp);
                let base = BigUint::random_below(&n, &mut rng);
                let want = c.pow_binary(&base, &exp);
                let be = base.to_bytes_be_padded(k).unwrap();
                let got = c.pow_binary_be(&be, &exp).unwrap();
                assert_eq!(got.len(), c.limbs());
                assert_eq!(BigUint::from_limbs(got), want, "bits={bits}");
                // ... and both match schoolbook multiply-and-divide.
                let plain = (0..exp.bit_len()).rev().fold(BigUint::one(), |acc, i| {
                    let sq = acc.square().rem(&n).unwrap();
                    match exp.bit(i) {
                        true => (&sq * &base).rem(&n).unwrap(),
                        false => sq,
                    }
                });
                assert_eq!(want, plain, "bits={bits}");
            }
            let e = BigUint::from(17_u64);
            assert!(c.pow_binary_be(&n.to_bytes_be(), &e).is_none());
            assert!(c.pow_binary_be(&vec![0; 8 * c.limbs() + 1], &e).is_none());
            let below = (&n - &BigUint::one()).to_bytes_be();
            assert!(c.pow_binary_be(&below, &e).is_some());
            assert_eq!(c.pow_binary_be(&[], &e).unwrap(), vec![0; c.limbs()]);
        }
    }

    #[test]
    fn windowed_edge_exponents() {
        let c = ctx(0xffff_ffff_ffff_fff1);
        let b = BigUint::from(12_345_u64);
        assert!(c.pow_windowed(&b, &BigUint::zero()).is_one());
        assert_eq!(
            c.pow_windowed(&b, &BigUint::one()),
            c.pow_binary(&b, &BigUint::one())
        );
        // Exponent with long zero runs (exercises empty windows).
        let mut sparse = BigUint::zero();
        sparse.set_bit(0);
        sparse.set_bit(77);
        sparse.set_bit(200);
        assert_eq!(c.pow_windowed(&b, &sparse), c.pow_binary(&b, &sparse));
    }

    #[test]
    fn wide_modulus_pow() {
        // 193-bit odd modulus; verify a^(e1+e2) == a^e1 * a^e2.
        let mut n = BigUint::one().shl_bits(192);
        n.add_u32_assign(0x61); // odd tail
        let c = MontgomeryCtx::new(n.clone()).unwrap();
        let a = BigUint::from_bytes_be(&[0x5a; 20]);
        let e1 = BigUint::from(12_345_u64);
        let e2 = BigUint::from(67_890_u64);
        let lhs = c.pow(&a, &(&e1 + &e2));
        let rhs = (&c.pow(&a, &e1) * &c.pow(&a, &e2)).rem(&n).unwrap();
        assert_eq!(lhs, rhs);
    }
}
