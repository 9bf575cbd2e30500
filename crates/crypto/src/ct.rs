//! Constant-time primitives: comparison and zeroization.
//!
//! Everything that compares MAC tags, digests, or key bytes comes
//! through [`ct_eq`]. A MAC tag is a [`Tag`](crate::hmac::Tag), which
//! has no `==` to reach for. Everything that holds key material
//! zeroizes through [`zeroize`] on `Drop`.
//!
//! The secret types — [`SymmetricKey`], [`Rc4`], [`ChaCha20`],
//! [`RsaKeyPair`] and `mykil_net::SecretBytes` — keep to that by
//! construction, and the compiler holds them to it:
//!
//! - each has a hand-written `Debug` that prints no key byte, so a
//!   derived one conflicts with it and does not compile;
//! - `SymmetricKey`'s `PartialEq` is built on `ct_eq`, and its `Hash`
//!   mixes a digest. The others have no `Hash`, and only `SecretBytes`
//!   has a (`ct_eq`-backed) `PartialEq`. The probes below fail to
//!   compile, and stop passing if a derive creeps in;
//! - each wipes itself in an explicit `impl Drop`. A bound `T: Drop`
//!   holds only for a type with such an impl (a `Vec` or bignum field
//!   does not make it hold), so the bound below fails the build if one
//!   is deleted.
//!
//! ```compile_fail,E0277
//! fn eq<T: PartialEq>() {}
//! eq::<mykil_crypto::rc4::Rc4>();
//! ```
//!
//! ```compile_fail,E0277
//! fn hash<T: std::hash::Hash>() {}
//! hash::<mykil_crypto::rc4::Rc4>();
//! ```
//!
//! ```compile_fail,E0277
//! fn eq<T: PartialEq>() {}
//! eq::<mykil_crypto::chacha::ChaCha20>();
//! ```
//!
//! ```compile_fail,E0277
//! fn hash<T: std::hash::Hash>() {}
//! hash::<mykil_crypto::chacha::ChaCha20>();
//! ```
//!
//! ```compile_fail,E0277
//! fn eq<T: PartialEq>() {}
//! eq::<mykil_crypto::rsa::RsaKeyPair>();
//! ```
//!
//! ```compile_fail,E0277
//! fn hash<T: std::hash::Hash>() {}
//! hash::<mykil_crypto::rsa::RsaKeyPair>();
//! ```

use crate::chacha::ChaCha20;
use crate::keys::SymmetricKey;
use crate::rc4::Rc4;
use crate::rsa::RsaKeyPair;

#[expect(
    drop_bounds,
    reason = "`T: Drop` holds only where an `impl Drop` is written, which is the point"
)]
fn _secrets_wipe_on_drop()
where
    SymmetricKey: Drop,
    Rc4: Drop,
    ChaCha20: Drop,
    RsaKeyPair: Drop,
{
}

/// Constant-time byte-slice equality.
///
/// Runs in time dependent only on the slice lengths, never on the
/// contents: the mismatch accumulator is OR-folded over every byte with
/// no early exit. Slices of different lengths compare unequal, and the
/// length check is the only data-independent branch.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    // Collapse without branching on the value.
    diff == 0
}

/// Overwrites `bytes` with zeros through volatile writes, so the
/// compiler cannot elide the wipe as a dead store when the buffer is
/// about to be dropped. The aligned middle of the buffer is written a
/// word at a time (a 16-byte key is two stores, not sixteen).
#[expect(unsafe_code, reason = "`align_to_mut` has no safe form")]
pub fn zeroize(bytes: &mut [u8]) {
    // SAFETY: every bit pattern is a valid `u64` and a valid `u8`, so
    // viewing the 8-byte-aligned middle of an exclusive byte slice as
    // `u64`s (which is all `align_to_mut` does) cannot create an
    // invalid value; the three parts do not overlap.
    let (head, words, tail) = unsafe { bytes.align_to_mut::<u64>() };
    wipe(head);
    wipe(words);
    wipe(tail);
}

/// [`zeroize`] for `u32` words (cipher state).
pub fn zeroize_u32(words: &mut [u32]) {
    wipe(words);
}

/// [`zeroize`] for `u64` words (bignum limbs, Montgomery scratch).
pub fn zeroize_u64(words: &mut [u64]) {
    wipe(words);
}

#[expect(
    unsafe_code,
    reason = "a volatile write is the only store the optimiser cannot drop"
)]
fn wipe<T: Default>(words: &mut [T]) {
    for w in words.iter_mut() {
        // SAFETY: `w` is a valid, aligned, exclusive reference, and the
        // callers' integer types have no destructor for the overwrite to skip.
        unsafe { core::ptr::write_volatile(w, T::default()) };
    }
    core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_and_unequal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"", b"x"));
    }

    #[test]
    fn first_and_last_byte_differences_detected() {
        let a = [0u8; 32];
        let mut b = a;
        b[0] = 1;
        assert!(!ct_eq(&a, &b));
        let mut c = a;
        c[31] = 1;
        assert!(!ct_eq(&a, &c));
    }

    #[test]
    fn zeroize_clears() {
        let mut buf = [0xAAu8; 64];
        zeroize(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        let mut words = [0xDEADBEEFu32; 16];
        zeroize_u32(&mut words);
        assert!(words.iter().all(|&w| w == 0));
        let mut limbs = [u64::MAX; 8];
        zeroize_u64(&mut limbs);
        assert!(limbs.iter().all(|&w| w == 0));
    }
}
