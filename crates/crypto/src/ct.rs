//! Constant-time primitives: comparison and zeroization.
//!
//! Everything that compares MAC tags, digests, or key bytes must come
//! through [`ct_eq`]; lint rule L003 enforces this. Everything that
//! holds key material zeroizes through [`zeroize`] on `Drop`; rule
//! L002 enforces that.

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
