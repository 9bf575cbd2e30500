//! Symmetric key material types.
//!
//! Mykil manages three kinds of 128-bit symmetric keys (Section III of
//! the paper): the per-area *area key*, the *auxiliary keys* of each
//! area's LKH tree, and the `K_shared` secret that all area controllers
//! share to protect tickets. All are [`SymmetricKey`] values here.

use crate::drbg::Drbg;
use crate::hmac::HmacSha256;
use crate::SYMMETRIC_KEY_LEN;
use rand::RngCore;

/// A 128-bit symmetric key.
///
/// Equality is constant-time ([`crate::ct::ct_eq`]); `Hash` mixes a
/// SHA-256 fingerprint rather than raw key bytes; the `Debug` impl
/// prints a short fingerprint. The key bytes are zeroized on `Drop`,
/// which is also why the type is `Clone` but deliberately not `Copy`:
/// implicit copies would leave unwiped duplicates on the stack.
#[derive(Clone)]
pub struct SymmetricKey([u8; SYMMETRIC_KEY_LEN]);

impl PartialEq for SymmetricKey {
    fn eq(&self, other: &Self) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for SymmetricKey {}

impl std::hash::Hash for SymmetricKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Feed the hasher a digest, not the key itself: hashers are not
        // secrecy-preserving, and equal keys still hash equally.
        crate::sha256::Sha256::digest(&self.0).hash(state);
    }
}

impl Drop for SymmetricKey {
    fn drop(&mut self) {
        crate::ct::zeroize(&mut self.0);
    }
}

impl SymmetricKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; SYMMETRIC_KEY_LEN]) -> Self {
        SymmetricKey(bytes)
    }

    /// Generates a fresh random key.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut b = [0u8; SYMMETRIC_KEY_LEN];
        rng.fill_bytes(&mut b);
        SymmetricKey(b)
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; SYMMETRIC_KEY_LEN] {
        &self.0
    }

    /// Derives a sub-key for `purpose` (e.g. separating the cipher key
    /// from the MAC key inside the envelope).
    pub fn derive(&self, purpose: &[u8]) -> SymmetricKey {
        Self::derive_with(&HmacSha256::new(&self.0), purpose)
    }

    /// [`derive`](Self::derive) from a context already keyed with the
    /// parent key, for a caller deriving several sub-keys of one key.
    pub(crate) fn derive_with(parent: &HmacSha256, purpose: &[u8]) -> SymmetricKey {
        SymmetricKey(parent.tag(purpose).truncate().into_bytes())
    }

    /// Deterministically derives a key from a label (for tests and
    /// analytic tools that need stable keys).
    pub fn from_label(label: &str) -> SymmetricKey {
        let mut rng = Drbg::from_seed_bytes(label.as_bytes());
        SymmetricKey::random(&mut rng)
    }
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print a 4-byte fingerprint, never the key itself.
        let fp = crate::sha256::Sha256::digest(&self.0);
        write!(
            f,
            "SymmetricKey(#{:02x}{:02x}{:02x}{:02x})",
            fp[0], fp[1], fp[2], fp[3]
        )
    }
}

impl From<[u8; SYMMETRIC_KEY_LEN]> for SymmetricKey {
    fn from(bytes: [u8; SYMMETRIC_KEY_LEN]) -> Self {
        SymmetricKey(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_keys_distinct() {
        let mut rng = Drbg::from_seed(1);
        let a = SymmetricKey::random(&mut rng);
        let b = SymmetricKey::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn derive_is_deterministic_and_purpose_separated() {
        let k = SymmetricKey::from_label("area-3");
        assert_eq!(k.derive(b"enc"), k.derive(b"enc"));
        assert_ne!(k.derive(b"enc"), k.derive(b"mac"));
        assert_ne!(k.derive(b"enc"), k);
    }

    #[test]
    fn label_derivation_stable() {
        assert_eq!(
            SymmetricKey::from_label("k1"),
            SymmetricKey::from_label("k1")
        );
        assert_ne!(
            SymmetricKey::from_label("k1"),
            SymmetricKey::from_label("k2")
        );
    }

    #[test]
    fn debug_hides_bytes() {
        let k = SymmetricKey::from_bytes([0xab; 16]);
        let s = format!("{k:?}");
        assert!(s.starts_with("SymmetricKey(#"));
        assert!(!s.contains("abababab"), "must not print raw bytes: {s}");
    }

    #[test]
    fn conversion_from_array() {
        let arr = [7u8; 16];
        let k: SymmetricKey = arr.into();
        assert_eq!(k.as_bytes(), &arr);
    }

    #[test]
    #[expect(unsafe_code, reason = "observing the wipe means reading after drop")]
    fn drop_zeroizes_key_bytes() {
        let mut k = core::mem::ManuallyDrop::new(SymmetricKey::from_bytes([0xAB; 16]));
        // SAFETY: the value is never used as a SymmetricKey again; the
        // backing array stays valid, letting the test observe the wipe.
        unsafe { core::mem::ManuallyDrop::drop(&mut k) };
        assert_eq!(k.0, [0u8; 16]);
    }

    #[test]
    fn equality_is_by_value_and_hash_is_consistent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = SymmetricKey::from_bytes([3; 16]);
        let b = SymmetricKey::from_bytes([3; 16]);
        assert_eq!(a, b);
        let hash_of = |k: &SymmetricKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, SymmetricKey::from_bytes([4; 16]));
    }
}
