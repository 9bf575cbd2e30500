//! HMAC-SHA256 (RFC 2104), the MAC used on every Mykil protocol message.
//!
//! The paper attaches a MAC to each step of the join protocol (Figure 3),
//! the rejoin protocol (Figure 7), and to tickets. All of those MACs are
//! computed here.
//!
//! # Example
//!
//! ```
//! use mykil_crypto::hmac::{hmac_sha256, verify_hmac};
//!
//! let tag = hmac_sha256(b"shared key", b"step 1 payload").into_bytes();
//! assert!(verify_hmac(b"shared key", b"step 1 payload", &tag));
//! assert!(!verify_hmac(b"shared key", b"tampered", &tag));
//! ```

use crate::sha256::{finish, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// A MAC tag of `N` bytes.
///
/// It has no `PartialEq` and no `Hash`: the one comparison is
/// [`ct_eq`](Self::ct_eq), whose time does not depend on where two tags
/// differ. Code that wants the bytes for something other than a
/// comparison — a frame, a derived key — takes them with
/// [`into_bytes`](Self::into_bytes).
///
/// ```compile_fail,E0369
/// use mykil_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert!(tag == hmac_sha256(b"key", b"message"));
/// ```
#[repr(transparent)]
pub struct Tag<const N: usize>([u8; N]);

impl<const N: usize> Tag<N> {
    /// Constant-time equality with a received tag ([`crate::ct::ct_eq`]);
    /// a `received` of any length other than `N` is unequal.
    pub fn ct_eq(&self, received: &[u8]) -> bool {
        crate::ct::ct_eq(&self.0, received)
    }

    /// The first `M` bytes, as a truncated tag.
    pub fn truncate<const M: usize>(self) -> Tag<M> {
        const { assert!(M <= N, "a tag truncates to at most its own length") };
        Tag(std::array::from_fn(|i| self.0[i]))
    }

    /// The tag bytes.
    pub fn into_bytes(self) -> [u8; N] {
        self.0
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block are pre-hashed per RFC 2104.
/// A caller that MACs more than once under one key should hold an
/// [`HmacSha256`] instead: it pays for the two pad blocks once.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Tag<DIGEST_LEN> {
    HmacSha256::new(key).tag(message)
}

/// Verifies a tag in constant time with respect to tag content.
///
/// Returns `false` for any length mismatch.
pub fn verify_hmac(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    hmac_sha256(key, message).ct_eq(tag)
}

/// A keyed HMAC-SHA256 context: the SHA-256 chaining values after the
/// inner and the outer pad block.
///
/// Building one costs the two pad compressions; every tag after that
/// starts from the midstates, so a message of up to 55 bytes costs two
/// compressions instead of four. The midstates stand in for the key
/// (they forge tags, though they do not reveal it), so the context is
/// wiped on drop and prints nothing.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl Drop for HmacSha256 {
    fn drop(&mut self) {
        crate::ct::zeroize_u32(&mut self.inner);
        crate::ct::zeroize_u32(&mut self.outer);
    }
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Keys a context.
    pub fn new(key: &[u8]) -> Self {
        let mut pad = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            pad[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            pad[..key.len()].copy_from_slice(key);
        }
        // key ^ ipad, then flip that into key ^ opad in place.
        let mut midstate = |mask: u8| {
            pad.iter_mut().for_each(|b| *b ^= mask);
            let mut h = Sha256::new();
            h.update(&pad);
            h.midstate()
        };
        let inner = midstate(0x36);
        let outer = midstate(0x36 ^ 0x5c);
        crate::ct::zeroize(&mut pad);
        HmacSha256 { inner, outer }
    }

    /// The tag of one contiguous message.
    pub fn tag(&self, message: &[u8]) -> Tag<DIGEST_LEN> {
        let inner_digest = finish(self.inner, BLOCK_LEN as u64, message);
        Tag(finish(self.outer, BLOCK_LEN as u64, &inner_digest))
    }

    /// Starts the tag of a message supplied in fragments. The context
    /// itself is untouched and can start any number of tags.
    pub fn start(&self) -> HmacStream {
        HmacStream {
            inner: Sha256::from_midstate(self.inner, BLOCK_LEN as u64),
            outer: self.outer,
        }
    }
}

/// One tag in progress under an [`HmacSha256`] context.
#[derive(Clone)]
pub struct HmacStream {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacStream {
    /// Absorbs another message fragment.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the final tag.
    pub fn finalize(self) -> Tag<DIGEST_LEN> {
        Tag(finish(self.outer, BLOCK_LEN as u64, &self.inner.finalize()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex<const N: usize>(tag: Tag<N>) -> String {
        tag.into_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 test cases 1–7 as (key, data, tag prefix).
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_through_a_cloned_and_reused_context() {
        for (case, (key, data, want)) in rfc4231().into_iter().enumerate() {
            let ctx = HmacSha256::new(&key);
            let cloned = ctx.clone();
            drop(ctx);
            // One-shot, then streamed in two fragments from the same
            // context after the first tag was finalized, then one-shot
            // again: a context is not consumed by the tags it starts.
            let first = hex(cloned.tag(&data));
            assert!(first.starts_with(want), "case {}", case + 1);
            let mut stream = cloned.start();
            stream.update(&data[..data.len() / 2]);
            stream.update(&data[data.len() / 2..]);
            assert_eq!(hex(stream.finalize()), first, "case {}", case + 1);
            assert_eq!(hex(cloned.tag(&data)), first, "case {}", case + 1);
            assert_eq!(hex(hmac_sha256(&key, &data)), first, "case {}", case + 1);
            // Case 5 is RFC 4231's truncation vector: the first 16 bytes.
            let truncated = hex(cloned.tag(&data).truncate::<16>());
            assert_eq!(truncated, first[..32], "case {}", case + 1);
        }
    }

    #[test]
    fn context_debug_prints_no_state() {
        assert_eq!(format!("{:?}", HmacSha256::new(b"k")), "HmacSha256 { .. }");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m").into_bytes();
        assert!(verify_hmac(b"k", b"m", &tag));
        assert!(!verify_hmac(b"k2", b"m", &tag));
        assert!(!verify_hmac(b"k", b"m2", &tag));
        assert!(!verify_hmac(b"k", b"m", &tag[..31]));
        assert!(!verify_hmac(b"k", b"m", &[]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"area-controller-key").start();
        h.update(b"nonce:");
        h.update(&42u64.to_be_bytes());
        h.update(b"|ticket");
        let tag = h.finalize();
        let mut whole = b"nonce:".to_vec();
        whole.extend_from_slice(&42u64.to_be_bytes());
        whole.extend_from_slice(b"|ticket");
        assert!(tag.ct_eq(&hmac_sha256(b"area-controller-key", &whole).into_bytes()));
    }

    #[test]
    fn different_keys_different_tags() {
        let t1 = hmac_sha256(b"key-1", b"same message");
        let t2 = hmac_sha256(b"key-2", b"same message");
        assert!(!t1.ct_eq(&t2.into_bytes()));
    }
}
