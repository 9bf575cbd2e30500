//! Property-based tests for the symmetric primitives and envelopes.

use mykil_crypto::drbg::Drbg;
use mykil_crypto::envelope::{open, seal, ENVELOPE_OVERHEAD};
use mykil_crypto::hmac::{hmac_sha256, verify_hmac};
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rc4::Rc4;
use mykil_crypto::sha256::Sha256;
use proptest::prelude::*;

proptest! {
    #[test]
    fn rc4_round_trips(key in proptest::collection::vec(any::<u8>(), 1..64),
                       data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let ct = Rc4::process(&key, &data);
        prop_assert_eq!(Rc4::process(&key, &ct), data);
    }

    #[test]
    fn rc4_streaming_consistent(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        data in proptest::collection::vec(any::<u8>(), 1..256),
        split in 0usize..256,
    ) {
        let split = split % data.len();
        let mut streamed = data.clone();
        let mut c = Rc4::new(&key);
        let (a, b) = streamed.split_at_mut(split);
        c.apply_keystream(a);
        c.apply_keystream(b);
        prop_assert_eq!(streamed, Rc4::process(&key, &data));
    }

    #[test]
    fn sha256_incremental_agrees(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_verifies_own_tags(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let tag = hmac_sha256(&key, &msg).into_bytes();
        prop_assert!(verify_hmac(&key, &msg, &tag));
    }

    #[test]
    fn hmac_rejects_bit_flips(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let tag = hmac_sha256(&key, &msg).into_bytes();
        let mut bad = msg.clone();
        let idx = flip_byte % bad.len();
        bad[idx] ^= 1 << flip_bit;
        prop_assert!(!verify_hmac(&key, &bad, &tag));
    }

    #[test]
    fn envelope_round_trips(
        key_bytes in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        seed in any::<u64>(),
    ) {
        let key = SymmetricKey::from_bytes(key_bytes);
        let mut rng = Drbg::from_seed(seed);
        let env = seal(&key, &payload, &mut rng);
        prop_assert_eq!(env.len(), payload.len() + ENVELOPE_OVERHEAD);
        prop_assert_eq!(open(&key, &env).unwrap(), payload);
    }

    #[test]
    fn envelope_rejects_other_keys(
        k1 in any::<[u8; 16]>(),
        k2 in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
    ) {
        prop_assume!(k1 != k2);
        let mut rng = Drbg::from_seed(seed);
        let env = seal(&SymmetricKey::from_bytes(k1), &payload, &mut rng);
        prop_assert!(open(&SymmetricKey::from_bytes(k2), &env).is_err());
    }

    #[test]
    fn drbg_reproducible(seed in any::<u64>()) {
        use rand::RngCore;
        let mut a = Drbg::from_seed(seed);
        let mut b = Drbg::from_seed(seed);
        let mut buf_a = [0u8; 48];
        let mut buf_b = [0u8; 48];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        prop_assert_eq!(buf_a, buf_b);
    }
}

proptest! {
    #[test]
    fn hybrid_ciphertext_from_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Arbitrary (attacker-controlled) wire bytes must parse to Ok
        // or EnvelopeError — never panic. Guards the split_at_checked
        // migration of the decode path (`clippy::indexing_slicing`).
        use mykil_crypto::envelope::HybridCiphertext;
        let _ = HybridCiphertext::from_bytes(&bytes);
    }

    #[test]
    fn hybrid_ciphertext_truncation_at_every_boundary_is_rejected(
        wrapped in proptest::collection::vec(any::<u8>(), 1..48),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // A structurally valid frame (length prefix + wrapped key +
        // minimal envelope) parses and round-trips. The payload has no
        // length prefix — it is "the rest of the frame" — so a cut
        // inside the payload is a structurally valid shorter frame
        // (the MAC rejects it at decrypt time); every cut that reaches
        // into the header or the minimal envelope must be rejected by
        // the parser itself, never a panic.
        use mykil_crypto::envelope::{HybridCiphertext, ENVELOPE_OVERHEAD};
        let mut buf = Vec::new();
        buf.extend_from_slice(&(wrapped.len() as u32).to_be_bytes());
        buf.extend_from_slice(&wrapped);
        buf.extend_from_slice(&[0u8; ENVELOPE_OVERHEAD]);
        buf.extend_from_slice(&payload);

        let parsed = HybridCiphertext::from_bytes(&buf);
        prop_assert!(parsed.is_ok());
        prop_assert_eq!(parsed.unwrap().to_bytes(), buf.clone());

        let min_len = 4 + wrapped.len() + ENVELOPE_OVERHEAD;
        for cut in 0..buf.len() {
            let short = HybridCiphertext::from_bytes(&buf[..cut]);
            if cut < min_len {
                prop_assert!(
                    short.is_err(),
                    "cut at {}/{} must be rejected", cut, buf.len(),
                );
            } else {
                // Still lossless: the shorter frame re-serializes to
                // exactly the truncated bytes.
                prop_assert!(short.is_ok());
                prop_assert_eq!(short.unwrap().to_bytes(), buf[..cut].to_vec());
            }
        }
    }
}
