//! Private-key serialization: persist and restore an [`RsaKeyPair`].
//!
//! A production deployment stores controller keys on disk (the paper's
//! area controllers survive restarts via their primary-backup pair, but
//! the registration server's identity key must persist). The format is
//! a tagged sequence of length-prefixed big-endian integers — all CRT
//! components included so a restored key keeps its fast private path.

use super::{RsaKeyPair, RsaPublicKey};
use crate::bignum::BigUint;
use crate::CryptoError;

const MAGIC: &[u8; 4] = b"MKR1";

fn put(out: &mut Vec<u8>, n: &BigUint) {
    let bytes = n.to_bytes_be();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

fn take(cursor: &mut &[u8]) -> Result<BigUint, CryptoError> {
    let err = || CryptoError::InvalidParameter("truncated key encoding");
    if cursor.len() < 4 {
        return Err(err());
    }
    let len = u32::from_be_bytes(cursor[..4].try_into().unwrap()) as usize;
    *cursor = &cursor[4..];
    if cursor.len() < len || len > 4096 {
        return Err(err());
    }
    let out = BigUint::from_bytes_be(&cursor[..len]);
    *cursor = &cursor[len..];
    Ok(out)
}

impl RsaKeyPair {
    /// Serializes the full key pair (public and private components).
    ///
    /// The output contains private key material — protect it like the
    /// key itself.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.public.block_len() * 5);
        out.extend_from_slice(MAGIC);
        put(&mut out, self.public.modulus());
        put(&mut out, &self.public.e);
        put(&mut out, &self.d);
        put(&mut out, self.p.modulus());
        put(&mut out, self.q.modulus());
        put(&mut out, &self.d_p);
        put(&mut out, &self.d_q);
        put(&mut out, &self.q_inv);
        out
    }

    /// Restores a key pair serialized with [`Self::to_bytes`],
    /// validating internal consistency (`p·q = n` and a private/public
    /// round trip) so corrupted or mismatched components are rejected
    /// rather than producing silently wrong signatures.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameter`] on malformed input;
    /// [`CryptoError::KeyGeneration`] when the components are
    /// inconsistent.
    pub fn from_bytes(bytes: &[u8]) -> Result<RsaKeyPair, CryptoError> {
        if bytes.len() < 4 || &bytes[..4] != MAGIC {
            return Err(CryptoError::InvalidParameter("bad key magic"));
        }
        let mut cursor = &bytes[4..];
        let n = take(&mut cursor)?;
        let e = take(&mut cursor)?;
        let d = take(&mut cursor)?;
        let p = take(&mut cursor)?;
        let q = take(&mut cursor)?;
        let d_p = take(&mut cursor)?;
        let d_q = take(&mut cursor)?;
        let q_inv = take(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(CryptoError::InvalidParameter("trailing key bytes"));
        }
        if &p * &q != n {
            return Err(CryptoError::KeyGeneration("p*q does not match n"));
        }
        let public = RsaPublicKey::from_components(n, e)?;
        let pair = RsaKeyPair::from_parts(public, d, p, q, d_p, d_q, q_inv)?;
        // Private/public round trip on a modulus-sized probe catches any
        // corrupted exponent or CRT component. (The probe must exceed
        // both primes, otherwise the CRT recombination term `q_inv`
        // cancels out and goes unchecked.)
        let probe = pair.public.modulus().shr_bits(1);
        let probe_be = probe.to_bytes_be_padded(pair.public.block_len())?;
        let c = BigUint::from_limbs(pair.public.public_op(&probe_be)?);
        if pair.raw_private_op(&c)? != probe {
            return Err(CryptoError::KeyGeneration("key components inconsistent"));
        }
        // Also exercise the plain exponent `d` (unused by the CRT path).
        if pair.raw_private_op_no_crt(&c)? != probe {
            return Err(CryptoError::KeyGeneration("private exponent inconsistent"));
        }
        Ok(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_keys::pair768;
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn round_trip_preserves_functionality() {
        let pair = pair768();
        let restored = RsaKeyPair::from_bytes(&pair.to_bytes()).unwrap();
        assert_eq!(restored.public(), pair.public());
        // Signatures by the original verify under the restored key and
        // vice versa.
        let sig = pair.sign(b"persisted");
        assert!(restored.public().verify(b"persisted", &sig));
        let sig2 = restored.sign(b"persisted");
        assert_eq!(sig, sig2, "deterministic signatures must match");
        // Decryption works through the restored CRT path.
        let mut rng = Drbg::from_seed(1);
        let ct = pair.public().encrypt(b"secret", &mut rng).unwrap();
        assert_eq!(restored.decrypt(&ct).unwrap(), b"secret");
    }

    #[test]
    fn corrupt_encodings_rejected() {
        let pair = pair768();
        let bytes = pair.to_bytes();
        assert!(RsaKeyPair::from_bytes(&[]).is_err());
        assert!(RsaKeyPair::from_bytes(b"XXXX").is_err());
        assert!(RsaKeyPair::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RsaKeyPair::from_bytes(&extra).is_err());
    }

    #[test]
    fn tampered_components_rejected() {
        let pair = pair768();
        let bytes = pair.to_bytes();
        // Flip one byte somewhere in the middle of each region and
        // confirm the consistency checks catch it.
        for frac in [3usize, 5, 7, 9] {
            let mut bad = bytes.clone();
            let idx = bad.len() * frac / 10;
            bad[idx] ^= 0x01;
            assert!(
                RsaKeyPair::from_bytes(&bad).is_err(),
                "byte {idx} corruption accepted"
            );
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let pair = pair768();
        assert_eq!(pair.to_bytes(), pair.to_bytes());
    }
}
