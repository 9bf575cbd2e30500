//! Conversions between [`BigUint`] and primitive integers / byte strings.

use super::BigUint;

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_limbs(vec![v])
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

/// Reads big-endian `bytes` into the low end of little-endian `limbs`
/// (at least `bytes.len().div_ceil(8)` of them) and zeroes the rest.
pub(crate) fn limbs_from_be(limbs: &mut [u64], bytes: &[u8]) {
    let mut chunks = bytes.rchunks(8);
    for limb in limbs {
        let chunk = chunks.next().unwrap_or(&[]);
        *limb = chunk.iter().fold(0, |limb, &b| (limb << 8) | b as u64);
    }
    debug_assert!(chunks.next().is_none(), "bytes fit the limbs");
}

/// Writes little-endian `limbs` as `out.len()` big-endian bytes; limbs
/// and limb bytes beyond that width are the caller's to have checked zero.
pub(crate) fn limbs_to_be(out: &mut [u8], limbs: &[u64]) {
    out.fill(0);
    for (chunk, limb) in out.rchunks_mut(8).zip(limbs) {
        chunk.copy_from_slice(&limb.to_be_bytes()[8 - chunk.len()..]);
    }
}

/// Byte `i` of little-endian `limbs`, counted from the least
/// significant: the big-endian byte at `len - 1 - i` of a `len`-byte block.
pub(crate) fn limb_byte(limbs: &[u64], i: usize) -> u8 {
    (limbs[i / 8] >> (8 * (i % 8))) as u8
}

impl BigUint {
    /// Parses a big-endian byte string (leading zero bytes allowed).
    ///
    /// This is the format RSA uses on the wire: the empty slice parses
    /// as zero.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = vec![0; bytes.len().div_ceil(8)];
        limbs_from_be(&mut limbs, bytes);
        BigUint::from_limbs(limbs)
    }

    /// Serializes to minimal-length big-endian bytes (zero becomes `[]`).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`](crate::CryptoError) when
    /// the value needs more than `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>, crate::CryptoError> {
        if self.bit_len().div_ceil(8) > len {
            return Err(crate::CryptoError::InvalidParameter(
                "value too large for requested width",
            ));
        }
        // Written from the low end; a short last chunk takes the low
        // bytes of its limb, whose high bytes the check above found zero.
        let mut out = vec![0u8; len];
        limbs_to_be(&mut out, &self.limbs);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(BigUint::from(0_u32).to_u64(), Some(0));
        assert_eq!(BigUint::from(u32::MAX).to_u64(), Some(u32::MAX as u64));
        assert_eq!(BigUint::from(u64::MAX).to_u64(), Some(u64::MAX));
        let big = BigUint::from(u128::MAX);
        assert_eq!(big.bit_len(), 128);
    }

    #[test]
    fn bytes_be_round_trip() {
        let cases: [&[u8]; 5] = [
            b"",
            b"\x01",
            b"\xff\xff\xff\xff\xff",
            b"\x01\x00\x00\x00\x00\x00\x00\x00\x00",
            b"\x12\x34\x56\x78\x9a\xbc\xde\xf0\x11",
        ];
        for case in cases {
            let n = BigUint::from_bytes_be(case);
            let back = n.to_bytes_be();
            // Minimal encoding strips leading zeros.
            let minimal: Vec<u8> =
                case.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, minimal);
        }
    }

    #[test]
    fn leading_zeros_ignored_on_parse() {
        let a = BigUint::from_bytes_be(b"\x00\x00\x01\x02");
        let b = BigUint::from_bytes_be(b"\x01\x02");
        assert_eq!(a, b);
        assert_eq!(a.to_u64(), Some(0x0102));
    }

    #[test]
    fn padded_serialization() {
        let n = BigUint::from(0xabcd_u64);
        assert_eq!(n.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0xab, 0xcd]);
        assert_eq!(n.to_bytes_be_padded(2).unwrap(), vec![0xab, 0xcd]);
        assert!(n.to_bytes_be_padded(1).is_err());
        assert_eq!(BigUint::zero().to_bytes_be_padded(3).unwrap(), vec![0; 3]);
    }

    #[test]
    fn multi_limb_byte_order() {
        // 0x0102030405060708090a big-endian.
        let n = BigUint::from_bytes_be(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(n.to_string(), "102030405060708090a");
    }
}
