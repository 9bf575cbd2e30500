//! Minimal byte codec for protocol messages.
//!
//! Every Mykil message is hand-serialized through [`Writer`] and parsed
//! through [`Reader`], so wire sizes are explicit and byte-exact — the
//! bandwidth figures depend on that. No serde: message layouts mirror
//! the fields listed in the paper's Figures 3 and 7.

// A wire/codec module: it parses hostile bytes, so a narrowing cast or a
// panicking slice access outside tests is a finding.
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
        clippy::disallowed_methods
    )
)]

use crate::error::ProtocolError;

/// Upper bound on a `u32`-length-prefixed byte string, shared by
/// [`Writer::bytes`] and [`Reader::bytes`]. Anything a conforming node
/// can emit, a conforming node will accept.
pub const MAX_BYTES_FIELD: usize = 16 << 20;

/// Append-only message builder.
///
/// Oversized length-prefixed fields poison the writer instead of
/// silently truncating the prefix: a poisoned writer refuses to finish
/// (see [`Writer::try_into_bytes`]), so a corrupt frame can never reach
/// the wire.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    poisoned: bool,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates a writer whose buffer is pre-sized for `cap` bytes, so
    /// hot paths that know their frame size up front encode without
    /// reallocation.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
            poisoned: false,
        }
    }

    /// Wraps an existing buffer, clearing it first. Lets hot paths
    /// reuse one allocation across frames: the buffer keeps its
    /// capacity from previous encodes.
    pub fn into_reused(mut buf: Vec<u8>) -> Writer {
        buf.clear();
        Writer {
            buf,
            poisoned: false,
        }
    }

    /// Ensures room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.buf.reserve(additional);
        self
    }

    /// Finishes and returns the bytes.
    ///
    /// # Panics
    ///
    /// Panics if the writer was poisoned by an oversized [`Writer::bytes`]
    /// field. That can only happen when local code tries to emit a field
    /// larger than [`MAX_BYTES_FIELD`] — never from parsing network
    /// input, since [`Reader::bytes`] caps reads at the same bound.
    /// Callers assembling attacker-influenced payloads should use
    /// [`Writer::try_into_bytes`].
    pub fn into_bytes(self) -> Vec<u8> {
        match self.try_into_bytes() {
            Ok(buf) => buf,
            Err(e) => panic!("Writer poisoned: {e}"),
        }
    }

    /// Finishes and returns the bytes, or the error that poisoned the
    /// writer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] if any [`Writer::bytes`] call was
    /// handed a payload longer than [`MAX_BYTES_FIELD`].
    pub fn try_into_bytes(self) -> Result<Vec<u8>, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Malformed("oversized length-prefixed field"));
        }
        Ok(self.buf)
    }

    /// Whether an oversized field has poisoned this writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a `usize` count/length as a big-endian `u32`, poisoning
    /// the writer if the value does not fit — the same contract as
    /// [`Writer::bytes`]: a frame whose length field would lie can
    /// never reach the wire.
    pub fn u32_from(&mut self, v: usize) -> &mut Self {
        match u32::try_from(v) {
            Ok(n) => self.u32(n),
            Err(_) => {
                self.poisoned = true;
                self
            }
        }
    }

    /// Writes raw bytes with no length prefix (fixed-size fields).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Writes a `u32` length prefix followed by the bytes.
    ///
    /// A payload longer than [`MAX_BYTES_FIELD`] writes nothing and
    /// poisons the writer — the old behaviour truncated the length
    /// prefix via `as u32`, producing a frame whose prefix lied about
    /// the field length. Use [`Writer::try_bytes`] to surface the error
    /// at the call site instead.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        if self.try_bytes(bytes).is_err() {
            self.poisoned = true;
        }
        self
    }

    /// Writes a `u32` length prefix followed by the bytes, rejecting
    /// oversized payloads at the call site.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] (writing nothing) if the payload
    /// exceeds [`MAX_BYTES_FIELD`].
    pub fn try_bytes(&mut self, bytes: &[u8]) -> Result<&mut Self, ProtocolError> {
        if bytes.len() > MAX_BYTES_FIELD {
            return Err(ProtocolError::Malformed("oversized length-prefixed field"));
        }
        let len = u32::try_from(bytes.len())
            .map_err(|_| ProtocolError::Malformed("oversized length-prefixed field"))?;
        self.u32(len);
        Ok(self.raw(bytes))
    }

    /// Appends bytes produced directly into the underlying buffer —
    /// e.g. `envelope::seal_into` — avoiding an intermediate `Vec`.
    pub fn append_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        f(&mut self.buf);
        self
    }
}

/// Sequential message parser.
///
/// All accessors return [`ProtocolError::Malformed`] on truncation, so
/// attacker-controlled bytes can never panic the node.
///
/// Deliberately *not* `Copy`: a cursor that silently forks on every
/// by-value use made it easy to re-parse the same bytes twice. Forking
/// now requires an explicit `.clone()`.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the input was fully consumed.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(ProtocolError::Malformed("truncated"))?;
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        self.take(n)
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        self.take(N)?
            .try_into()
            .map_err(|_| ProtocolError::Malformed("bad fixed-size field"))
    }

    /// Reads a `u32`-length-prefixed byte string (capped at
    /// [`MAX_BYTES_FIELD`] to stop hostile length fields from causing
    /// huge allocations).
    pub fn bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let len = self.u32()? as usize;
        if len > MAX_BYTES_FIELD {
            return Err(ProtocolError::Malformed("length field too large"));
        }
        self.take(len)
    }
}

/// Parses all of `buf` with `f`: `None` when a field is malformed or
/// bytes are left over, so a handler gets its fields or drops the frame.
pub fn parse<'a, T>(
    buf: &'a [u8],
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, ProtocolError>,
) -> Option<T> {
    let mut r = Reader::new(buf);
    let parsed = f(&mut r).ok()?;
    r.finish().ok()?;
    Some(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(7).u32(0xdead_beef).u64(42).bytes(b"hello").raw(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.raw(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..5]);
        assert!(r.u64().is_err());
        // Length prefix promises more bytes than remain.
        let short = [0u8, 0, 0, 9, 1];
        let mut r = Reader::new(&short);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let _ = r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn parse_wants_every_byte_and_no_more() {
        let fields = |r: &mut Reader<'_>| Ok((r.u8()?, r.u32()?));
        let mut w = Writer::new();
        w.u8(7).u32(9);
        let mut buf = w.into_bytes();
        assert_eq!(parse(&buf, fields), Some((7, 9)));
        assert_eq!(parse(&buf[..4], fields), None, "truncated");
        buf.push(0);
        assert_eq!(parse(&buf, fields), None, "trailing byte");
    }

    #[test]
    fn hostile_length_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.u32(1);
        assert_eq!(w.len(), 4);
        w.bytes(b"xy");
        assert_eq!(w.len(), 4 + 4 + 2);
    }

    #[test]
    fn array_reader() {
        let mut w = Writer::new();
        w.raw(&[9u8; 16]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let a: [u8; 16] = r.array().unwrap();
        assert_eq!(a, [9u8; 16]);
        let mut r2 = Reader::new(&buf[..10]);
        assert!(r2.array::<16>().is_err());
    }

    #[test]
    fn oversized_bytes_poisons_instead_of_truncating() {
        // Regression: `bytes()` used to write `len as u32`, so a payload
        // of MAX_BYTES_FIELD + 1 bytes got a length prefix that lied.
        let big = vec![0u8; MAX_BYTES_FIELD + 1];
        let mut w = Writer::new();
        assert!(w.try_bytes(&big).is_err());
        assert_eq!(w.len(), 0, "failed try_bytes must write nothing");
        assert!(!w.is_poisoned());

        let mut w = Writer::new();
        w.u8(1).bytes(&big).u8(2);
        assert!(w.is_poisoned());
        assert!(w.try_into_bytes().is_err());
    }

    #[test]
    fn max_sized_bytes_field_accepted() {
        let exact = vec![7u8; 32];
        let mut w = Writer::new();
        w.try_bytes(&exact).unwrap();
        let buf = w.try_into_bytes().unwrap();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), &exact[..]);
    }

    #[test]
    fn reader_fork_requires_explicit_clone() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        let mut fork = r.clone();
        assert_eq!(r.u8().unwrap(), 1);
        // The explicit clone still sees the original position.
        assert_eq!(fork.u8().unwrap(), 1);
    }

    #[test]
    fn writer_reuse_keeps_capacity() {
        let mut w = Writer::with_capacity(64);
        w.u64(9).bytes(b"abc");
        let buf = w.into_bytes();
        let cap = buf.capacity();
        let mut w = Writer::into_reused(buf);
        assert!(w.is_empty());
        w.u8(1);
        assert!(w.into_bytes().capacity() >= cap);
    }
}
