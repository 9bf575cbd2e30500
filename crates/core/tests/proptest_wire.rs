//! Property tests for the [`mykil::wire`] codec.
//!
//! Two invariants back every hand-serialized message in the protocol:
//!
//! 1. whatever field sequence a [`Writer`] emits, a [`Reader`] walking
//!    the same schema recovers it exactly and consumes every byte;
//! 2. truncating the frame at *any* byte boundary makes the decode
//!    fail with [`ProtocolError::Malformed`] — it never panics and
//!    never returns bogus data for a field the bytes cannot cover.

use mykil::error::ProtocolError;
use mykil::wire::{Reader, Writer};
use proptest::prelude::*;

/// One wire field, carrying its value so decode can be checked exactly.
/// `Raw` models fixed-size fields whose length the schema dictates.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Bytes(Vec<u8>),
    Raw(Vec<u8>),
}

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Field::Bytes),
        proptest::collection::vec(any::<u8>(), 1..24).prop_map(Field::Raw),
    ]
}

fn encode(fields: &[Field]) -> Vec<u8> {
    let mut w = Writer::new();
    for f in fields {
        match f {
            Field::U8(v) => w.u8(*v),
            Field::U32(v) => w.u32(*v),
            Field::U64(v) => w.u64(*v),
            Field::Bytes(b) => w.bytes(b),
            Field::Raw(b) => w.raw(b),
        };
    }
    w.into_bytes()
}

/// Decodes `buf` against the schema implied by `fields`, requiring full
/// consumption. Field values in `fields` are only used for the `Raw`
/// lengths; everything else is re-read from the bytes.
fn decode(fields: &[Field], buf: &[u8]) -> Result<Vec<Field>, ProtocolError> {
    let mut r = Reader::new(buf);
    let mut out = Vec::with_capacity(fields.len());
    for f in fields {
        out.push(match f {
            Field::U8(_) => Field::U8(r.u8()?),
            Field::U32(_) => Field::U32(r.u32()?),
            Field::U64(_) => Field::U64(r.u64()?),
            Field::Bytes(_) => Field::Bytes(r.bytes()?.to_vec()),
            Field::Raw(b) => Field::Raw(r.raw(b.len())?.to_vec()),
        });
    }
    r.finish()?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 128,
        .. ProptestConfig::default()
    })]

    #[test]
    fn round_trip_arbitrary_field_sequences(
        fields in proptest::collection::vec(field(), 1..12),
    ) {
        let buf = encode(&fields);
        let decoded = decode(&fields, &buf);
        prop_assert_eq!(decoded.as_ref(), Ok(&fields));
    }

    #[test]
    fn truncation_at_every_boundary_is_malformed_never_panic(
        fields in proptest::collection::vec(field(), 1..8),
    ) {
        let buf = encode(&fields);
        for cut in 0..buf.len() {
            match decode(&fields, &buf[..cut]) {
                Err(ProtocolError::Malformed(_)) => {}
                other => prop_assert!(
                    false,
                    "cut at {cut}/{} must be Malformed, got {other:?}",
                    buf.len(),
                ),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_malformed(
        fields in proptest::collection::vec(field(), 1..8),
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut buf = encode(&fields);
        buf.extend_from_slice(&extra);
        prop_assert_eq!(
            decode(&fields, &buf),
            Err(ProtocolError::Malformed("trailing bytes")),
        );
    }

    #[test]
    fn reader_clone_forks_cursor_without_aliasing(
        fields in proptest::collection::vec(field(), 1..8),
    ) {
        // Regression for the `Copy` removal: the only way to fork a
        // cursor is an explicit clone, and the fork re-reads the same
        // bytes while the original's position is unaffected.
        let buf = encode(&fields);
        let r = Reader::new(&buf);
        let fork = r.clone();
        let a = decode_with(r, &fields);
        let b = decode_with(fork, &fields);
        prop_assert_eq!(a, b);
    }
}

fn decode_with(mut r: Reader<'_>, fields: &[Field]) -> Result<Vec<Field>, ProtocolError> {
    let mut out = Vec::with_capacity(fields.len());
    for f in fields {
        out.push(match f {
            Field::U8(_) => Field::U8(r.u8()?),
            Field::U32(_) => Field::U32(r.u32()?),
            Field::U64(_) => Field::U64(r.u64()?),
            Field::Bytes(_) => Field::Bytes(r.bytes()?.to_vec()),
            Field::Raw(b) => Field::Raw(r.raw(b.len())?.to_vec()),
        });
    }
    r.finish()?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 128,
        .. ProptestConfig::default()
    })]

    #[test]
    fn u32_from_round_trips_in_range_lengths(n in any::<u32>()) {
        // The checked length-prefix helper (no truncating cast in the
        // codec, `clippy::cast_possible_truncation`): any
        // usize that fits u32 round-trips exactly.
        let mut w = Writer::new();
        w.u32_from(n as usize);
        prop_assert!(!w.is_poisoned());
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.u32(), Ok(n));
        prop_assert!(r.finish().is_ok());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn u32_from_oversized_poisons_instead_of_truncating(
        over in any::<u64>().prop_map(|v| v | (1u64 << 32)),
        tail in any::<u32>(),
    ) {
        // An out-of-range length must not silently truncate to a bogus
        // prefix: the writer poisons and refuses to finish, even if
        // valid fields are appended afterwards.
        let mut w = Writer::new();
        w.u32_from(over as usize).u32(tail);
        prop_assert!(w.is_poisoned());
        prop_assert!(matches!(
            w.try_into_bytes(),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
