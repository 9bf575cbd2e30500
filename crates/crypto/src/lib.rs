//! From-scratch cryptographic substrate for the Mykil reproduction.
//!
//! The Mykil paper (Huang & Mishra, DSN 2004) built its prototype on
//! OpenSSL: 2048-bit RSA for the join/rejoin handshakes, 128-bit symmetric
//! keys for area and auxiliary keys, and RC4 for bulk data on hand-held
//! devices. This crate reimplements that entire stack with no external
//! cryptographic dependencies so the reproduction is self-contained:
//!
//! - [`bignum::BigUint`] — arbitrary-precision unsigned arithmetic
//!   (schoolbook/Knuth-D core with Montgomery exponentiation)
//! - [`prime`] — Miller–Rabin testing and prime generation
//! - [`rsa`] — key generation, OAEP-style encryption (including the
//!   256-byte block / 215-byte plaintext limit the paper discusses in
//!   Section V-D), and hash-then-sign signatures
//! - [`sha256`] / [`hmac`] — message digests and MACs for every protocol
//!   message and ticket
//! - [`rc4`] — the paper's data-plane stream cipher (Section V-E)
//! - [`chacha`] / [`drbg`] — a deterministic, seedable random generator so
//!   the whole simulation is reproducible
//! - [`envelope`] — 128-bit-key encrypt-then-MAC envelope used for area
//!   and auxiliary key material
//!
//! # Security disclaimer
//!
//! This code is a faithful *systems* reproduction, not an audited
//! cryptographic library. It is constant-time nowhere and must not be
//! used to protect real data.
//!
//! # Example
//!
//! ```
//! use mykil_crypto::drbg::Drbg;
//! use mykil_crypto::rsa::RsaKeyPair;
//!
//! let mut rng = Drbg::from_seed(7);
//! let pair = RsaKeyPair::generate(768, &mut rng)?;
//! let ct = pair.public().encrypt(b"join request", &mut rng)?;
//! assert_eq!(pair.decrypt(&ct)?, b"join request");
//! # Ok::<(), mykil_crypto::CryptoError>(())
//! ```

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bignum;
pub mod chacha;
pub mod ct;
pub mod drbg;
pub mod envelope;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod prime;
pub mod rc4;
pub mod rsa;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha_ni;

pub use ct::ct_eq;
pub use error::CryptoError;

/// Length in bytes of the symmetric keys used throughout Mykil
/// (the paper uses 128-bit area and auxiliary keys).
pub const SYMMETRIC_KEY_LEN: usize = 16;
