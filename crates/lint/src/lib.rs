//! mykil-lint: workspace-aware static analysis for Mykil's key-secrecy
//! and protocol-hygiene invariants.
//!
//! The linter is dependency-free: a hand-rolled token scanner
//! ([`tokenizer`]) feeds a small rule engine ([`engine`]) running two
//! rule families:
//!
//! **Token rules** (per file, over the raw token stream):
//!
//! - **L001** — no `unwrap()`/`expect()` in non-test code of the
//!   protocol crates (`core`, `net`, `tree`). A Mykil node processing a
//!   malformed or Byzantine message must degrade to a `ProtocolError`,
//!   never panic.
//! - **L002** — secret-bearing types (`SymmetricKey`, `Rc4`,
//!   `ChaCha20`, `RsaKeyPair`) must not derive `Debug`, `PartialEq`, or
//!   `Hash`, and must implement `Drop` (zeroization).
//! - **L003** — MAC/digest/secret byte comparisons must go through
//!   `mykil_crypto::ct_eq`, never `==`/`!=`.
//! - **L004** — no `std::time::{SystemTime, Instant}` in the
//!   sim-deterministic crates (`net`, `core`).
//! - **L005** — protocol `Msg` dispatch must list variants explicitly;
//!   no `_ =>` catch-all.
//!
//! - **L011** — `unsafe` only in the allowlisted files (`ct.rs`,
//!   `keys.rs`, `sha_ni.rs`, the benchmark's `alloc_track.rs`), every
//!   block under a `// SAFETY:` comment.
//!
//! **Syntax-aware rules** (per crate, over the [`ast`] layer — function
//! bodies as ordered event streams plus crate-wide declaration tables):
//!
//! - **L006** — no iteration over `HashMap`/`HashSet` in the
//!   deterministic crates: bucket order varies per process and breaks
//!   seeded chaos replay and byte-identical wire output.
//! - **L007** — WAL-before-ack call ordering in `core` handlers: an
//!   ack/reply `Msg` must not be emitted before the function's
//!   `wal_commit`-family call.
//! - **L008** — every `set_timer` arm site uses a named `TIMER_*` kind
//!   with a matching handling/cancel site in the same crate.
//! - **L009** — no bare narrowing `as` casts in wire/codec files; use
//!   `try_from` + `Malformed`.
//! - **L010** — no panicking slice access (`x[i]`, `split_at`,
//!   `copy_from_slice`) in wire/codec files.
//!
//! The `syn` crate is deliberately not used: the workspace builds
//! offline with zero external dependencies, so [`ast`] is a small
//! hand-rolled syntax layer tuned to exactly what the rules consume.
//!
//! Findings are suppressed per line with
//! `// mykil-lint: allow(L00x) -- reason`.

pub mod ast;
pub mod diagnostics;
pub mod engine;
pub mod explain;
pub mod rules;
pub mod rules_ast;
pub mod tokenizer;

pub use diagnostics::Diagnostic;
pub use engine::{lint_files, lint_source, lint_workspace};
pub use rules::RULES;
