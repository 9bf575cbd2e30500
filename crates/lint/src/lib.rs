//! mykil-lint: workspace-aware static analysis for the Mykil invariants
//! no generic linter can state.
//!
//! Everything clippy can say is said by clippy (the workspace's lint
//! tables and module attributes; DESIGN.md, "Static analysis"). This
//! crate keeps the four rules that know the protocol:
//!
//! - **L002** — secret-bearing types (`SymmetricKey`, `Rc4`,
//!   `ChaCha20`, `RsaKeyPair`, `SecretBytes`) must not derive `Debug`,
//!   `PartialEq`, or `Hash`, and must implement `Drop` (zeroization);
//!   at-rest storage writes payloads only through `SecretBytes`.
//! - **L003** — MAC/digest/secret byte comparisons must go through
//!   `mykil_crypto::ct_eq`, never `==`/`!=`.
//! - **L007** — WAL-before-ack call ordering in `core` handlers: an
//!   ack/reply `Msg` must not be emitted before the function's
//!   `wal_commit`-family call.
//! - **L008** — every `set_timer` arm site uses a named `TIMER_*` kind
//!   with a matching handling/cancel site in the same crate.
//!
//! L002 and L003 are token rules over a hand-rolled scanner
//! ([`tokenizer`]); L007 and L008 run per crate over a small syntax
//! layer ([`ast`]) of functions and their calls. The `syn` crate is
//! deliberately not used: the workspace builds offline with zero
//! external dependencies.
//!
//! Findings are suppressed per line with
//! `// mykil-lint: allow(L00x) -- reason`; a directive that suppresses
//! nothing is itself a finding, as an unfulfilled `#[expect]` is.

#![forbid(unsafe_code)]

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
