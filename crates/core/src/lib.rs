//! Mykil: a multi-hierarchy key distribution protocol for large secure
//! multicast groups, with support for member mobility and fault
//! tolerance.
//!
//! This crate reproduces the system described in *"Support for Mobility
//! and Fault Tolerance in Mykil"* (Huang & Mishra, University of
//! Colorado TR CU-CS-962-03 / DSN 2004). Mykil combines:
//!
//! - **Group-based hierarchy** (after Iolus): the multicast group is
//!   divided into *areas*, each run by an *area controller* (AC); areas
//!   form a tree, with each AC also a member of its parent area. Data
//!   multicast within an area is encrypted under a random key `K_r`
//!   which is itself encrypted under the area key; ACs re-encrypt `K_r`
//!   hop by hop to forward across areas (Figure 2).
//! - **Key-based hierarchy** (after LKH): inside each area, the AC
//!   maintains an auxiliary-key tree ([`mykil_tree::KeyTree`]) so that a
//!   leave event costs `O(log area)` key updates instead of `O(area)`.
//!
//! On top of the base rekeying machinery the paper — and this crate —
//! adds:
//!
//! - the 7-step authenticated **join protocol** (Figure 3) between a
//!   client, the registration server and an AC ([`member`],
//!   [`registration`], [`area`]);
//! - **tickets** (Kerberos-style, sealed under the AC-shared key
//!   `K_shared`) and the 6-step **rejoin protocol** (Figure 7) that lets
//!   a mobile or disconnected member join a new area without
//!   re-registering ([`ticket`]);
//! - **batching** of join/leave events with rekey-on-data and a
//!   freshness timer (Section III-E);
//! - **failure detection** via `T_idle` alive multicasts and `T_active`
//!   member alives (Section IV-A), member eviction, AC parent
//!   re-linking, and **primary-backup replication** of area controllers
//!   (Section IV-C).
//!
//! The protocol runs over the deterministic simulator in [`mykil_net`];
//! the [`group`] module wires complete deployments for examples, tests
//! and benchmarks.
//!
//! # Quick start
//!
//! ```
//! use mykil::group::GroupBuilder;
//!
//! // One registration server, two areas, small keys for the doc test.
//! let mut g = GroupBuilder::new(7).rsa_bits(512).areas(2).build();
//! let alice = g.register_member(0);
//! let bob = g.register_member(1);
//! g.settle();
//! assert!(g.is_member(alice) && g.is_member(bob));
//!
//! // Alice multicasts; Bob (possibly in another area) receives.
//! g.send_data(alice, b"hello, group");
//! g.settle();
//! assert_eq!(g.received_data(bob), vec![b"hello, group".to_vec()]);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::disallowed_types)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod area;
pub mod auth;
pub mod config;
pub mod crypto_cost;
pub mod directory;
pub mod durable;
pub mod error;
pub mod group;
pub mod identity;
pub mod invariants;
pub mod member;
pub mod msg;
mod node_keys;
pub mod registration;
pub mod rekey;
pub mod ticket;
mod timer;
pub mod welcome;
pub mod wire;

pub use config::MykilConfig;
pub use error::ProtocolError;
pub use identity::{AreaId, ClientId, DeviceId};
